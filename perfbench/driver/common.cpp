#include "common.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

const std::map<std::string, std::string> kEndToEndUnits = {
    {"setup_s", "s"},          {"clear_ms_p50", "ms"},  {"clear_ms_p90", "ms"},
    {"epochs_per_s", "1/s"},   {"ack_us_p50", "us"},    {"ack_us_p90", "us"},
    {"notice_ms_p50", "ms"},   {"payment_success", "ratio"}};

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::vector<pcn::Amount> node_wealth(const pcn::Network& network) {
  std::vector<pcn::Amount> wealth(static_cast<std::size_t>(network.num_nodes()));
  for (pcn::NodeId v = 0; v < network.num_nodes(); ++v) {
    wealth[static_cast<std::size_t>(v)] = network.node_wealth(v);
  }
  return wealth;
}

bool has_locks(const pcn::Network& network) {
  for (pcn::ChannelId c = 0; c < network.num_channels(); ++c) {
    const pcn::Channel& ch = network.channel(c);
    if (ch.locked_a != 0 || ch.locked_b != 0) return true;
  }
  return false;
}

void check_settlement(const pcn::Network& after,
                      const std::vector<pcn::Amount>& before, int epoch,
                      Result& result) {
  if (node_wealth(after) != before) {
    result.fail("epoch " + std::to_string(epoch) +
                ": a node's wealth changed during settlement");
  }
  if (has_locks(after)) {
    result.fail("epoch " + std::to_string(epoch) +
                ": an HTLC lock survived settlement");
  }
}

void tight_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

}  // namespace perfbench
