// The observability gate: the instruments record what they are given,
// and instrumentation never changes what the system computes.
//
//   * Recording — each MUSK_OBS_* macro evaluates its argument once and
//     registers its instrument in the global registry; a span measures
//     a non-negative duration. (bench/svc_throughput section (f)
//     reports what each macro costs.)
//   * Outcome invariance — a deterministic service run settles to the
//     same network digest with tracing enabled as with it disabled.
//   * Counting — M2's exclusion solves, which bypass
//     SolveContext::solve, still count themselves.
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/m2_vcg.hpp"
#include "core/m3_double_auction.hpp"
#include "flow/solve_context.hpp"
#include "gen/game_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "svc/executor.hpp"
#include "svc/service.hpp"
#include "svc_test_util.hpp"
#include "util/rng.hpp"

namespace musketeer::obs {
namespace {

TEST(ObsGate, MacrosEvaluateArgumentsAndRegisterInstruments) {
  int evaluated = 0;
  const auto touch = [&evaluated] {
    ++evaluated;
    return 1.0;
  };
  MUSK_OBS_COUNT("test.gate.touch_total", static_cast<std::uint64_t>(touch()));
  MUSK_OBS_GAUGE("test.gate.level", touch());
  MUSK_OBS_HISTOGRAM("test.gate.wait_seconds", touch());
  MUSK_OBS_SPAN(span, "test.gate.span");
  span.set_epoch(1);
  span.set_detail("gate");
  const double secs = span.end();

  const std::string json = registry().to_json();
  EXPECT_EQ(evaluated, 3);
  EXPECT_GE(secs, 0.0);
  EXPECT_NE(json.find("test.gate.touch_total"), std::string::npos);
  EXPECT_NE(json.find("test.gate.level"), std::string::npos);
  EXPECT_NE(json.find("test.gate.wait_seconds"), std::string::npos);
}

TEST(ObsGate, TracingDoesNotPerturbSettlement) {
  const sim::SimulationConfig config = svc::testutil::small_config(23);

  const auto run = [&config] {
    pcn::Network net = svc::testutil::make_network(config);
    core::M3DoubleAuction mechanism;
    svc::ServiceConfig service_config;
    service_config.policy = config.policy;
    svc::RebalanceService service(net, mechanism, service_config);
    std::uint64_t digest = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
      digest = service.run_epoch().network_digest;
    }
    return digest;
  };

  trace::stop();
  trace::clear();
  const std::uint64_t quiet = run();

  trace::start();
  const std::uint64_t traced = run();
  trace::stop();

  // The traced run actually recorded the epoch spans it claims to.
  EXPECT_FALSE(trace::drain().empty());
  trace::clear();

  EXPECT_EQ(quiet, traced);
}

// M2's exclusion solves run as executor tasks outside
// SolveContext::solve, so they count themselves: one vcg_prices call on
// a 4-thread pool adds one exclusion solve per buyer.
TEST(ObsGate, VcgExclusionSolvesAreCounted) {
  util::Rng rng(0x0B5);
  const core::Game game = gen::random_ba_game(30, 2, gen::GameConfig{}, rng);
  const core::BidVector bids = game.truthful_bids();
  std::set<core::PlayerId> buyers;
  for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
    if (bids.head[static_cast<std::size_t>(e)] > 0.0) {
      buyers.insert(game.edge(e).to);
    }
  }
  ASSERT_FALSE(buyers.empty());

  svc::ParallelExecutor executor(4);
  flow::SolveContext ctx;
  ctx.set_executor(&executor);
  const Counter& solves = registry().counter("core.vcg.exclusion_solves_total");
  const std::uint64_t before = solves.value();
  core::M2Vcg().vcg_prices(ctx, game, bids);
  EXPECT_EQ(solves.value() - before, buyers.size());
}

}  // namespace
}  // namespace musketeer::obs
