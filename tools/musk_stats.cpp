// musk_stats — query a running musketeerd for its live stats snapshot.
//
//   musk_stats [--connect tcp:PORT|unix:PATH] [--json]
//
//   --connect <ep>  daemon endpoint                    [tcp:7740]
//   --json          dump the raw obs registry JSON after the summary
//
// Sends one kStatsRequest frame and renders the kStatsResponse: service
// state (epoch counter, queue depth/capacity/high-watermark, journal
// size, uptime), the Pickhardt-style imbalance gauges, the solve
// concurrency and last epoch's component count, the checkpoint health
// (snapshot age, epochs since snapshot, journal segment count), the
// intake counters, and — with --json — the full metrics registry snapshot
// (counters, gauges, histogram quantiles) the daemon serves.
//
// Exit status: 0 on success, 1 on usage errors, 2 when the daemon is
// unreachable or misbehaves.
#include <cstdio>
#include <string>

#include "svc/client.hpp"
#include "util/table.hpp"

using namespace musketeer;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: musk_stats [--connect tcp:PORT|unix:PATH] [--json]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect = "tcp:7740";
  bool dump_json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (flag == "--json") {
      dump_json = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
      return usage();
    }
  }

  try {
    svc::Client client(connect);
    const svc::StatsResponseMsg response = client.stats();
    const svc::ServiceStats& stats = response.service;

    std::printf("musketeerd @ %s\n", connect.c_str());
    util::Table table({"stat", "value"});
    table.add_row({"epochs cleared", std::to_string(stats.epochs_cleared)});
    table.add_row({"uptime", util::format("%.1f s", stats.uptime_seconds)});
    table.add_row(
        {"queue depth / capacity",
         util::format("%llu / %llu",
                      static_cast<unsigned long long>(stats.queue_depth),
                      static_cast<unsigned long long>(stats.queue_capacity))});
    table.add_row({"queue high watermark",
                   std::to_string(stats.queue_high_watermark)});
    table.add_row({"journal bytes", std::to_string(stats.journal_bytes)});
    table.add_row({"imbalance (gini)",
                   util::format("%.4f", stats.imbalance_gini)});
    table.add_row({"imbalance (mean)",
                   util::format("%.4f", stats.imbalance_mean)});
    table.add_row({"solve threads", std::to_string(stats.solve_threads)});
    table.add_row({"last epoch components",
                   std::to_string(stats.last_components)});
    table.add_row({"largest component (edges)",
                   std::to_string(stats.largest_component)});
    table.add_row({"shed level", std::to_string(stats.shed_level)});
    table.add_row({"clear EWMA",
                   util::format("%.3f ms", 1e3 * stats.ewma_clear_seconds)});
    table.add_row({"deadline exceeded",
                   std::to_string(stats.deadline_exceeded)});
    table.add_row({"degraded rungs", std::to_string(stats.degraded_epochs)});
    table.add_row({"epochs aborted", std::to_string(stats.aborted_epochs)});
    table.add_row({"snapshot age",
                   stats.snapshot_age_seconds < 0.0
                       ? std::string("(none this run)")
                       : util::format("%.1f s", stats.snapshot_age_seconds)});
    table.add_row({"epochs since snapshot",
                   std::to_string(stats.epochs_since_snapshot)});
    table.add_row({"snapshots taken", std::to_string(stats.snapshots_taken)});
    table.add_row({"journal segments",
                   std::to_string(stats.journal_segments)});
    table.print();

    const svc::IntakeCounters& in = stats.intake;
    std::printf("\nintake: %llu accepted, %llu replaced, %llu rejected-full, "
                "%llu rejected-invalid, %llu rejected-closed, %llu duplicate, "
                "%llu rejected-overload\n",
                static_cast<unsigned long long>(in.accepted),
                static_cast<unsigned long long>(in.replaced),
                static_cast<unsigned long long>(in.rejected_full),
                static_cast<unsigned long long>(in.rejected_invalid),
                static_cast<unsigned long long>(in.rejected_closed),
                static_cast<unsigned long long>(in.duplicate),
                static_cast<unsigned long long>(in.rejected_overload));

    if (dump_json) {
      std::printf("\n%s\n", response.registry_json.c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "musk_stats: error: %s\n", error.what());
    return 2;
  }
}
