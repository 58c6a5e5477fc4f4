// Instrumentation macro layer: the one header hot paths include.
//
// Each macro resolves its instrument once per site via a function-local
// static reference; after the first hit it pays only the instrument's
// own update. bench/svc_throughput section (f) measures each macro
// against a bare loop, and DESIGN.md §12.3 records the costs.
// Instrumentation never changes what the system computes:
// tests/obs/obs_gate_test.cpp checks that settlement digests match with
// tracing on and off.
//
// Naming scheme (DESIGN.md §12): dot-separated lowercase
// `<layer>.<object>.<unit>` — e.g. `svc.epoch.clear_seconds`,
// `flow.solve.rebind_total`, `pcn.imbalance.gini`. Histograms of
// durations always end in `_seconds`; counters in `_total`.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// Adds `n` to the process-global counter `name` (a string literal).
#define MUSK_OBS_COUNT(name, n)                                         \
  do {                                                                  \
    static ::musketeer::obs::Counter& musk_obs_counter_ =               \
        ::musketeer::obs::registry().counter(name);                     \
    musk_obs_counter_.add(n);                                           \
  } while (0)

/// Sets the process-global gauge `name` to `v`.
#define MUSK_OBS_GAUGE(name, v)                                         \
  do {                                                                  \
    static ::musketeer::obs::Gauge& musk_obs_gauge_ =                   \
        ::musketeer::obs::registry().gauge(name);                       \
    musk_obs_gauge_.set(v);                                             \
  } while (0)

/// Records `v` into the process-global histogram `name`.
#define MUSK_OBS_HISTOGRAM(name, v)                                     \
  do {                                                                  \
    static ::musketeer::obs::Histogram& musk_obs_histogram_ =           \
        ::musketeer::obs::registry().histogram(name);                   \
    musk_obs_histogram_.record(v);                                      \
  } while (0)

/// Declares a scoped trace span named `var` (see obs::Span): it always
/// measures, and emits a trace event only while tracing is on. Use
/// `var.set_epoch()` / `var.set_detail()` / `var.end()` on it.
#define MUSK_OBS_SPAN(var, name) ::musketeer::obs::Span var(name)
