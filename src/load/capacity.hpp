// Saturation search: how much offered load can a kernel sustain?
//
// A rate is "sustainable" when the run completed everything it
// scheduled within a p99 bound and without its backlog growing over the
// measure window (Report::sustainable).  find_capacity walks offered
// rates geometrically until the scenario breaks, then bisects the
// bracket (in log space) to the knee.  Every probe is a full
// deterministic run, so the search itself is reproducible.
#pragma once

#include <vector>

#include "load/universe.hpp"
#include "load/report.hpp"
#include "load/scenario.hpp"

namespace sweep {
class ThreadPool;  // src/sweep/thread_pool.hpp
}  // namespace sweep

namespace load {

struct CapacityParams {
  // Absolute p99 bound in ms; 0 derives one from an unloaded probe at
  // rate_lo: p99_multiplier × its measured p99 (an "acceptably loaded"
  // tail is a few times the uncontended tail).
  double p99_bound_ms = 0.0;
  double p99_multiplier = 5.0;
  double rate_lo = 2.0;     // must be comfortably sustainable
  double rate_hi = 2048.0;  // search ceiling, requests/s
  int refine_iters = 5;     // log-space bisection steps after bracketing
  // Optional sweep pool: when set, the whole geometric ladder is probed
  // as one parallel wave (each probe is an independent Engine) and the
  // sequential walk replays over the precomputed reports.  Probes past
  // the first failure are discarded, so the result — curve included —
  // is bit-identical to the sequential search.  Bisection stays
  // sequential (each midpoint depends on the previous verdict).
  sweep::ThreadPool* pool = nullptr;
};

struct RatePoint {
  double rate = 0.0;
  Report report;
  bool sustainable = false;
};

struct CapacityResult {
  double peak_rate = 0.0;        // highest sustainable offered rate probed
  double peak_throughput = 0.0;  // delivered throughput at that rate
  double p99_bound_ms = 0.0;     // the bound the verdicts used
  std::vector<RatePoint> curve;  // every probe, sorted by rate
};

// `base` must use an open-loop arrival process; its offered_rate is
// overridden per probe.
[[nodiscard]] CapacityResult find_capacity(Substrate substrate, Scenario base,
                                           CapacityParams params = {});

}  // namespace load
