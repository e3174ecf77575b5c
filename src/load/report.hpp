// Result of one measured load run.
//
// All latency figures are quoted from the measure window only and, for
// open-loop runs, from the *scheduled* arrival time (coordinated-
// omission-correct; see scenario.hpp).  The whole struct is plain data
// with defaulted equality so determinism tests can compare two runs
// field-for-field.
#pragma once

#include <cstdint>
#include <string>

namespace load {

struct Report {
  std::string backend;   // kernel substrate name
  std::string scenario;  // Scenario::name
  double offered_rate = 0.0;  // requests/s asked for (open loop)

  // Counts over the measure window.
  std::int64_t scheduled = 0;  // arrivals scheduled in-window
  std::int64_t completed = 0;  // in-window arrivals whose reply landed
  std::int64_t dropped = 0;    // in-window arrivals shed by the backlog cap
  std::int64_t errors = 0;     // LynxError-terminated operations + failures
  std::int64_t samples = 0;    // latency observations (== completed)

  double throughput = 0.0;  // completed / measure seconds
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  // Pending work (queued arrivals + in-flight calls) sampled at the
  // measure window's edges: growth across the window is the signature
  // of an offered rate beyond capacity.
  std::int64_t backlog_start = 0;
  std::int64_t backlog_end = 0;
  std::int64_t backlog_peak = 0;
  bool backlog_capped = false;  // the per-client cap shed arrivals

  double sim_end_ms = 0.0;  // simulated clock when the run was cut off

  // Wire economy over the measure window (E16), from the engine's counts
  // (Universe::wire_ops): frames sent on the medium (Chrysalis: enqueue
  // dispatches), and the same per completed request.  Formation cuts it.
  std::int64_t wire_ops = 0;
  double frames_per_op = 0.0;

  // The capacity searcher's sustainability predicate: the run kept up
  // with its offered rate if nothing was shed or failed, the tail
  // stayed under the bound, and the backlog did not grow beyond
  // `backlog_slack` over the measure window.
  [[nodiscard]] bool sustainable(double p99_bound_ms,
                                 std::int64_t backlog_slack) const {
    return !backlog_capped && dropped == 0 && errors == 0 && samples > 0 &&
           p99_ms <= p99_bound_ms &&
           (backlog_end - backlog_start) <= backlog_slack;
  }

  bool operator==(const Report&) const = default;
};

}  // namespace load
