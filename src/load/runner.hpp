// Runs one Scenario against one substrate and measures it.
//
// The Runner builds the Scenario's topology in a load::Universe (kernel,
// server and client processes, bootstrap links), spawns the server
// workers and the chosen generator (scenario.hpp), runs the engine to
// the scenario's hard end (warmup + measure + drain), and distills a
// Report.  Latency lands in a sim::Histogram, so the per-RPC recording
// cost is O(1) and the quoted p50/p99 are within the histogram's ~1.6%
// bucket resolution.
//
// Everything is deterministic: the same (substrate, Scenario) produces
// a bit-identical Report and engine clock, which the determinism suite
// (tests/fault/trace_determinism_test.cpp) locks in under tracing.
#pragma once

#include <memory>

#include "load/universe.hpp"
#include "load/report.hpp"
#include "load/scenario.hpp"

namespace load {

class Runner {
 public:
  Runner(Substrate substrate, Scenario scenario);
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;
  ~Runner();

  // Exposed so callers can attach a trace::Recorder before run().
  [[nodiscard]] sim::Engine& engine();

  // Single-shot: drives the whole scenario and reports on it.
  [[nodiscard]] Report run();

  // Implementation state, defined in runner.cpp; public so the file's
  // generator coroutines (free functions, per CP.51) can reach it.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

// Convenience: construct, run, report.
[[nodiscard]] Report run_scenario(Substrate substrate, Scenario scenario);

}  // namespace load
