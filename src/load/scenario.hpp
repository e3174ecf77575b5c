// Workload scenarios (ROADMAP: "serves heavy traffic").
//
// A Scenario is a pure description of offered load: topology, arrival
// process, message-size mix, and measurement windows.  It deliberately
// names no kernel — the same Scenario runs unchanged against Charlotte,
// SODA, and Chrysalis (load::Runner picks the substrate), which is what
// turns the paper's single-RPC latency tables into comparable
// throughput–latency curves per kernel.
//
// Two generator families, per the standard load-testing taxonomy:
//
//   * closed loop — `clients` threads issue a call, wait for the reply,
//     optionally think, and repeat.  Offered load is a *consequence* of
//     service time: a slow server quietly slows the generator down too.
//   * open loop — arrivals are scheduled at `offered_rate` regardless of
//     replies (deterministic gaps or Poisson via sim::Rng).  Latency is
//     accounted from the *scheduled* arrival, so time a request spends
//     queued behind a slow server counts against it.  This is the
//     coordinated-omission-correct generator; the closed loop is kept
//     both as a workload in its own right and as the control that shows
//     what omission hides (tests/load/omission_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace load {

enum class Arrival : std::uint8_t {
  kClosed = 0,             // call → reply → think → repeat
  kOpenDeterministic = 1,  // fixed inter-arrival gap at offered_rate
  kOpenPoisson = 2,        // exponential gaps with mean 1/offered_rate
};

enum class Topology : std::uint8_t {
  kFanIn = 0,     // N clients × M servers, client i served by i mod M
  kPipeline = 1,  // clients → stage 0 → … → stage M-1, reply unwinds back
};

[[nodiscard]] const char* to_string(Arrival a);
[[nodiscard]] const char* to_string(Topology t);

// One point of the request/reply size mix, drawn by weight.
struct SizePoint {
  std::size_t request_bytes = 64;
  std::size_t reply_bytes = 64;
  double weight = 1.0;
};

struct Scenario {
  std::string name = "fan-in";
  Topology topology = Topology::kFanIn;
  std::size_t clients = 4;
  std::size_t servers = 1;  // fan-in: server processes; pipeline: stages
  std::size_t server_threads = 1;   // worker threads per server process
  std::size_t channels_per_client = 1;  // links from each client

  Arrival arrival = Arrival::kClosed;
  double offered_rate = 100.0;  // open loop: total requests/s, all clients
  sim::Duration think = 0;      // closed loop: pause between calls

  // vector(1) rather than an initializer list: gcc 12's
  // -Wmaybe-uninitialized misfires on the list's backing array at -O3.
  std::vector<SizePoint> mix = std::vector<SizePoint>(1);

  // Measurement windows, all relative to the run start: arrivals begin
  // immediately, only requests *scheduled* inside [warmup, warmup +
  // measure) are recorded, and the run is cut off `drain` after the
  // measure window so late replies can land.
  sim::Duration warmup = sim::msec(500);
  sim::Duration measure = sim::sec(2);
  sim::Duration drain = sim::sec(2);

  std::uint64_t seed = 1;

  // RPC formation (src/form/, DESIGN.md §14): co-destined kernel frames
  // posted within form_delay of each other share one wire frame of up
  // to form::kMaxBatchBytes.  0 = frame-per-message (the default).  On
  // Chrysalis — which has no wire — the same window drives dual-queue
  // notice batching.
  sim::Duration form_delay = 0;

  // Open loop: drop arrivals once a client's pending queue reaches this
  // depth (0 = unbounded).  A capped run is by definition not
  // sustaining its offered rate; the Report records the drops.
  std::size_t max_backlog_per_client = 4096;

  // Fault hook for the omission regression: server 0's next receive at
  // or after `stall_at` (relative to run start) pauses for `stall_for`
  // before serving.  stall_for == 0 disables.
  sim::Duration stall_at = 0;
  sim::Duration stall_for = 0;
};

inline const char* to_string(Arrival a) {
  switch (a) {
    case Arrival::kClosed: return "closed";
    case Arrival::kOpenDeterministic: return "open-det";
    case Arrival::kOpenPoisson: return "open-poisson";
  }
  return "?";
}

inline const char* to_string(Topology t) {
  switch (t) {
    case Topology::kFanIn: return "fan-in";
    case Topology::kPipeline: return "pipeline";
  }
  return "?";
}

}  // namespace load
