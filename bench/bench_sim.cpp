// E17: bench_sim — how fast is the simulator itself?
//
// Every capacity number the other benches publish is bounded by the
// discrete-event engine's wall-clock throughput: a million-request
// window is only affordable if the engine retires tens of millions of
// events per second.  This bench measures exactly that, as
// simulated-events-per-wall-second (the BENCH_SIM trajectory), on four
// engine-level workloads:
//
//   * storm      — a raw engine event storm (self-rescheduling chains
//                  with same-instant bursts, no kernels): pure event
//                  queue cost, the tentpole's microbenchmark.
//   * cancel     — arm-then-cancel timer churn (the retransmit-timer
//                  pattern every kernel uses): cancellation path cost.
//   * fanin      — the engine-level fan-in scenario (the acceptance
//                  workload for the queue overhaul): 4096 producers
//                  fanning into one sink, every delivery carrying a
//                  frame-sized closure payload.  Queue depth stays in
//                  the thousands, so this is exactly the regime where
//                  the old binary heap paid a deep sift plus a
//                  std::function heap allocation per event.
//   * sparse     — Charlotte-shaped chains: two hops in three wait
//                  0.5-4.2 ms, one in three 8-33 ms (a kernel call, a
//                  bus deferral), so events are sparse across the
//                  first level and a third of them wait in the second.
//
// The full stack's host cost (kernels, media, trace gate, LYNX runtimes)
// is perfbench's to measure: its fanin-small workload runs a 64x16
// fan-in below each kernel's knee and reports host ns per RPC.
//
// Flags (bench::init): --json-out, --seed, plus --smoke for the
// CI-sized version and --baseline=PATH to gate each metric against an
// events-per-second floor (bench/baselines/sim.json): exits nonzero
// when any measured metric drops below its floor, so CI catches an
// engine slowdown at the PR that introduces it.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "sim/random.hpp"

namespace {

using namespace bench;

// ---- wall-clock measurement ------------------------------------------------

double wall_seconds_since(
    std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

struct Metric {
  std::string name;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  // The engine fan-in's payload checksum (0 elsewhere): compared across
  // reps, which also keeps the payload work from being optimized away.
  std::uint64_t checksum = 0;
  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

// ---- storm: raw engine event throughput ------------------------------------

// The storm's delays are mixed by sim::splitmix64, the engine's own
// mixing function: a pure function of (seed, event index), so the
// workload is identical run over run and engine over engine.
using sim::splitmix64;

// `chains` self-rescheduling event chains, each firing `hops` times.
// Delays are 0..127 us, so chains collide on the same instant constantly
// (the FIFO tie-break path) and spread across timer-wheel buckets; every
// 8th hop is a zero-delay reschedule (the spawn/mailbox fairness-point
// pattern).
Metric run_storm(std::uint64_t seed, int chains, int hops) {
  sim::Engine e;
  std::int64_t remaining = static_cast<std::int64_t>(chains) * hops;
  const auto t0 = std::chrono::steady_clock::now();
  struct Chain {
    sim::Engine* e;
    std::int64_t* remaining;
    std::uint64_t state;
    void fire() {
      if (--*remaining <= 0) return;
      state = splitmix64(state);
      const sim::Duration d =
          (state & 7) == 0 ? 0 : sim::usec(static_cast<std::int64_t>(state & 127));
      e->schedule(d, [c = *this]() mutable { c.fire(); });
    }
  };
  for (int i = 0; i < chains; ++i) {
    Chain c{&e, &remaining, seed * 0x9e3779b9ULL + static_cast<std::uint64_t>(i)};
    e.schedule(sim::usec(i), [c]() mutable { c.fire(); });
  }
  e.run();
  return {"storm", e.events_fired(), wall_seconds_since(t0)};
}

// Arm-then-cancel churn: every fired event arms a far-future cancellable
// "retransmit timer" and cancels the one it armed last hop — the
// steady-state pattern of a kernel under load (timers almost never
// fire; they are armed, outlived by the ack, and cancelled).
Metric run_cancel_storm(std::uint64_t seed, int chains, int hops) {
  sim::Engine e;
  std::int64_t remaining = static_cast<std::int64_t>(chains) * hops;
  const auto t0 = std::chrono::steady_clock::now();
  struct Chain {
    sim::Engine* e;
    std::int64_t* remaining;
    std::uint64_t state;
    sim::TimerHandle armed;
    void fire() {
      armed.cancel();
      if (--*remaining <= 0) return;
      state = splitmix64(state);
      armed = e->schedule_cancellable(sim::msec(50), [] {});
      e->schedule(sim::usec(static_cast<std::int64_t>(state & 63) + 1),
                  [c = *this]() mutable { c.fire(); });
    }
  };
  for (int i = 0; i < chains; ++i) {
    Chain c{&e, &remaining, seed + static_cast<std::uint64_t>(i) * 7919, {}};
    e.schedule(sim::usec(i), [c]() mutable { c.fire(); });
  }
  e.run();
  return {"cancel", e.events_fired(), wall_seconds_since(t0)};
}

// The engine-level fan-in scenario: `sources` producers fan into one
// sink, each delivery carrying a frame-sized payload (56-byte capture —
// the size a media frame-delivery closure actually has; far past
// std::function's 16-byte small-buffer, comfortably inside EventFn's 64).
// Delays spread deliveries across ~2 ms so thousands of events are
// pending at once, and every 64th delivery is scheduled at a
// retransmit-horizon 8 ms out to exercise the engine's second level.
Metric run_fanin_storm(std::uint64_t seed, int sources, int rounds) {
  sim::Engine e;
  std::int64_t remaining = static_cast<std::int64_t>(sources) * rounds;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  struct Source {
    sim::Engine* e;
    std::int64_t* remaining;
    std::uint64_t* sink;
    std::uint64_t state;
    void fire() {
      if (--*remaining <= 0) return;
      state = splitmix64(state);
      struct Payload {
        std::uint64_t words[3];
      } p{{state, state ^ 0xa5a5a5a5a5a5a5a5ULL, ~state}};
      const sim::Duration d =
          (state & 63) == 0
              ? sim::msec(8)
              : sim::usec(static_cast<std::int64_t>(state & 2047));
      e->schedule(d, [c = *this, p]() mutable {
        *c.sink += p.words[0] ^ p.words[1] ^ p.words[2];
        c.fire();
      });
    }
  };
  for (int i = 0; i < sources; ++i) {
    Source s{&e, &remaining, &sink,
             splitmix64(seed ^ (0x517cc1b727220a95ULL *
                                static_cast<std::uint64_t>(i + 1)))};
    e.schedule(sim::usec(i & 1023), [s]() mutable { s.fire(); });
  }
  e.run();
  return {"fanin", e.events_fired(), wall_seconds_since(t0), sink};
}

// `chains` self-rescheduling chains with the delay mix of a Charlotte
// run (EXPERIMENTS.md E17, "Two-level wheel"): a third of its events
// wait 8-33 ms, the rest 0.5-4.2 ms.  Few events share a bucket, so
// this is the engine's cost per event when the wheel is sparse and
// much of the queue sits past the first level.
Metric run_sparse(std::uint64_t seed, int chains, int hops) {
  sim::Engine e;
  std::int64_t remaining = static_cast<std::int64_t>(chains) * hops;
  const auto t0 = std::chrono::steady_clock::now();
  struct Chain {
    sim::Engine* e;
    std::int64_t* remaining;
    std::uint64_t state;
    void fire() {
      if (--*remaining <= 0) return;
      state = splitmix64(state);
      const auto jitter = static_cast<sim::Duration>(state >> 8);
      const sim::Duration d = state % 3 == 0
                                  ? sim::msec(8) + jitter % sim::msec(25)
                                  : sim::usec(500) + jitter % sim::usec(3700);
      e->schedule(d, [c = *this]() mutable { c.fire(); });
    }
  };
  for (int i = 0; i < chains; ++i) {
    const std::uint64_t mix =
        0x2545f4914f6cdd1dULL * static_cast<std::uint64_t>(i + 1);
    Chain c{&e, &remaining, splitmix64(seed ^ mix)};
    e.schedule(sim::usec(i), [c]() mutable { c.fire(); });
  }
  e.run();
  return {"sparse", e.events_fired(), wall_seconds_since(t0)};
}

// ---- reporting and the baseline gate ---------------------------------------

void report(const Metric& m) {
  std::printf("%-16s %14llu events %10.3f s %16.0f events/s\n",
              m.name.c_str(), static_cast<unsigned long long>(m.events),
              m.wall_s, m.events_per_sec());
  json()
      .field("kind", "sim_speed")
      .field("metric", m.name)
      .field("events", static_cast<std::int64_t>(m.events))
      .field("wall_s", m.wall_s)
      .field("events_per_sec", m.events_per_sec())
      .emit();
}

// Each metric is gated against "<name>_floor" in the baseline file
// (events per wall-second).  Floors are deliberately set well under a
// healthy run — CI machines are noisy — so a trip means a structural
// slowdown, not scheduler jitter.  Metrics without a floor pass with a
// note, so adding a workload does not require touching the baseline.
bool baseline_gate(const std::string& path, const std::vector<Metric>& ms) {
  const std::optional<Baseline> base =
      read_baseline(path, "baseline gate (sim)");
  if (!base) return false;
  bool ok = true;
  for (const Metric& m : ms) {
    const double floor = base->number_field(m.name + "_floor");
    if (std::isnan(floor)) {
      std::printf("baseline gate: %s has no floor in %s (ungated)\n",
                  m.name.c_str(), path.c_str());
      continue;
    }
    const bool pass = m.events_per_sec() >= floor;
    std::printf(
        "baseline gate %s: metric %s: measured %.0f events/s vs floor %.0f "
        "(%+.1f%%)\n",
        pass ? "ok" : "REGRESSION", m.name.c_str(), m.events_per_sec(), floor,
        (m.events_per_sec() - floor) / floor * 100.0);
    json()
        .field("kind", "baseline_check")
        .field("metric", m.name)
        .field("measured_events_per_sec", m.events_per_sec())
        .field("floor_events_per_sec", floor)
        .field("ok", pass ? 1.0 : 0.0)
        .emit();
    ok = ok && pass;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  bench::init(&argc, argv, "sim");

  table_header("E17: simulator speed (simulated events per wall-second)");
  std::printf("%-16s %21s %12s %25s\n", "workload", "fired", "wall", "rate");

  // Two reps per metric, best-of: the first rep also pages everything
  // in, so best-of-2 is a cheap warm-cache number without a separate
  // warmup phase.
  const int reps = smoke ? 2 : 3;
  const int storm_chains = 256;
  const int storm_hops = smoke ? 4000 : 20000;
  std::vector<Metric> metrics;
  auto best_of = [&](auto fn) {
    Metric best = fn();
    for (int r = 1; r < reps; ++r) {
      Metric m = fn();
      RELYNX_ASSERT_MSG(m.events == best.events && m.checksum == best.checksum,
                        "sim workloads must be deterministic");
      if (m.events_per_sec() > best.events_per_sec()) best = m;
    }
    return best;
  };

  metrics.push_back(
      best_of([&] { return run_storm(bench::seed(), storm_chains, storm_hops); }));
  metrics.push_back(best_of(
      [&] { return run_cancel_storm(bench::seed(), storm_chains, storm_hops / 2); }));
  metrics.push_back(best_of([&] {
    return run_fanin_storm(bench::seed(), 4096, smoke ? 500 : 2500);
  }));
  metrics.push_back(best_of(
      [&] { return run_sparse(bench::seed(), storm_chains, storm_hops); }));
  for (const Metric& m : metrics) report(m);

  bool gate_ok = true;
  for (const std::string& path : baseline_paths()) {
    gate_ok = baseline_gate(path, metrics) && gate_ok;
  }

  return gate_ok ? 0 : 1;
}
