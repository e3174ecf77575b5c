// E12: capacity — throughput–latency curves and saturation search.
//
// The paper ranks the kernels by single-RPC latency; this bench asks
// the follow-up question a server workload cares about: how much
// offered load does each kernel *sustain*?  An open-loop Poisson
// generator (coordinated-omission-correct; src/load/) sweeps a shared
// offered-rate grid on every substrate, producing one throughput and
// one latency-tail series per kernel, and load::find_capacity bisects
// each kernel's knee.  A payload sweep under overload then reruns E5's
// SODA-vs-Charlotte break-even in throughput terms.
//
// Flags (bench::init): --json-out, --trace-out, --seed, plus --smoke
// for the CI-sized version (short windows, 3 rates) and a repeatable
// --baseline=PATH to compare a kernel's measured peak against a
// checked-in baseline (bench/baselines/); each file's own "backend"
// field picks the kernel it gates.  Exits nonzero on a >10%
// regression, so CI catches an ack-protocol slowdown — on any
// substrate — at the PR.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "charlotte/types.hpp"
#include "harness.hpp"
#include "load/load.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "soda/types.hpp"

namespace {

using namespace bench;

// p99 bound for the knee report: late enough that every kernel's
// uncontended tail (Charlotte's ~57 ms included) sits far below it.
constexpr double kKneeBoundMs = 250.0;

// --formation=on arms RPC formation (src/form/, DESIGN.md §14) in every
// scenario this bench runs; the scenario name gains a "+form" suffix so
// curve JSON from the two modes never collides, and the baseline gate
// (calibrated formation-off) refuses to gate a formation run.
bool g_formation = false;
constexpr sim::Duration kFormDelay = sim::msec(2);

load::Scenario base_scenario(bool smoke) {
  load::Scenario sc;
  sc.name = g_formation ? "fan-in-4x1+form" : "fan-in-4x1";
  sc.clients = 4;
  sc.servers = 1;
  sc.arrival = load::Arrival::kOpenPoisson;
  sc.mix = {{64, 64, 1.0}};
  sc.seed = bench::seed();
  if (g_formation) sc.form_delay = kFormDelay;
  if (smoke) {
    sc.warmup = sim::msec(250);
    sc.measure = sim::sec(1);
    sc.drain = sim::msec(500);
  } else {
    sc.warmup = sim::sec(1);
    sc.measure = sim::sec(4);
    sc.drain = sim::sec(2);
  }
  return sc;
}

void emit_point(const char* kind, const load::Report& r, double rate) {
  json()
      .field("kind", kind)
      .field("backend", r.backend)
      .field("scenario", r.scenario)
      .field("offered_rate", rate)
      .field("throughput", r.throughput)
      .field("p50_ms", r.p50_ms)
      .field("p99_ms", r.p99_ms)
      .field("samples", r.samples)
      .field("dropped", r.dropped)
      .field("backlog_end", r.backlog_end)
      .field("wire_ops", r.wire_ops)
      .field("frames_per_op", r.frames_per_op)
      .emit();
}

// ---- throughput–latency curves --------------------------------------------

void curves_report(bool smoke, sweep::ThreadPool& pool) {
  const std::vector<double> rates =
      smoke ? std::vector<double>{8, 32, 128}
            : std::vector<double>{4, 8, 16, 32, 64, 128, 256, 512};
  table_header("E12: throughput-latency curves (open-loop Poisson, 64 B)");
  std::printf("%-10s %-10s %12s %12s %12s %10s\n", "backend", "rate",
              "delivered/s", "p50 ms", "p99 ms", "backlog");

  sim::Series bound("p99-bound");
  for (double r : rates) bound.add(r, kKneeBoundMs);

  for (load::Substrate sub : load::all_substrates()) {
    const auto reports = sweep::map(
        rates,
        [sub, smoke](const double& rate) {
          load::Scenario sc = base_scenario(smoke);
          sc.offered_rate = rate;
          return load::run_scenario(sub, sc);
        },
        pool);
    sim::Series p99(std::string(to_string(sub)) + "-p99");
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const auto& r = reports[i];
      std::printf("%-10s %-10.0f %12.1f %12.2f %12.2f %10ld\n",
                  r.backend.c_str(), rates[i], r.throughput, r.p50_ms,
                  r.p99_ms, static_cast<long>(r.backlog_end));
      emit_point("curve", r, rates[i]);
      p99.add(rates[i], r.p99_ms);
    }
    // Series::crossover_x against the flat bound: the offered rate at
    // which this kernel's tail blows through 250 ms.
    const double knee = p99.crossover_x(bound);
    if (std::isnan(knee)) {
      std::printf("%-10s knee: p99 stays under %.0f ms on this grid\n",
                  to_string(sub), kKneeBoundMs);
    } else {
      std::printf("%-10s knee: p99 crosses %.0f ms near %.1f req/s\n",
                  to_string(sub), kKneeBoundMs, knee);
      json()
          .field("kind", "knee")
          .field("backend", to_string(sub))
          .field("p99_bound_ms", kKneeBoundMs)
          .field("knee_rate", knee)
          .emit();
    }
  }
}

// ---- saturation search -----------------------------------------------------

// The protocol knobs each substrate ran with, recorded alongside every
// peak so a baseline JSON is self-describing: a reviewer diffing a
// refreshed baseline sees *which* knob moved with the number.  Values
// mirror what load::Runner configures — default kernel cost structs plus
// the scenario's formation window.
void emit_capacity_knobs(load::Substrate sub, const load::Scenario& sc) {
  auto j = json();
  j.field("kind", "capacity_knobs").field("backend", to_string(sub));
  j.field("form_delay_ms", sim::to_msec(sc.form_delay));
  switch (sub) {
    case load::Substrate::kCharlotte: {
      const charlotte::Costs c;
      j.field("send_retransmit_timeout_ms",
              sim::to_msec(c.send_retransmit_timeout))
          .field("ack_coalesce_delay_ms", sim::to_msec(c.ack_coalesce_delay))
          .field("rto_min_ms", sim::to_msec(c.rto_min))
          .field("rto_max_ms", sim::to_msec(c.rto_max));
      break;
    }
    case load::Substrate::kSoda: {
      const soda::Costs c;
      j.field("ack_timeout_ms", sim::to_msec(c.ack_timeout))
          .field("ack_coalesce_delay_ms", sim::to_msec(c.ack_coalesce_delay))
          .field("rto_min_ms", sim::to_msec(c.rto_min))
          .field("rto_max_ms", sim::to_msec(c.rto_max));
      break;
    }
    case load::Substrate::kChrysalis: {
      const lynx::ChrysalisBackendParams p;
      j.field("consumed_coalesce_delay_ms",
              sim::to_msec(p.consumed_coalesce_delay));
      break;
    }
  }
  j.emit();
}

// Measured peak delivered/s per substrate, for the baseline gates.
struct CapacityPeaks {
  double throughput[3] = {0, 0, 0};
  [[nodiscard]] double of(load::Substrate sub) const {
    return throughput[static_cast<int>(sub)];
  }
};

CapacityPeaks capacity_report(bool smoke, sweep::ThreadPool& pool) {
  table_header("E12: peak sustainable throughput (load::find_capacity)");
  std::printf("%-10s %12s %12s %14s\n", "backend", "peak rate", "delivered/s",
              "p99 bound ms");
  double peaks[3] = {0, 0, 0};
  CapacityPeaks out;
  for (load::Substrate sub : load::all_substrates()) {
    load::CapacityParams p;
    p.rate_lo = smoke ? 8.0 : 4.0;
    p.refine_iters = smoke ? 2 : 5;
    p.pool = &pool;  // ladder probes fan out; the curve is bit-identical
    const load::CapacityResult cap =
        load::find_capacity(sub, base_scenario(smoke), p);
    peaks[static_cast<int>(sub)] = cap.peak_rate;
    out.throughput[static_cast<int>(sub)] = cap.peak_throughput;
    std::printf("%-10s %12.1f %12.1f %14.2f\n", to_string(sub), cap.peak_rate,
                cap.peak_throughput, cap.p99_bound_ms);
    json()
        .field("kind", "capacity")
        .field("backend", to_string(sub))
        .field("peak_rate", cap.peak_rate)
        .field("peak_throughput", cap.peak_throughput)
        .field("p99_bound_ms", cap.p99_bound_ms)
        .emit();
    emit_capacity_knobs(sub, base_scenario(smoke));
    for (const auto& pt : cap.curve) emit_point("probe", pt.report, pt.rate);
  }
  if (!g_formation) {
    // Formation shifts both kernels' knees (batching trades latency for
    // frames), so the paper-ordering invariant is only asserted on the
    // frame-per-message wire the paper describes.
    RELYNX_ASSERT_MSG(
        peaks[static_cast<int>(load::Substrate::kSoda)] >
            peaks[static_cast<int>(load::Substrate::kCharlotte)],
        "SODA must out-sustain Charlotte (paper latency ordering)");
    print_note("every peak is finite, and SODA sustains more than Charlotte —");
    print_note("the paper's latency ordering carries over to capacity.");
  }
  return out;
}

// ---- E16: formation ablation at pipeline depth 8 ---------------------------

// The formation layer's target workload: one client keeps 8 concurrent
// calls in flight on independent channels to one server (closed loop,
// zero think — RPC pipelining at depth 8), so both directions of the
// single client<->server pair carry two co-destined small frames per
// op.  The ablation runs every substrate with formation off and on and
// reports the frames-per-delivered-message ratio — the ISSUE's
// acceptance bar is >= 2x fewer wire frames per op at this depth.
//
// The formation window is matched per substrate to the kernel's frame
// service timescale; a window far below it never sees a second
// co-destined frame, and a window far above it starves the transport
// (SODA retransmits, Charlotte idles the token):
//   * Charlotte: 20 ms ~ one token rotation of the loaded ring — frames
//     queue behind the token anyway, so forming is nearly free and
//     batches span ops (measured ~2.9x).
//   * SODA: 5 ms, under the transport RTO (12 ms) so held frames never
//     masquerade as loss.  Each op's accept+reply (and reply-accept +
//     next request) pair per direction: exactly 2x.
//   * Chrysalis: 10 ms ~ the pump's service time for a full window of
//     8 ops.  Consume-ack + reply notices pair per direction: 2x.
sim::Duration form_delay_for(load::Substrate sub) {
  switch (sub) {
    case load::Substrate::kCharlotte: return sim::msec(20);
    case load::Substrate::kSoda: return sim::msec(5);
    case load::Substrate::kChrysalis: return sim::msec(10);
  }
  return kFormDelay;
}

load::Scenario depth8_scenario(bool smoke, load::Substrate sub,
                               bool formation) {
  load::Scenario sc = base_scenario(smoke);
  sc.name = formation ? "depth8+form" : "depth8";
  sc.clients = 1;
  sc.servers = 1;
  sc.channels_per_client = 8;
  sc.arrival = load::Arrival::kClosed;
  sc.think = 0;
  sc.form_delay = formation ? form_delay_for(sub) : sim::Duration(0);
  return sc;
}

void formation_report(bool smoke, sweep::ThreadPool& pool) {
  table_header("E16: RPC formation on/off (closed loop, pipeline depth 8)");
  std::printf("%-10s %-6s %12s %10s %10s %12s %10s\n", "backend", "form",
              "delivered/s", "p50 ms", "p99 ms", "frames/op", "ratio");
  const std::vector<int> modes = {0, 1};
  for (load::Substrate sub : load::all_substrates()) {
    const auto reports = sweep::map(
        modes,
        [sub, smoke](const int& on) {
          return load::run_scenario(sub, depth8_scenario(smoke, sub, on != 0));
        },
        pool);
    const load::Report& off = reports[0];
    const load::Report& on = reports[1];
    const double ratio =
        on.frames_per_op > 0 ? off.frames_per_op / on.frames_per_op : 0.0;
    for (const int mode : modes) {
      const load::Report& r = reports[static_cast<std::size_t>(mode)];
      char ratio_col[16] = "-";
      if (mode != 0) std::snprintf(ratio_col, sizeof ratio_col, "%.2fx", ratio);
      std::printf("%-10s %-6s %12.1f %10.2f %10.2f %12.3f %10s\n",
                  r.backend.c_str(), mode != 0 ? "on" : "off", r.throughput,
                  r.p50_ms, r.p99_ms, r.frames_per_op, ratio_col);
      emit_point(mode != 0 ? "formation-on" : "formation-off", r, 0.0);
    }
    json()
        .field("kind", "formation_ablation")
        .field("backend", off.backend)
        .field("form_delay_ms", sim::to_msec(form_delay_for(sub)))
        .field("frames_per_op_off", off.frames_per_op)
        .field("frames_per_op_on", on.frames_per_op)
        .field("frame_ratio", ratio)
        .field("throughput_off", off.throughput)
        .field("throughput_on", on.throughput)
        .emit();
  }
  print_note("frames/op counts wire frames (Charlotte/SODA medium frames,");
  print_note("Chrysalis dual-queue enqueue calls) per delivered reply; the");
  print_note("ratio column is the off/on frame saving from batching.");
}

// ---- baseline gate ---------------------------------------------------------

// Compares one substrate's measured peak against its checked-in
// baseline.  Returns false (CI failure) on a >10% throughput
// regression.  Better peaks pass with a note: refreshing the baseline
// file is a deliberate, reviewed act, not something a lucky run does
// implicitly.  Pass or fail, the verdict line names the backend, the
// scenario, the metric, and the signed delta, so a red CI log says
// *what* regressed without opening JSON.
bool baseline_gate(const Baseline& base, const char* backend,
                   double measured) {
  const double expected = base.number_field("peak_throughput");
  if (!(expected > 0)) {
    std::fprintf(stderr, "baseline gate (%s): no peak_throughput metric in %s\n",
                 backend, base.path.c_str());
    return false;
  }
  std::string scenario = base.string_field("scenario");
  if (scenario.empty()) scenario = "(unnamed)";
  constexpr double kTolerance = 0.10;
  const double floor = expected * (1.0 - kTolerance);
  const double delta_pct = (measured - expected) / expected * 100.0;
  const bool ok = measured >= floor;
  std::printf(
      "baseline gate %s: scenario %s, metric peak_throughput (%s): "
      "measured %.2f/s vs baseline %.2f/s, delta %+.1f%% "
      "(tolerance -%.0f%%, floor %.2f/s)\n",
      ok ? "ok" : "REGRESSION", scenario.c_str(), backend, measured, expected,
      delta_pct, kTolerance * 100.0, floor);
  json()
      .field("kind", "baseline_check")
      .field("backend", backend)
      .field("scenario", scenario)
      .field("metric", "peak_throughput")
      .field("measured_peak_throughput", measured)
      .field("baseline_peak_throughput", expected)
      .field("delta_pct", delta_pct)
      .field("tolerance", kTolerance)
      .field("ok", ok ? 1.0 : 0.0)
      .emit();
  return ok;
}

// ---- payload break-even under load (E5 revisited) --------------------------

void payload_report(bool smoke, sweep::ThreadPool& pool) {
  const std::vector<double> payloads =
      smoke ? std::vector<double>{0, 2048, 4096}
            : std::vector<double>{0, 512, 1024, 2048, 3072, 4096};
  // Overload both kernels (both saturate well under 120 req/s) and
  // compare *delivered* throughput: E5's latency break-even, re-asked
  // as "which kernel moves more requests per second at this size?".
  auto delivered = [smoke, &pool, &payloads](load::Substrate sub) {
    return sweep::map(
        payloads,
        [sub, smoke](const double& payload) {
          load::Scenario sc = base_scenario(smoke);
          sc.arrival = load::Arrival::kOpenDeterministic;
          sc.offered_rate = 120.0;
          sc.max_backlog_per_client = 256;
          sc.mix = {{static_cast<std::size_t>(payload), 16, 1.0}};
          return load::run_scenario(sub, sc);
        },
        pool);
  };
  const auto soda = delivered(load::Substrate::kSoda);
  const auto charlotte = delivered(load::Substrate::kCharlotte);

  table_header("E12: delivered throughput vs payload at 120 req/s offered");
  std::printf("%-10s %14s %14s\n", "payload", "soda /s", "charlotte /s");
  sim::Series soda_s("soda"), charl_s("charlotte");
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    std::printf("%-10.0f %14.1f %14.1f\n", payloads[i], soda[i].throughput,
                charlotte[i].throughput);
    soda_s.add(payloads[i], soda[i].throughput);
    charl_s.add(payloads[i], charlotte[i].throughput);
    json()
        .field("kind", "payload")
        .field("payload", payloads[i])
        .field("soda_throughput", soda[i].throughput)
        .field("charlotte_throughput", charlotte[i].throughput)
        .emit();
  }
  const double cross = soda_s.crossover_x(charl_s);
  if (std::isnan(cross)) {
    print_note("no break-even on this payload grid");
  } else {
    std::printf("break-even: Charlotte overtakes SODA near %.0f B\n", cross);
    json().field("kind", "breakeven").field("payload_bytes", cross).emit();
    print_note("the throughput twin of E5's latency break-even: SODA's");
    print_note("per-byte cost eventually hands large payloads to Charlotte.");
  }
}

// Sorts the --baseline files by the substrate their "backend" field
// names.  Returns false, after saying why, on an unreadable file, an
// unknown backend, or a second baseline for one backend.
bool resolve_baselines(std::optional<Baseline> (&gates)[3]) {
  for (const std::string& path : baseline_paths()) {
    std::optional<Baseline> base = read_baseline(path, "baseline gate");
    if (!base) return false;
    const std::string backend = base->string_field("backend");
    std::optional<Baseline>* slot = nullptr;
    for (load::Substrate sub : load::all_substrates()) {
      if (backend == to_string(sub)) slot = &gates[static_cast<int>(sub)];
    }
    if (slot == nullptr) {
      std::fprintf(stderr, "baseline gate: %s names unknown backend \"%s\"\n",
                   path.c_str(), backend.c_str());
      return false;
    }
    if (slot->has_value()) {
      std::fprintf(stderr,
                   "baseline gate: %s and %s are both baselines for backend "
                   "\"%s\"\n",
                   (*slot)->path.c_str(), path.c_str(), backend.c_str());
      return false;
    }
    *slot = std::move(base);
  }
  return true;
}

// ---- traced run ------------------------------------------------------------

void traced_run(bool smoke) {
  if (trace_out_path().empty()) return;
  load::Scenario sc = base_scenario(smoke);
  sc.offered_rate = 40.0;
  load::Runner runner(load::Substrate::kSoda, sc);
  trace::Recorder rec(runner.engine(), 1u << 20);
  const load::Report r = runner.run();
  if (trace::write_chrome_trace_file(rec, trace_out_path())) {
    std::printf("loaded SODA run (%.0f req/s, %ld samples) traced to %s\n",
                sc.offered_rate, static_cast<long>(r.samples),
                trace_out_path().c_str());
  }
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
    if (arg == "--formation=on" || arg == "--formation=off") {
      g_formation = arg == "--formation=on";
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  bench::init(&argc, argv, "capacity");
  // Indexed by load::Substrate.  The checked-in baselines measure the
  // frame-per-message wire, so a formation-on run gates nothing.
  std::optional<Baseline> gates[3];
  if (!g_formation && !resolve_baselines(gates)) return 1;

  sweep::ThreadPool pool;
  curves_report(smoke, pool);
  const CapacityPeaks peaks = capacity_report(smoke, pool);
  payload_report(smoke, pool);
  formation_report(smoke, pool);
  traced_run(smoke);

  if (g_formation && !baseline_paths().empty()) {
    // A formation-on peak is a different quantity and must not be gated
    // (or silently refreshed) against the formation-off baselines.
    print_note("baseline gate skipped: --formation=on changes the measured");
    print_note("quantity; the gate only runs on formation-off invocations.");
  }
  bool gate_ok = true;
  for (load::Substrate sub : load::all_substrates()) {
    const std::optional<Baseline>& base = gates[static_cast<int>(sub)];
    if (!base) continue;
    // Every configured gate runs and reports — a SODA regression is
    // named even when Charlotte also regressed.
    gate_ok = baseline_gate(*base, to_string(sub), peaks.of(sub)) && gate_ok;
  }

  return gate_ok ? 0 : 1;
}
