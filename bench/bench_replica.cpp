// E15: the replicated KV service — commit latency, throughput, and
// fail-over recovery per substrate (DESIGN.md §13).
//
// The paper ranks the kernels by single-RPC latency; replication asks
// the compound question: a committed write is one client RPC *plus* a
// sequential fan-out RPC per backup, so the substrate ordering should
// survive — amplified — in commit latency.  A clean closed-loop run
// measures commit (write) and read latency distributions and delivered
// throughput on each substrate; a crash run then measures what
// fail-over costs: the gap between the primary's crash and the first
// commit of the successor's view.
//
// Flags (bench::init): --json-out, --trace-out, --seed, plus --smoke
// for the CI-sized version and --baseline=PATH to gate the Charlotte
// smoke commit p50 against bench/baselines/replica.json: exits nonzero
// when the measured latency climbs more than 10% above the baseline,
// so CI catches an ack-protocol or replication-path slowdown at the PR.
#include <optional>

#include "harness.hpp"
#include "replica/replica.hpp"

namespace {

using namespace bench;

replica::Options base_options(bool smoke) {
  replica::Options o;
  o.replicas = 3;
  o.clients = smoke ? 2 : 4;
  o.ops_per_client = smoke ? 8 : 24;
  o.keys = 4;
  o.seed = bench::seed();
  return o;
}

// ---- clean commits ---------------------------------------------------------

// Returns the Charlotte commit p50 (ms) for the baseline gate.
double commit_report(bool smoke) {
  table_header("E15: replicated commit latency and throughput (3 replicas)");
  std::printf("%-10s %10s %10s %10s %10s %12s\n", "backend", "commit p50",
              "commit p99", "read p50", "read p99", "delivered/s");
  double charlotte_p50 = 0;
  for (load::Substrate sub : load::all_substrates()) {
    sim::Engine engine;
    replica::Group g(engine, sub, base_options(smoke));
    engine.run();
    const replica::Metrics& m = g.metrics();
    RELYNX_ASSERT_MSG(m.err == 0, "clean replica run must not error");
    const double wp50 = m.write_latency.quantile(0.50) / 1000.0;
    const double wp99 = m.write_latency.quantile(0.99) / 1000.0;
    const double rp50 = m.read_latency.quantile(0.50) / 1000.0;
    const double rp99 = m.read_latency.quantile(0.99) / 1000.0;
    const double secs = sim::to_usec(engine.now()) / 1e6;
    const double tput = secs > 0 ? static_cast<double>(m.ok) / secs : 0;
    if (sub == load::Substrate::kCharlotte) charlotte_p50 = wp50;
    std::printf("%-10s %10.2f %10.2f %10.2f %10.2f %12.1f\n",
                load::to_string(sub), wp50, wp99, rp50, rp99, tput);
    json()
        .field("kind", "commit")
        .field("backend", load::to_string(sub))
        .field("commit_p50_ms", wp50)
        .field("commit_p99_ms", wp99)
        .field("read_p50_ms", rp50)
        .field("read_p99_ms", rp99)
        .field("throughput", tput)
        .field("ops", static_cast<double>(m.ok))
        .emit();
  }
  print_note("a commit is 1 client RPC + 2 sequential backup RPCs: the");
  print_note("paper's single-RPC substrate ordering survives, roughly x3.");
  return charlotte_p50;
}

// ---- fail-over -------------------------------------------------------------

void failover_report(bool smoke) {
  table_header("E15: primary fail-over (crash mid-stream, bounce back)");
  std::printf("%-10s %12s %10s %10s %10s\n", "backend", "recovery ms", "ok",
              "err", "view");
  for (load::Substrate sub : load::all_substrates()) {
    sim::Engine engine;
    replica::Options o = base_options(smoke);
    const replica::FaultTimes ft = replica::fault_times(sub);
    o.crash_primary_at = ft.crash;
    o.restart_primary_at = ft.restart;
    replica::Group g(engine, sub, o);
    const bool finished = engine.run_until(sim::sec(120));
    RELYNX_ASSERT_MSG(finished, "fail-over run must quiesce");
    const auto recovery = g.failover_recovery();
    RELYNX_ASSERT_MSG(recovery.has_value(), "fail-over must have happened");
    const double rec_ms = sim::to_usec(*recovery) / 1000.0;
    std::printf("%-10s %12.2f %10llu %10llu %10llu\n", load::to_string(sub),
                rec_ms, static_cast<unsigned long long>(g.metrics().ok),
                static_cast<unsigned long long>(g.metrics().err),
                static_cast<unsigned long long>(g.view()));
    json()
        .field("kind", "failover")
        .field("backend", load::to_string(sub))
        .field("recovery_ms", rec_ms)
        .field("ok", static_cast<double>(g.metrics().ok))
        .field("err", static_cast<double>(g.metrics().err))
        .emit();
  }
  print_note("recovery = first commit of the new view minus the crash");
  print_note("instant; dominated by crash detection plus one view rewire.");
}

// ---- baseline gate ---------------------------------------------------------

// Latency gate: fails when the measured Charlotte smoke commit p50
// climbs more than 10% ABOVE the checked-in baseline (lower is always
// fine; refreshing the baseline is a deliberate, reviewed act).
bool baseline_gate(const std::string& path, double measured_ms) {
  const std::optional<Baseline> base = read_baseline(path, "baseline gate");
  if (!base) return false;
  const double expected = base->number_field("commit_p50_ms");
  if (!(expected > 0)) {
    std::fprintf(stderr, "baseline gate: no commit_p50_ms in %s\n",
                 path.c_str());
    return false;
  }
  constexpr double kTolerance = 0.10;
  const double ceiling = expected * (1.0 + kTolerance);
  const bool ok = measured_ms <= ceiling;
  std::printf("baseline gate: charlotte commit p50 %.2f ms vs baseline "
              "%.2f ms (ceiling %.2f ms): %s\n",
              measured_ms, expected, ceiling, ok ? "ok" : "REGRESSION");
  json()
      .field("kind", "baseline_check")
      .field("backend", "charlotte")
      .field("measured_commit_p50_ms", measured_ms)
      .field("baseline_commit_p50_ms", expected)
      .field("tolerance", kTolerance)
      .field("ok", ok ? 1.0 : 0.0)
      .emit();
  return ok;
}

// ---- traced run ------------------------------------------------------------

void traced_run(bool smoke) {
  if (trace_out_path().empty()) return;
  sim::Engine engine;
  trace::Recorder rec(engine, 1u << 20);
  replica::Group g(engine, load::Substrate::kSoda, base_options(smoke));
  engine.run();
  if (trace::write_chrome_trace_file(rec, trace_out_path())) {
    std::printf("replicated SODA run (%llu commits) traced to %s\n",
                static_cast<unsigned long long>(g.metrics().ok),
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
    argv[kept++] = argv[i];
  }
  argc = kept;
  bench::init(&argc, argv, "replica");

  const double charlotte_p50 = commit_report(smoke);
  failover_report(smoke);
  traced_run(smoke);

  bool gate_ok = true;
  for (const std::string& path : baseline_paths()) {
    gate_ok = baseline_gate(path, charlotte_p50) && gate_ok;
  }

  return gate_ok ? 0 : 1;
}
