// E7 (paper §5.3): Chrysalis remote-operation latency.
//
//   "a simple remote operation requires about 2.4 ms with no data
//    transfer and about 4.6 ms with 1000 bytes of parameters in both
//    directions.  Code tuning and protocol optimizations now under
//    development are likely to improve both figures by 30 to 40%."
//
// Also checks the >10x gap to Charlotte that the paper highlights
// ("Message transmission times are also faster on the Butterfly, by
// more than an order of magnitude").
#include "harness.hpp"

namespace {

using namespace bench;
using load::Substrate;

// The default pair with the microcode-adjacent kernel op costs and the
// run-time package's per-operation overhead scaled by `s`.
load::UniverseSpec tuned_spec(double s) {
  const auto f = [s](sim::Duration d) {
    return static_cast<sim::Duration>(static_cast<double>(d) * s);
  };
  load::UniverseSpec spec = pair_spec(Substrate::kChrysalis);
  chrysalis::Costs& c = spec.chrysalis;
  c.primitive_call = f(c.primitive_call);
  c.event_post = f(c.event_post);
  c.event_wait = f(c.event_wait);
  c.dq_enqueue = f(c.dq_enqueue);
  c.dq_dequeue = f(c.dq_dequeue);
  lynx::RuntimeCosts rc = lynx::mc68000_runtime_costs();
  rc.per_operation = f(rc.per_operation);
  spec.runtime = rc;
  return spec;
}

double chrysalis_ms(std::size_t bytes, double tuning_scale = 1.0) {
  Pair w(tuned_spec(tuning_scale));
  return lynx_rpc_ms(w, bytes);
}

void report() {
  const double null_ms = chrysalis_ms(0);
  const double kb_ms = chrysalis_ms(1000);
  // "code tuning and protocol optimizations" — the ablation scales the
  // microcode-adjacent op costs and the run-time package overhead by
  // 0.65 (a 35% improvement, the middle of the paper's 30-40% band).
  const double tuned_null = chrysalis_ms(0, 0.65);
  const double tuned_kb = chrysalis_ms(1000, 0.65);

  Pair cw(Substrate::kCharlotte);
  const double charlotte_null = lynx_rpc_ms(cw, 0);

  table_header("E7: Chrysalis simple remote operation (paper §5.3)");
  print_rows({
      {"LYNX remote op, no data", 2.4, null_ms, "ms"},
      {"LYNX remote op, 1000 B both ways", 4.6, kb_ms, "ms"},
      {"tuned (-35%), no data", 2.4 * 0.65, tuned_null, "ms"},
      {"tuned (-35%), 1000 B both ways", 4.6 * 0.65, tuned_kb, "ms"},
      {"Charlotte/Chrysalis null-op ratio (>10x)", 57.0 / 2.4,
       charlotte_null / null_ms, "x"},
  });
  print_note("shape checks: ~2.4/4.6 ms band; order-of-magnitude faster");
  print_note("than Charlotte; tuning knob moves both figures 30-40%.");

  Pair tw(Substrate::kChrysalis);
  traced_phase_report(tw, "E7 Chrysalis RPC (1000 B both ways)", 1000);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(&argc, argv, "chrysalis_rpc");
  report();
  return 0;
}
