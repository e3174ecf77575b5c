// Ablations on the design choices DESIGN.md calls out: which resource
// actually dominates each substrate's latency?
//
//  A1  Charlotte ring speed: the paper's point that Charlotte is
//      *kernel-software-bound* — "Charlotte programmers made a
//      deliberate decision to sacrifice efficiency" — predicts that a
//      10x faster wire barely moves the null-RPC number.
//  A2  Charlotte kernel cost: scaling the kernel software costs moves
//      the number almost linearly (same prediction, other direction).
//  A3  SODA MTU: fragmentation sets SODA's large-message slope; growing
//      the MTU shifts the SODA/Charlotte crossover outward — the
//      break-even position is a *wire* property, not a protocol one.
#include "harness.hpp"

#include "common/assert.hpp"

namespace {

using namespace bench;

double charlotte_rpc_ms(std::size_t bytes, net::TokenRingParams ring,
                        charlotte::Costs costs) {
  load::UniverseSpec spec = pair_spec(load::Substrate::kCharlotte);
  spec.ring = ring;
  spec.charlotte = costs;
  Pair w(spec);
  return lynx_rpc_ms(w, bytes, 6);
}

double soda_rpc_ms(std::size_t bytes, std::size_t mtu) {
  load::UniverseSpec spec = pair_spec(load::Substrate::kSoda);
  spec.nodes = 4;
  spec.seed = 3;
  spec.soda.mtu_bytes = mtu;
  Pair w(spec);
  return lynx_rpc_ms(w, bytes, 6);
}

charlotte::Costs scaled_charlotte(double s) {
  charlotte::Costs c;
  c.call_overhead =
      static_cast<sim::Duration>(static_cast<double>(c.call_overhead) * s);
  c.frame_processing = static_cast<sim::Duration>(
      static_cast<double>(c.frame_processing) * s);
  return c;
}

void report() {
  table_header("A1: Charlotte null RPC vs ring speed (kernel-bound?)");
  std::printf("%-22s %14s\n", "ring speed", "null RPC ms");
  double base = 0;
  for (std::int64_t mbit : {10, 100, 1000}) {
    net::TokenRingParams ring;
    ring.bits_per_second = mbit * 1'000'000;
    const double ms = charlotte_rpc_ms(0, ring, charlotte::Costs{});
    if (mbit == 10) base = ms;
    std::printf("%3lld Mb/s %28.2f\n", static_cast<long long>(mbit), ms);
  }
  {
    net::TokenRingParams ring;
    ring.bits_per_second = 1'000'000'000;
    const double fast = charlotte_rpc_ms(0, ring, charlotte::Costs{});
    print_note("a 100x faster wire changes the null RPC by " +
               std::to_string(100.0 * (base - fast) / base) +
               "% - the kernel software dominates (paper §3.3/§6).");
    RELYNX_ASSERT((base - fast) / base < 0.10);
  }

  table_header("A2: Charlotte null RPC vs kernel software cost");
  std::printf("%-22s %14s\n", "kernel cost scale", "null RPC ms");
  double slow = 0, quick = 0;
  for (double s : {1.0, 0.5, 0.25}) {
    const double ms =
        charlotte_rpc_ms(0, net::TokenRingParams{}, scaled_charlotte(s));
    if (s == 1.0) slow = ms;
    if (s == 0.25) quick = ms;
    std::printf("%.2fx %30.2f\n", s, ms);
  }
  print_note("scaling the kernel software scales the latency almost");
  print_note("linearly - 'simple primitives are best' is also 'cheap");
  print_note("primitives are best'.");
  RELYNX_ASSERT(quick < 0.45 * slow);

  table_header("A3: SODA/Charlotte crossover vs SODA MTU");
  std::printf("%-10s %16s %16s %14s\n", "mtu", "soda @1KB ms",
              "soda @2KB ms", "crossover B");
  const double ch1k = charlotte_rpc_ms(1024, net::TokenRingParams{},
                                       charlotte::Costs{});
  const double ch2k = charlotte_rpc_ms(2048, net::TokenRingParams{},
                                       charlotte::Costs{});
  for (std::size_t mtu : {128u, 256u, 1024u}) {
    const double s1 = soda_rpc_ms(1024, mtu);
    const double s2 = soda_rpc_ms(2048, mtu);
    // linear interpolation of the crossover between 1KB and 2KB samples
    const double d1 = s1 - ch1k;
    const double d2 = s2 - ch2k;
    double cross = std::numeric_limits<double>::quiet_NaN();
    if (d1 < 0 && d2 > 0) {
      cross = 1024.0 + 1024.0 * (-d1) / (d2 - d1);
    } else if (d1 < 0 && d2 < 0) {
      cross = 2048.0;  // beyond the window
    } else if (d1 > 0) {
      cross = 1024.0;  // before the window
    }
    std::printf("%-10zu %16.2f %16.2f %14.0f\n", mtu, s1, s2, cross);
  }
  print_note("smaller fragments = more per-frame overhead = earlier");
  print_note("crossover; the break-even is a property of SODA's slow");
  print_note("wire and framing, exactly the paper's footnote 2.");
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(&argc, argv, "ablations");
  report();
  return 0;
}
