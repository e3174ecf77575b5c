// E5 (paper §4.3 + footnote 2): SODA vs Charlotte across message sizes.
//
//   "for small messages SODA was three times as fast as Charlotte.
//    The difference is less dramatic for larger messages: SODA's slow
//    network exacted a heavy toll.  The figures break even somewhere
//    between 1K and 2K bytes."
//
// Regenerates the figure-style series: latency vs payload for both
// substrates, the small-message speed ratio, and the crossover point.
// Sweep points run in parallel on the host (sweep::ThreadPool).
#include "harness.hpp"

namespace {

using namespace bench;
using load::Substrate;

double soda_ms(std::size_t bytes) {
  Pair w(Substrate::kSoda);
  return lynx_rpc_ms(w, bytes, 6);
}

double charlotte_ms(std::size_t bytes) {
  Pair w(Substrate::kCharlotte);
  return lynx_rpc_ms(w, bytes, 6);
}

void report() {
  const std::vector<std::size_t> sizes{0,    128,  256,  512, 768, 1024,
                                       1536, 2048, 3072, 4096};
  sweep::ThreadPool pool;
  auto soda = sweep::map(
      sizes, [](const std::size_t& b) { return soda_ms(b); }, pool);
  auto charlotte = sweep::map(
      sizes, [](const std::size_t& b) { return charlotte_ms(b); }, pool);

  sim::Series s_soda("soda"), s_charlotte("charlotte");
  table_header(
      "E5: SODA vs Charlotte, latency vs payload (paper §4.3 fn.2)");
  std::printf("%-12s %14s %14s %10s\n", "bytes/way", "charlotte ms",
              "soda ms", "winner");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    s_soda.add(static_cast<double>(sizes[i]), soda[i]);
    s_charlotte.add(static_cast<double>(sizes[i]), charlotte[i]);
    std::printf("%-12zu %14.2f %14.2f %10s\n", sizes[i], charlotte[i],
                soda[i], soda[i] < charlotte[i] ? "soda" : "charlotte");
  }

  const double ratio_small = charlotte[0] / soda[0];
  const double crossover = s_soda.crossover_x(s_charlotte);
  print_rows({
      {"small-message speedup (SODA vs Charlotte)", 3.0, ratio_small, "x"},
      {"break-even payload (paper: 1K..2K)", 1536.0, crossover, "bytes"},
  });
  print_note("shape checks: SODA ~3x faster near 0 B; Charlotte wins for");
  print_note("large payloads because SODA's 1 Mb/s bus dominates; the");
  print_note("crossover falls inside the paper's 1K-2K band.");

  Pair tw(Substrate::kSoda);
  traced_phase_report(tw, "E5 SODA RPC (null op)", 0, 6);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(&argc, argv, "soda_vs_charlotte");
  report();
  return 0;
}
