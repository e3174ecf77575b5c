// Heap allocations per checked call when the reference model replays a
// passing run, with a ceiling.
//
// This executable replaces the global operator new with a counting one
// (which is why it is its own binary).  It traces the explorer's echo
// pair — one client, one server, two channels, 32 B at 10 req/s — for a
// 20 s window on each substrate, then counts the allocations of one
// ReferenceModel::replay over the finished stream.  A passing replay
// keeps small fixed-size context entries and renders no text, so its
// cost is the snapshot (one vector, the ring copied from its oldest
// record in two runs) and the per-trace and per-span tables; a change
// that goes back to formatting each record (or copying label strings
// per record) multiplies the count.  The ceiling sits a little
// above the current count; lower it when a change cuts more.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "check/reference_model.hpp"
#include "load/runner.hpp"
#include "trace/trace.hpp"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace check {
namespace {

load::Scenario echo_pair() {
  load::Scenario sc;
  sc.name = "echo-pair";
  sc.clients = 1;
  sc.servers = 1;
  sc.channels_per_client = 2;
  sc.arrival = load::Arrival::kOpenPoisson;
  sc.offered_rate = 10.0;
  sc.mix = {{32, 32, 1.0}};
  sc.warmup = sim::sec(1);
  sc.measure = sim::sec(20);
  sc.drain = sim::sec(2);
  sc.seed = 7;
  return sc;
}

double allocations_per_checked_call(load::Substrate substrate) {
  load::Runner runner(substrate, echo_pair());
  trace::Recorder rec(runner.engine(), std::size_t{1} << 16);
  (void)runner.run();
  EXPECT_EQ(rec.overwritten(), 0u);

  Expectation expect;
  expect.require_completion = false;  // the hard end cuts calls off
  expect.allowed_errors = {lynx::ErrorKind::kLinkDestroyed};
  ReferenceModel model(expect);
  const std::uint64_t before = g_allocations;
  const bool conforms = model.replay(rec);
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_TRUE(conforms) << model.divergence()->render();
  EXPECT_GT(model.calls_checked(), 100u);
  const double per_call = static_cast<double>(allocations) /
                          static_cast<double>(model.calls_checked());
  ::testing::Test::RecordProperty("allocations_per_checked_call",
                                  std::to_string(per_call));
  return per_call;
}

constexpr double kCeiling = 10.0;  // 7.8 / 8.0 / 8.1 measured

TEST(ReplayAllocCount, CharlotteReplayStaysUnderCeiling) {
  EXPECT_LE(allocations_per_checked_call(load::Substrate::kCharlotte),
            kCeiling);
}

TEST(ReplayAllocCount, SodaReplayStaysUnderCeiling) {
  EXPECT_LE(allocations_per_checked_call(load::Substrate::kSoda), kCeiling);
}

TEST(ReplayAllocCount, ChrysalisReplayStaysUnderCeiling) {
  EXPECT_LE(allocations_per_checked_call(load::Substrate::kChrysalis),
            kCeiling);
}

}  // namespace
}  // namespace check
