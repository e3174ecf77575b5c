// Engine events per RPC on SODA, with a ceiling.
//
// Simulated results do not depend on how many engine events the
// simulator spends producing them, so nothing else would notice a
// change that brings back per-retry backoff events on the CSMA bus, a
// second event per unicast frame, or a timer-and-coroutine pair per
// admission refusal — each of which costs host time on every SODA RPC.
// The runs are deterministic, so the counts are exact: the ceilings sit
// just above the current counts; lower them when a change cuts more.
// Each run starts measuring at time zero and stops issuing calls when
// the window closes, so nearly every event fired serves a counted RPC.
#include <gtest/gtest.h>

#include <string>

#include "load/load.hpp"
#include "sim/engine.hpp"

namespace load {
namespace {

double events_per_rpc(const Scenario& sc) {
  Runner runner(Substrate::kSoda, sc);
  const Report rep = runner.run();
  EXPECT_EQ(rep.errors, 0);
  EXPECT_GT(rep.completed, 0);
  const double per_rpc = static_cast<double>(runner.engine().events_fired()) /
                         static_cast<double>(rep.completed);
  ::testing::Test::RecordProperty("events_per_rpc", std::to_string(per_rpc));
  return per_rpc;
}

// perfbench's pipeline-bulk shape, shortened: a saturated closed loop
// of 16 clients through a 2-stage pipeline, 64 B / 1 KB / 1.8 KB bodies,
// formation on.  Saturation keeps the bus busy, so this is the regime
// where backoff chains are long.
TEST(EventCount, SodaPipelineStaysUnderCeiling) {
  Scenario sc;
  sc.name = "pipeline";
  sc.topology = Topology::kPipeline;
  sc.clients = 16;
  sc.servers = 2;
  sc.server_threads = 7;
  sc.channels_per_client = 2;
  sc.mix = {{64, 64, 1.0}, {1024, 1024, 1.0}, {1800, 1800, 1.0}};
  sc.form_delay = sim::msec(5);
  sc.warmup = 0;
  sc.measure = sim::sec(20);
  sc.drain = sim::sec(10);
  sc.seed = 7;
  // 137.6 measured; 219.4 when every backoff draw was an event.
  EXPECT_LE(events_per_rpc(sc), 140.0);
}

// perfbench's fanin-small shape, shortened: open-loop Poisson arrivals
// of 64 B RPCs from 64 clients into 16 servers, below SODA's knee.
TEST(EventCount, SodaFanInStaysUnderCeiling) {
  Scenario sc;
  sc.name = "fan-in";
  sc.clients = 64;
  sc.servers = 16;
  sc.arrival = Arrival::kOpenPoisson;
  sc.offered_rate = 200.0;
  sc.mix = {{64, 64, 1.0}};
  sc.warmup = 0;
  sc.measure = sim::sec(5);
  sc.drain = sim::sec(2);
  sc.seed = 7;
  // 41.1 measured; 50.8 when every backoff draw was an event.
  EXPECT_LE(events_per_rpc(sc), 42.0);
}

}  // namespace
}  // namespace load
