// The engine's protocol counts table (src/sim/counts.hpp), read over each
// substrate's echo pair: one load::Runner client (node 1) calling one
// server (node 0) in a closed loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

#include "load/runner.hpp"
#include "sim/counts.hpp"
#include "sim/engine.hpp"

namespace load {
namespace {

using Field = std::uint64_t sim::Counts::*;

Scenario echo_pair() {
  Scenario sc;
  sc.name = "echo-pair";
  sc.clients = 1;
  sc.servers = 1;
  sc.warmup = sim::msec(100);
  sc.measure = sim::msec(500);
  sc.drain = sim::msec(500);
  return sc;
}

TEST(Counts, FreshEngineReadsZero) {
  sim::Engine e;
  EXPECT_EQ(e.total(&sim::Counts::frames_sent), 0u);
  EXPECT_EQ(e.total(&sim::Counts::operations_completed), 0u);
  EXPECT_EQ(e.counts(3), sim::Counts{});
  EXPECT_EQ(e.total(&sim::Counts::frames_sent), 0u);  // growing adds no tally
}

TEST(Counts, EchoPairKeepsEachNodesTableAndTheirTotal) {
  for (const Substrate sub : all_substrates()) {
    SCOPED_TRACE(to_string(sub));
    const Scenario sc = echo_pair();
    Runner runner(sub, sc);
    sim::Engine& e = runner.engine();
    // Read the wire tallies at the measure window's edges.  Scheduled
    // before run() schedules its own reads at the same instants, each
    // fires just before the runner's, with no event in between.
    struct Edge {
      std::uint64_t frames = 0;
      std::uint64_t enqueues = 0;
    } start, end;
    auto read = [&e](Edge* edge) {
      edge->frames = e.total(&sim::Counts::frames_sent);
      edge->enqueues = e.total(&sim::Counts::enqueue_calls);
    };
    const sim::Time t0 = e.now();
    e.schedule_at(t0 + sc.warmup, [&] { read(&start); });
    e.schedule_at(t0 + sc.warmup + sc.measure, [&] { read(&end); });
    const Report r = runner.run();
    ASSERT_GT(r.completed, 0);

    // The client's node and the server's node keep separate tables, and
    // each side's wire work is counted at its own node.
    const sim::Counts& server = e.counts(0);
    const sim::Counts& client = e.counts(1);
    const Field wire = sub == Substrate::kChrysalis
                           ? &sim::Counts::enqueue_calls
                           : &sim::Counts::frames_sent;
    EXPECT_NE(server, client);
    EXPECT_GT(server.operations_completed, 0u);
    EXPECT_GT(client.operations_completed, 0u);
    EXPECT_GT(server.*wire, 0u);
    EXPECT_GT(client.*wire, 0u);
    if (sub == Substrate::kCharlotte) {
      EXPECT_GT(client.requests_sent, 0u);
      EXPECT_EQ(server.requests_sent, 0u);
      EXPECT_GT(server.replies_sent, 0u);
      EXPECT_EQ(client.replies_sent, 0u);
    }

    // total() is their sum: nothing is counted on any other node.
    for (const Field f :
         {&sim::Counts::frames_sent, &sim::Counts::bytes_sent,
          &sim::Counts::frames_emitted, &sim::Counts::enqueue_calls,
          &sim::Counts::microcode_ops, &sim::Counts::operations_completed,
          &sim::Counts::packets_sent}) {
      EXPECT_EQ(e.total(f), server.*f + client.*f);
    }

    // The runner's wire ops are the medium's frames on Charlotte and
    // SODA, and the enqueue dispatches on Chrysalis (which has no wire).
    EXPECT_GT(r.wire_ops, 0);
    const auto frames = static_cast<std::int64_t>(end.frames - start.frames);
    const auto enqueues =
        static_cast<std::int64_t>(end.enqueues - start.enqueues);
    if (sub == Substrate::kChrysalis) {
      EXPECT_EQ(r.wire_ops, enqueues);
      EXPECT_EQ(e.total(&sim::Counts::frames_sent), 0u);
    } else {
      EXPECT_EQ(r.wire_ops, frames);
      EXPECT_EQ(e.total(&sim::Counts::enqueue_calls), 0u);
    }
  }
}

}  // namespace
}  // namespace load
