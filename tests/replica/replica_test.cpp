// The replicated KV service, unit level: clean commits on all three
// substrates, backup crash/restart catch-up, primary fail-over, and
// the planted stale-read bug being visible to the linearizability
// oracle (and invisible without the debug flag).
#include <gtest/gtest.h>


#include "check/linearizability.hpp"
#include "replica/replica.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace replica {
namespace {

TEST(Replica, CleanRunCommitsEverythingOnAllSubstrates) {
  for (load::Substrate s : load::all_substrates()) {
    sim::Engine engine;
    trace::Recorder rec(engine, 1u << 18);
    Options o;
    o.replicas = 3;
    o.clients = 2;
    o.ops_per_client = 6;
    Group g(engine, s, o);
    engine.run();
    EXPECT_EQ(g.metrics().ok, 12u) << load::to_string(s);
    EXPECT_EQ(g.metrics().err, 0u) << load::to_string(s);
    // Every backup applied every write (4 writes per client x 2).
    EXPECT_EQ(g.store(0).applied, 8u) << load::to_string(s);
    EXPECT_EQ(g.store(1).applied, 8u) << load::to_string(s);
    EXPECT_EQ(g.store(2).applied, 8u) << load::to_string(s);
    EXPECT_EQ(g.store(1).kv, g.store(0).kv) << load::to_string(s);
    EXPECT_EQ(g.store(2).kv, g.store(0).kv) << load::to_string(s);
    EXPECT_TRUE(g.thread_failures().empty()) << load::to_string(s);
    const check::LinVerdict lin = check::check_trace(rec);
    EXPECT_TRUE(lin.ok) << lin.failure;
    EXPECT_EQ(lin.ops_checked, 12u);
  }
}

TEST(Replica, PrimaryFailoverKeepsHistoryLinearizable) {
  for (load::Substrate s : load::all_substrates()) {
    sim::Engine engine;
    trace::Recorder rec(engine, 1u << 18);
    Options o;
    o.replicas = 3;
    o.clients = 2;
    o.ops_per_client = 6;
    const FaultTimes ft = fault_times(s);
    o.crash_primary_at = ft.crash;
    o.restart_primary_at = ft.restart;
    Group g(engine, s, o);
    const bool finished = engine.run_until(sim::sec(30));
    EXPECT_TRUE(finished) << load::to_string(s) << ": wedged";
    EXPECT_GE(g.view(), 1u) << load::to_string(s);
    EXPECT_NE(g.primary_index(), 0u) << load::to_string(s);
    // Progress resumed after the crash and clients finished their runs.
    EXPECT_GE(g.metrics().ok, 6u) << load::to_string(s);
    EXPECT_EQ(g.metrics().ok + g.metrics().err,
              static_cast<std::uint64_t>(o.clients * o.ops_per_client))
        << load::to_string(s);
    ASSERT_TRUE(g.failover_recovery().has_value()) << load::to_string(s);
    EXPECT_GT(*g.failover_recovery(), 0) << load::to_string(s);
    EXPECT_TRUE(g.thread_failures().empty()) << load::to_string(s);
    EXPECT_FALSE(g.invariant_violation().has_value())
        << *g.invariant_violation();
    // Every live replica converged on the new primary's state.
    const Store& p = g.store(g.primary_index());
    for (std::size_t i = 0; i < 3; ++i) {
      if (!g.alive(i)) continue;
      EXPECT_EQ(g.store(i).kv, p.kv) << load::to_string(s) << " node " << i;
    }
    const check::LinVerdict lin = check::check_trace(rec);
    EXPECT_TRUE(lin.ok) << load::to_string(s) << ": " << lin.failure;
  }
}

TEST(Replica, BackupBounceCatchesUpViaSync) {
  for (load::Substrate s : load::all_substrates()) {
    sim::Engine engine;
    trace::Recorder rec(engine, 1u << 18);
    Options o;
    o.replicas = 3;
    o.clients = 2;
    o.ops_per_client = 6;
    const FaultTimes ft = fault_times(s);
    o.crash_backup_at = ft.crash;
    o.restart_backup_at = ft.restart;
    Group g(engine, s, o);
    const bool finished = engine.run_until(sim::sec(30));
    EXPECT_TRUE(finished) << load::to_string(s) << ": wedged";
    // A backup crash is invisible to clients: the primary drops it from
    // the fan-out and keeps committing.
    EXPECT_EQ(g.metrics().ok, 12u) << load::to_string(s);
    EXPECT_EQ(g.metrics().err, 0u) << load::to_string(s);
    EXPECT_EQ(g.view(), 0u) << load::to_string(s);
    EXPECT_TRUE(g.thread_failures().empty()) << load::to_string(s);
    // The bounced backup rejoined and synced to the primary's state.
    EXPECT_TRUE(g.alive(2)) << load::to_string(s);
    EXPECT_EQ(g.store(2).kv, g.store(0).kv) << load::to_string(s);
    EXPECT_EQ(g.store(2).applied, g.store(0).applied) << load::to_string(s);
    const check::LinVerdict lin = check::check_trace(rec);
    EXPECT_TRUE(lin.ok) << load::to_string(s) << ": " << lin.failure;
  }
}

TEST(Replica, PlantedStaleReadBugIsCaughtByOracle) {
  // One client, one key, sequential put-then-get: with the planted bug
  // the get answers from the key's previous value, which the oracle
  // must reject on every substrate.
  for (load::Substrate s : load::all_substrates()) {
    sim::Engine engine;
    trace::Recorder rec(engine, 1u << 18);
    Options o;
    o.replicas = 3;
    o.clients = 1;
    o.ops_per_client = 2;  // i=0 put, i=1 get, same key
    o.keys = 1;
    o.debug_stale_reads = true;
    Group g(engine, s, o);
    engine.run();
    EXPECT_EQ(g.metrics().ok, 2u) << load::to_string(s);
    const check::LinVerdict lin = check::check_trace(rec);
    EXPECT_FALSE(lin.ok) << load::to_string(s)
                         << ": stale read slipped past the oracle";
    EXPECT_NE(lin.failure.find("no linearization"), std::string::npos);
  }
}

}  // namespace
}  // namespace replica
