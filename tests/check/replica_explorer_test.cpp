// The replica workload inside the explorer: crash/restart universes
// (including primary crash mid-commit) stay linearizable across the
// seed sweep, tokens round-trip with the new workload/stale fields
// (and without them, for pre-replica tokens), and the planted
// stale-read bug is caught by the linearizability oracle — the
// checker's proof that it can see replication bugs at all.
#include <gtest/gtest.h>

#include <set>

#include "check/explorer.hpp"

namespace check {
namespace {

RunConfig replica_cfg(PlanSpec plan, load::Substrate s, std::uint64_t seed) {
  RunConfig cfg;
  cfg.workload = Workload::kReplica;
  cfg.substrate = s;
  cfg.plan = plan;
  cfg.seed = seed;
  return cfg;
}

TEST(ReplicaExplorer, CleanRunsConformOnAllSubstrates) {
  for (load::Substrate s : load::all_substrates()) {
    const RunVerdict v = run_one(replica_cfg(PlanSpec::kNone, s, 7));
    EXPECT_TRUE(v.ok) << load::to_string(s) << ": " << v.failure;
    // 2 clients x 4 ops went through the linearizability oracle.
    EXPECT_EQ(v.calls_checked, 8u) << load::to_string(s);
  }
}

TEST(ReplicaExplorer, RunsAreDeterministic) {
  for (sim::TieBreak tie :
       {sim::TieBreak::kFifo, sim::TieBreak::kSeededPermutation}) {
    RunConfig cfg = replica_cfg(PlanSpec::kPrimaryBounce,
                                load::Substrate::kCharlotte, 7);
    cfg.tie = tie;
    const RunVerdict a = run_one(cfg);
    const RunVerdict b = run_one(cfg);
    EXPECT_TRUE(a.ok) << a.failure;
    EXPECT_EQ(a.trace_digest, b.trace_digest) << sim::to_string(tie);
    EXPECT_EQ(a.records, b.records) << sim::to_string(tie);
  }
}

TEST(ReplicaExplorer, CrashPlansStayLinearizableAcrossSeeds) {
  // A slice of the acceptance sweep (check_explorer runs the full 100
  // seeds): every crash plan on every substrate, a handful of seeds,
  // under the permutation policy so schedules genuinely differ.
  for (PlanSpec plan : {PlanSpec::kPrimaryCrash, PlanSpec::kPrimaryBounce,
                        PlanSpec::kBackupBounce}) {
    for (load::Substrate s : load::all_substrates()) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        RunConfig cfg = replica_cfg(plan, s, seed);
        cfg.tie = sim::TieBreak::kSeededPermutation;
        const RunVerdict v = run_one(cfg);
        EXPECT_TRUE(v.ok) << to_string(plan) << " on " << load::to_string(s)
                          << " seed " << seed << ": " << v.failure;
      }
    }
  }
}

TEST(ReplicaExplorer, CrashPlansWithFormationStayClean) {
  // Formation batches the commit fan-out, so a crash kills whole batches
  // and the Charlotte backend's shutdown races completions still in
  // flight.  Run under AddressSanitizer, this is the test that catches a
  // kernel freeing state a parked waiter is about to touch.
  ExploreOptions opts;
  opts.workload = Workload::kReplica;
  opts.formation = true;
  opts.seeds = 2;
  opts.plans = {PlanSpec::kPrimaryCrash, PlanSpec::kPrimaryBounce,
                PlanSpec::kBackupBounce};
  const ExploreResult res = explore(opts);
  EXPECT_EQ(res.runs, 3u * 3u * 2u * 2u);  // plans x substrates x ties x seeds
  for (const FailureReport& f : res.failures) {
    ADD_FAILURE() << f.token() << "\n" << f.verdict.failure;
  }
}

TEST(ReplicaExplorer, SeededPermutationExploresDistinctSchedules) {
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunConfig cfg = replica_cfg(PlanSpec::kPrimaryBounce,
                                load::Substrate::kCharlotte, seed);
    cfg.tie = sim::TieBreak::kSeededPermutation;
    const RunVerdict v = run_one(cfg);
    ASSERT_TRUE(v.ok) << "seed " << seed << ": " << v.failure;
    digests.insert(v.trace_digest);
  }
  EXPECT_GT(digests.size(), 4u);
}

TEST(ReplicaExplorer, PlantedStaleReadBugIsCaught) {
  for (load::Substrate s : load::all_substrates()) {
    RunConfig cfg = replica_cfg(PlanSpec::kNone, s, 1);
    cfg.inject_stale_bug = true;
    const RunVerdict v = run_one(cfg);
    ASSERT_FALSE(v.ok) << load::to_string(s)
                       << ": stale read slipped past the oracle";
    EXPECT_NE(v.failure.find("linearizability"), std::string::npos)
        << v.failure;
  }
}

TEST(ReplicaExplorer, TokenRoundTripsWithWorkloadFields) {
  RunConfig cfg = replica_cfg(PlanSpec::kPrimaryCrash,
                              load::Substrate::kSoda, 42);
  cfg.tie = sim::TieBreak::kSeededPermutation;
  cfg.horizon = 17;
  cfg.inject_stale_bug = true;
  const std::string token = to_json(cfg);
  EXPECT_NE(token.find("\"workload\":\"replica\""), std::string::npos);
  EXPECT_NE(token.find("\"plan\":\"primary-crash\""), std::string::npos);
  EXPECT_NE(token.find("\"stale\":1"), std::string::npos);
  const auto parsed = parse_token(token);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->workload, Workload::kReplica);
  EXPECT_EQ(parsed->plan, PlanSpec::kPrimaryCrash);
  EXPECT_EQ(parsed->substrate, load::Substrate::kSoda);
  EXPECT_EQ(parsed->seed, 42u);
  EXPECT_EQ(parsed->horizon, 17u);
  EXPECT_TRUE(parsed->inject_stale_bug);
  EXPECT_EQ(to_json(*parsed), token);
}

TEST(ReplicaExplorer, PreReplicaTokensStillParseAsEcho) {
  // Tokens minted before the workload field existed must keep meaning
  // what they meant: the echo workload at default knobs.
  const auto parsed = parse_token(
      "{\"v\":1,\"substrate\":\"charlotte\",\"tie\":\"perm\",\"seed\":17,"
      "\"plan\":\"ack-storm\",\"channels\":2,\"calls\":4,\"bytes\":32}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->workload, Workload::kEcho);
  EXPECT_FALSE(parsed->inject_stale_bug);
  // And the echo serialization is unchanged: no workload/stale fields.
  EXPECT_EQ(to_json(*parsed).find("workload"), std::string::npos);
  EXPECT_EQ(to_json(*parsed).find("stale"), std::string::npos);
}

TEST(ReplicaExplorer, SweepSkipsInapplicablePlanCombos) {
  // Echo sweeps must not run crash plans; replica sweeps must not run
  // the ack storm.  Run counts expose the skip logic directly.
  ExploreOptions echo;
  echo.seeds = 1;
  echo.policies = {sim::TieBreak::kFifo};
  echo.plans = {PlanSpec::kNone, PlanSpec::kPrimaryCrash};
  const ExploreResult e = explore(echo);
  EXPECT_EQ(e.runs, 3u);  // kNone x 3 substrates only
  EXPECT_TRUE(e.failures.empty());

  ExploreOptions rep;
  rep.workload = Workload::kReplica;
  rep.seeds = 1;
  rep.policies = {sim::TieBreak::kFifo};
  rep.plans = {PlanSpec::kNone, PlanSpec::kAckStorm, PlanSpec::kBackupBounce};
  const ExploreResult r = explore(rep);
  EXPECT_EQ(r.runs, 6u);  // {kNone, kBackupBounce} x 3 substrates
  EXPECT_TRUE(r.failures.empty());
}

}  // namespace
}  // namespace check
