// The explorer driver: seeded interleavings really change the schedule
// (digests move) without changing semantics (every run conforms), the
// planted Charlotte re-ack bug is caught and shrunk, and repro tokens
// round-trip to the exact failing universe.
#include <gtest/gtest.h>

#include <set>

#include "check/explorer.hpp"

namespace check {
namespace {

TEST(Explorer, RunsAreDeterministic) {
  for (sim::TieBreak tie :
       {sim::TieBreak::kFifo, sim::TieBreak::kSeededPermutation}) {
    RunConfig cfg;
    cfg.tie = tie;
    cfg.seed = 7;
    const RunVerdict a = run_one(cfg);
    const RunVerdict b = run_one(cfg);
    EXPECT_TRUE(a.ok) << a.failure;
    EXPECT_EQ(a.trace_digest, b.trace_digest) << sim::to_string(tie);
    EXPECT_EQ(a.records, b.records) << sim::to_string(tie);
  }
}

TEST(Explorer, SeededPermutationExploresDistinctSchedules) {
  // Different seeds must actually select different interleavings —
  // otherwise the sweep is a single run in disguise.  All of them must
  // still conform: tie-break order is not allowed to change semantics.
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg;
    cfg.tie = sim::TieBreak::kSeededPermutation;
    cfg.seed = seed;
    const RunVerdict v = run_one(cfg);
    ASSERT_TRUE(v.ok) << "seed " << seed << ": " << v.failure;
    digests.insert(v.trace_digest);
  }
  EXPECT_GT(digests.size(), 5u);
}

TEST(Explorer, FifoSeedsShareOneScheduleOnCleanCharlotte) {
  // Control for the test above: under FIFO with no fault plan the seed
  // feeds nothing (token ring and workload are deterministic), so every
  // seed replays the identical stream.
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RunConfig cfg;
    cfg.seed = seed;
    const RunVerdict v = run_one(cfg);
    ASSERT_TRUE(v.ok) << v.failure;
    digests.insert(v.trace_digest);
  }
  EXPECT_EQ(digests.size(), 1u);
}

TEST(Explorer, PlantedReackBugIsCaught) {
  RunConfig cfg;
  cfg.plan = PlanSpec::kAckStorm;
  cfg.inject_reack_bug = true;
  const RunVerdict v = run_one(cfg);
  ASSERT_FALSE(v.ok);
  ASSERT_TRUE(v.divergence.has_value()) << v.failure;
  // The bug surfaces as a spurious link failure on a call whose request
  // (and usually reply) actually got through.
  EXPECT_EQ(v.divergence->rule, "error-surface");
  EXPECT_FALSE(v.divergence->context.empty());
}

TEST(Explorer, PlantedBugShrinksToScheduleIndependence) {
  // The re-ack bug is semantic, not schedule-sensitive: shrinking must
  // drive the permuted prefix all the way to zero, and the shrunk
  // config must still fail.
  RunConfig cfg;
  cfg.tie = sim::TieBreak::kSeededPermutation;
  cfg.seed = 3;
  cfg.plan = PlanSpec::kAckStorm;
  cfg.inject_reack_bug = true;
  ASSERT_FALSE(run_one(cfg).ok);
  std::uint64_t probes = 0;
  const RunConfig min = shrink(cfg, &probes);
  EXPECT_EQ(min.horizon, 0u);
  EXPECT_GE(probes, 1u);
  EXPECT_FALSE(run_one(min).ok);
}

TEST(Explorer, StormPlansDeterministicOnSodaV2Wire) {
  // The SODA universe runs the cumulative-ack wire (watermarks,
  // piggybacked acks, adaptive RTO, frontier repair).  Under the full
  // drop plans — ack-storm (server->client dark for 250 ms) and
  // batch-storm (both directions dark, formation on) — with seeded
  // schedule permutation on top, every universe must conform and digest
  // bit-identically run over run, and distinct seeds must explore
  // distinct schedules.
  for (PlanSpec plan : {PlanSpec::kAckStorm, PlanSpec::kBatchStorm}) {
    std::set<std::uint64_t> digests;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      RunConfig cfg;
      cfg.substrate = load::Substrate::kSoda;
      cfg.tie = sim::TieBreak::kSeededPermutation;
      cfg.seed = seed;
      cfg.plan = plan;
      const RunVerdict a = run_one(cfg);
      const RunVerdict b = run_one(cfg);
      ASSERT_TRUE(a.ok) << to_string(plan) << " seed " << seed << ": "
                        << a.failure;
      ASSERT_EQ(a.trace_digest, b.trace_digest)
          << to_string(plan) << " seed " << seed;
      ASSERT_EQ(a.records, b.records) << to_string(plan) << " seed " << seed;
      digests.insert(a.trace_digest);
    }
    EXPECT_GT(digests.size(), 5u) << to_string(plan);
  }
}

TEST(Explorer, ChrysalisBackendV2Deterministic) {
  // No medium to impair on the Butterfly, so the Chrysalis "new wire"
  // (batched drains, cheap-flag fast path, consumed-notice coalescing)
  // is explored through schedule permutation alone — with notice
  // formation armed so the enqueue_many batching timers are in play
  // too.  Conform + bit-identical digests, per seed, run over run.
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig cfg;
    cfg.substrate = load::Substrate::kChrysalis;
    cfg.tie = sim::TieBreak::kSeededPermutation;
    cfg.seed = seed;
    cfg.formation = true;
    const RunVerdict a = run_one(cfg);
    const RunVerdict b = run_one(cfg);
    ASSERT_TRUE(a.ok) << "seed " << seed << ": " << a.failure;
    ASSERT_EQ(a.trace_digest, b.trace_digest) << "seed " << seed;
    ASSERT_EQ(a.records, b.records) << "seed " << seed;
    digests.insert(a.trace_digest);
  }
  EXPECT_GT(digests.size(), 5u);
}

TEST(Explorer, SodaAcceptWindowRegression) {
  // Found by this explorer's first 100-seed sweep: soda::Kernel::accept
  // removed the request from parked_ but only marked it done after its
  // simulated processing delay, so a retransmitted ReqFrag landing in
  // that window was parked — and serviced — twice ("single-delivery").
  // These are the two FIFO universes that reproduced it; they must stay
  // clean forever.
  for (std::uint64_t seed : {21ull, 75ull}) {
    RunConfig cfg;
    cfg.substrate = load::Substrate::kSoda;
    cfg.seed = seed;
    const RunVerdict v = run_one(cfg);
    EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.failure;
  }
}

TEST(Explorer, TokensRoundTrip) {
  RunConfig cfg;
  cfg.substrate = load::Substrate::kSoda;
  cfg.tie = sim::TieBreak::kSeededPermutation;
  cfg.seed = 42;
  cfg.horizon = 17;
  cfg.plan = PlanSpec::kAckStorm;
  cfg.channels = 3;
  cfg.calls = 9;
  cfg.bytes = 128;
  cfg.inject_reack_bug = true;
  const auto parsed = parse_token(to_json(cfg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->substrate, cfg.substrate);
  EXPECT_EQ(parsed->tie, cfg.tie);
  EXPECT_EQ(parsed->seed, cfg.seed);
  EXPECT_EQ(parsed->horizon, cfg.horizon);
  EXPECT_EQ(parsed->plan, cfg.plan);
  EXPECT_EQ(parsed->channels, cfg.channels);
  EXPECT_EQ(parsed->calls, cfg.calls);
  EXPECT_EQ(parsed->bytes, cfg.bytes);
  EXPECT_EQ(parsed->inject_reack_bug, cfg.inject_reack_bug);

  // Defaults stay defaults when omitted from the token.
  const auto bare = parse_token(
      R"({"v":1,"substrate":"charlotte","tie":"fifo","seed":5,"plan":"none"})");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->horizon, sim::TiePolicy::kNoHorizon);
  EXPECT_EQ(bare->channels, 2);
  EXPECT_EQ(bare->calls, 4);
  EXPECT_FALSE(bare->inject_reack_bug);

  EXPECT_FALSE(parse_token("{}").has_value());
  EXPECT_FALSE(parse_token("not json at all").has_value());
  EXPECT_FALSE(
      parse_token(R"({"substrate":"vms","tie":"fifo","seed":1,"plan":"none"})")
          .has_value());
}

TEST(Explorer, SweepIsCleanAcrossSubstratesPoliciesAndPlans) {
  ExploreOptions opts;
  opts.seeds = 3;
  opts.plans = {PlanSpec::kNone, PlanSpec::kAckStorm};
  const ExploreResult res = explore(opts);
  // 3 substrates x plans (chrysalis skips ack-storm) x 2 policies x 3
  // seeds = (2*2 + 2*2 + 1*2) * 3 = 30.
  EXPECT_EQ(res.runs, 30u);
  for (const FailureReport& f : res.failures) {
    ADD_FAILURE() << f.token() << "\n" << f.verdict.failure;
  }
}

TEST(Explorer, ParallelSweepMatchesSequentialSweep) {
  // ExploreOptions::threads fans run_one out over a host thread pool;
  // every field of the result — run counts, the order-sensitive sweep
  // digest, and any failures — must be identical for any thread count,
  // because each RunConfig runs on its own private Engine.
  ExploreOptions opts;
  opts.seeds = 4;
  opts.plans = {PlanSpec::kNone, PlanSpec::kAckStorm};
  const ExploreResult seq = explore(opts);
  opts.threads = 4;
  const ExploreResult par = explore(opts);
  EXPECT_EQ(par.runs, seq.runs);
  EXPECT_EQ(par.shrink_runs, seq.shrink_runs);
  EXPECT_EQ(par.sweep_digest, seq.sweep_digest);
  EXPECT_NE(par.sweep_digest, 0u);
  EXPECT_EQ(par.failures.size(), seq.failures.size());
}

// check_explorer --smoke's three sweeps, pinned.  Each digest folds the
// trace digest of every universe in the sweep, so any change to event
// order, timing or trace content anywhere beneath the explorer moves it.
// No loop that decides event order walks a hash table, so the values do
// not depend on hash layout; the RELYNX_HASH_SALT CI job checks that.
ExploreOptions smoke_options(Workload workload) {
  ExploreOptions opts;
  opts.workload = workload;
  opts.seeds = 10;
  opts.threads = 2;
  return opts;
}

TEST(Explorer, SmokeEchoSweepDigestIsPinned) {
  ExploreOptions opts = smoke_options(Workload::kEcho);
  opts.plans = {PlanSpec::kNone, PlanSpec::kAckStorm, PlanSpec::kBatchStorm};
  const ExploreResult res = explore(opts);
  EXPECT_EQ(res.runs, 140u);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(res.sweep_digest, 0xb11f1f0d29367ac6ull);
}

TEST(Explorer, SmokeReplicaSweepDigestIsPinned) {
  ExploreOptions opts = smoke_options(Workload::kReplica);
  opts.plans = {PlanSpec::kNone, PlanSpec::kPrimaryCrash,
                PlanSpec::kPrimaryBounce, PlanSpec::kBackupBounce};
  const ExploreResult res = explore(opts);
  EXPECT_EQ(res.runs, 240u);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(res.sweep_digest, 0x113d73030884df37ull);
}

TEST(Explorer, SmokeReplicaFormationDigestIsPinned) {
  ExploreOptions opts = smoke_options(Workload::kReplica);
  opts.plans = {PlanSpec::kNone, PlanSpec::kPrimaryBounce};
  opts.formation = true;
  const ExploreResult res = explore(opts);
  EXPECT_EQ(res.runs, 120u);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(res.sweep_digest, 0xbee8df5c2caf068dull);
}

TEST(Explorer, ExploreCatchesAndMinimizesPlantedBug) {
  ExploreOptions opts;
  opts.substrates = {load::Substrate::kCharlotte};
  opts.policies = {sim::TieBreak::kSeededPermutation};
  opts.seeds = 2;
  opts.plans = {PlanSpec::kAckStorm};
  opts.inject_reack_bug = true;
  const ExploreResult res = explore(opts);
  EXPECT_EQ(res.runs, 2u);
  ASSERT_EQ(res.failures.size(), 2u);
  for (const FailureReport& f : res.failures) {
    EXPECT_EQ(f.minimized.horizon, 0u) << f.token();
    EXPECT_FALSE(f.verdict.ok);
    // The emitted token replays to the same failure.
    const auto parsed = parse_token(f.token());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(run_one(*parsed).ok);
  }
  EXPECT_GT(res.shrink_runs, 0u);
}

TEST(Explorer, ChrysalisSkipsFaultPlans) {
  ExploreOptions opts;
  opts.substrates = {load::Substrate::kChrysalis};
  opts.seeds = 2;
  opts.plans = {PlanSpec::kAckStorm};
  const ExploreResult res = explore(opts);
  EXPECT_EQ(res.runs, 0u);
  EXPECT_TRUE(res.failures.empty());
}

}  // namespace
}  // namespace check
