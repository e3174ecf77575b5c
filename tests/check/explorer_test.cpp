// The explorer driver: seeded interleavings really change the schedule
// (digests move) without changing semantics (every run conforms), the
// planted Charlotte re-ack bug is caught and shrunk, and repro tokens
// round-trip to the exact failing universe.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

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
  // formation armed so the batched-enqueue timers are in play
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

// The known eight-channel SODA wedge (ROADMAP "Fix first" 1) ends at
// the shape's horizon as a "wedged" verdict; its replay used to hang.
TEST(Explorer, WedgedEchoUniverseIsReportedNotHung) {
  const std::optional<RunConfig> cfg = parse_token(
      R"({"v":1,"substrate":"soda","tie":"fifo","seed":1,"plan":"none",)"
      R"("calls":4,"channels":8,"bytes":32})");
  ASSERT_TRUE(cfg.has_value());
  const RunVerdict v = run_one(*cfg);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.failure.rfind("wedged: ", 0), 0u) << v.failure;
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
  // Counts past INT_MAX are refused, not wrapped into a small run.
  EXPECT_FALSE(parse_token(R"({"substrate":"charlotte","tie":"fifo","seed":1,)"
                           R"("plan":"none","channels":4294967297})")
                   .has_value());
  EXPECT_FALSE(parse_token(R"({"substrate":"charlotte","tie":"fifo","seed":1,)"
                           R"("plan":"none","calls":4294967300})")
                   .has_value());

  // A shape is refused past its bound, so a token from outside cannot ask
  // for an unbounded universe (only the parse is tested: none of these
  // runs).
  const auto shaped = [](const std::string& fields) {
    return parse_token(R"({"v":1,"substrate":"charlotte","tie":"fifo",)"
                       R"("seed":1,"plan":"none",)" +
                       fields + "}");
  };
  const auto largest = shaped(R"("channels":64,"calls":1024,"bytes":65536)");
  ASSERT_TRUE(largest.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(largest->channels), kMaxChannels);
  EXPECT_EQ(static_cast<std::uint64_t>(largest->calls), kMaxCalls);
  EXPECT_EQ(largest->bytes, kMaxBytes);
  EXPECT_FALSE(shaped(R"("channels":65,"calls":4)").has_value());
  EXPECT_FALSE(shaped(R"("channels":1,"calls":1025)").has_value());
  EXPECT_FALSE(shaped(R"("channels":1,"calls":2147483647)").has_value());
  EXPECT_FALSE(shaped(R"("calls":4,"bytes":65537)").has_value());
  EXPECT_FALSE(shaped(R"("calls":1,"bytes":4294967296)").has_value());

  // A field that is present but malformed refuses the token instead of
  // replaying a default-shaped universe.
  const auto fielded = [](const std::string& fields) {
    return parse_token(R"({"v":1,"substrate":"charlotte","tie":"fifo",)" +
                       fields + "}");
  };
  EXPECT_FALSE(fielded(R"("seed":1.5,"plan":"none")").has_value());
  EXPECT_FALSE(fielded(R"("seed":1,"plan":"none","calls":4e9)").has_value());
  EXPECT_FALSE(fielded(R"("seed":1,"plan":"none","channels":-1)").has_value());
  EXPECT_FALSE(
      fielded(R"("seed":1,"plan":"none","channels":"x")").has_value());
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

// check_explorer --smoke's three sweeps, pinned one substrate at a
// time, so a change beneath one substrate re-pins only that substrate's
// values.  Each digest folds the trace digest of every universe in the
// sweep, so any change to event order, timing or trace content anywhere
// beneath the explorer moves it.  No loop that decides event order walks
// a hash table, so the values do not depend on hash layout; the
// RELYNX_HASH_SALT CI job checks that.
ExploreResult smoke_sweep(Workload workload, load::Substrate substrate,
                          std::vector<PlanSpec> plans, bool formation = false) {
  ExploreOptions opts;
  opts.workload = workload;
  opts.substrates = {substrate};
  opts.plans = std::move(plans);
  opts.formation = formation;
  opts.seeds = 10;
  opts.threads = 2;
  return explore(opts);
}

ExploreResult echo_sweep(load::Substrate substrate) {
  return smoke_sweep(Workload::kEcho, substrate,
                     {PlanSpec::kNone, PlanSpec::kAckStorm,
                      PlanSpec::kBatchStorm});
}

ExploreResult replica_sweep(load::Substrate substrate) {
  return smoke_sweep(Workload::kReplica, substrate,
                     {PlanSpec::kNone, PlanSpec::kPrimaryCrash,
                      PlanSpec::kPrimaryBounce, PlanSpec::kBackupBounce});
}

ExploreResult replica_formation_sweep(load::Substrate substrate) {
  return smoke_sweep(Workload::kReplica, substrate,
                     {PlanSpec::kNone, PlanSpec::kPrimaryBounce},
                     /*formation=*/true);
}

void expect_pinned(const ExploreResult& res, std::uint64_t runs,
                   std::uint64_t digest) {
  EXPECT_EQ(res.runs, runs);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_EQ(res.sweep_digest, digest)
      << std::hex << "0x" << res.sweep_digest;
}

using load::Substrate;

TEST(Explorer, SmokeEchoSweepCharlotteDigestIsPinned) {
  expect_pinned(echo_sweep(Substrate::kCharlotte), 60, 0x955ee0f45e50f8feull);
}

TEST(Explorer, SmokeEchoSweepSodaDigestIsPinned) {
  expect_pinned(echo_sweep(Substrate::kSoda), 60, 0x83937a951c78aaeaull);
}

TEST(Explorer, SmokeEchoSweepChrysalisDigestIsPinned) {
  // Ack-storm and batch-storm need a medium; Chrysalis runs only `none`.
  expect_pinned(echo_sweep(Substrate::kChrysalis), 20, 0xf56ba695bde2d4b2ull);
}

TEST(Explorer, SmokeReplicaSweepCharlotteDigestIsPinned) {
  expect_pinned(replica_sweep(Substrate::kCharlotte), 80,
                0xaf42c4df5d261127ull);
}

TEST(Explorer, SmokeReplicaSweepSodaDigestIsPinned) {
  expect_pinned(replica_sweep(Substrate::kSoda), 80, 0xbbc756a9914d9007ull);
}

TEST(Explorer, SmokeReplicaSweepChrysalisDigestIsPinned) {
  expect_pinned(replica_sweep(Substrate::kChrysalis), 80,
                0xa1dfe0fe48568d08ull);
}

TEST(Explorer, SmokeReplicaFormationCharlotteDigestIsPinned) {
  expect_pinned(replica_formation_sweep(Substrate::kCharlotte), 40,
                0x9a6c19237be03067ull);
}

TEST(Explorer, SmokeReplicaFormationSodaDigestIsPinned) {
  expect_pinned(replica_formation_sweep(Substrate::kSoda), 40,
                0x9b8edebb786b3b72ull);
}

TEST(Explorer, SmokeReplicaFormationChrysalisDigestIsPinned) {
  expect_pinned(replica_formation_sweep(Substrate::kChrysalis), 40,
                0x42c1474038170c59ull);
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
