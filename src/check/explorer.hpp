// The schedule-exploration checker (the repo's "confidence at scale"
// subsystem).
//
// One RunConfig = one fully reproducible universe: a kernel substrate,
// a workload (stateless echo or the replicated KV service), an optional
// named fault plan, and ONE seed that picks both the same-instant
// tie-break permutation (sim::TiePolicy) and the fault/medium
// randomness.  run_one() builds the world, runs it, and asks the
// oracles whether anything broke:
//
//   * the LYNX reference model (reference_model.hpp), fed the runtime
//     trace stream as it is emitted (the recorder's sink; no ring),
//   * fault::InvariantChecker over the impaired medium,
//   * the engine's own process-failure log,
//   * the workload threads' failure logs,
//   * for replica universes, the linearizability oracle
//     (linearizability.hpp) over the clients' kv.invoke/ok/err history.
//
// explore() sweeps seeds x substrates x tie-break policies x plans; any
// failure is auto-shrunk to the shortest permuted schedule prefix that
// still reproduces it (by lowering TiePolicy::horizon), and reported as
// a one-line JSON repro token that parse_token() turns back into the
// exact failing RunConfig.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/reference_model.hpp"
#include "load/universe.hpp"
#include "sim/engine.hpp"

namespace check {

// Named fault plans, referenced by name so repro tokens stay one line.
enum class PlanSpec : std::uint8_t {
  kNone = 0,
  // Drop every server->client frame in [60ms, 310ms): request acks and
  // replies are lost, exercising retransmit / dedup / re-ack recovery.
  // Recoverable by construction — the attempt budgets in run_one()'s
  // kernel costs outlast the window — so a conforming kernel finishes
  // every call cleanly.  Echo workload only.
  kAckStorm,
  // Both directions of the node 0 <-> node 1 pair go dark in the same
  // window, with RPC formation forced ON (DESIGN.md §14): a dropped
  // form::Batch loses every enclosure at once, so recovery must
  // re-deliver whole batches' worth of messages, not single frames.
  // Same recoverability budget as ack-storm.  Echo workload only.
  kBatchStorm,
  // Replica-workload crash plans (node crash/restart via the group's
  // fault schedule, timed per substrate to land mid-commit-stream).
  kPrimaryCrash,   // primary dies and never returns; fail-over only
  kPrimaryBounce,  // primary dies, successor takes over, ex-primary
                   // rejoins as a backup via full-state sync
  kBackupBounce,   // last backup dies and rejoins; view never changes
};

[[nodiscard]] const char* to_string(PlanSpec spec);
[[nodiscard]] std::optional<PlanSpec> plan_spec_from(std::string_view name);

// What the universe runs on top of the substrate.  kEcho is the
// original stateless ping workload; kReplica is the replicated KV
// service (src/replica/), whose histories face the linearizability
// oracle on top of the usual four.
enum class Workload : std::uint8_t { kEcho = 0, kReplica };

[[nodiscard]] const char* to_string(Workload w);
[[nodiscard]] std::optional<Workload> workload_from(std::string_view name);

struct RunConfig {
  load::Substrate substrate = load::Substrate::kCharlotte;
  sim::TieBreak tie = sim::TieBreak::kFifo;
  // Seeds the tie-break permutation AND the medium randomness.
  std::uint64_t seed = 1;
  // Permuted schedule prefix (sim::TiePolicy::horizon); lowered by the
  // shrinker, kNoHorizon = permute the whole run.
  std::uint64_t horizon = sim::TiePolicy::kNoHorizon;
  PlanSpec plan = PlanSpec::kNone;
  Workload workload = Workload::kEcho;
  // Independent links between the pair, each driven by its own client
  // thread and served by its own server thread.  Concurrent channels
  // with identical runtime costs are what create same-instant ties for
  // the permutation policy to explore; 1 degenerates to a sequential
  // run with (almost) nothing to permute.  Replica universes read this
  // as the client count.
  int channels = 2;
  int calls = 4;  // per channel (replica: ops per client)
  std::size_t bytes = 32;
  // Arms charlotte::Costs::debug_drop_reacks — the deliberately
  // injected semantic bug the checker's self-test must catch.
  bool inject_reack_bug = false;
  // Arms replica::Options::debug_stale_reads — the planted stale-read
  // bug the linearizability oracle's self-test must catch.
  bool inject_stale_bug = false;
  // Arms RPC formation (form_delay = 2ms) in the universe's kernel
  // costs / backend params on every substrate.  kBatchStorm implies it
  // — without formation there are no batches to drop.
  bool formation = false;
};

struct RunVerdict {
  bool ok = false;
  std::string failure;  // empty iff ok; first oracle to object wins
  std::optional<Divergence> divergence;  // when the reference model objected
  std::uint64_t trace_digest = 0;
  std::uint64_t records = 0;
  std::uint64_t calls_checked = 0;
};

// Builds the universe for `cfg`, runs it to completion, and applies the
// oracles.  Deterministic: same RunConfig => same RunVerdict (and same
// trace digest).
[[nodiscard]] RunVerdict run_one(const RunConfig& cfg);

// ---- repro tokens ----------------------------------------------------
// One-line JSON, e.g.
//   {"v":1,"substrate":"charlotte","tie":"perm","seed":17,"horizon":42,
//    "plan":"ack-storm","channels":2,"calls":4,"bytes":32,"bug":1}
// "horizon", "workload", "bug" and "stale" are omitted when at their
// defaults, so pre-replica tokens still parse (and old parsers still
// read echo tokens).
// parse_token() refuses a shape past these bounds: a token from
// outside the program could otherwise ask for a universe that runs for
// hours or exhausts memory.
inline constexpr std::uint64_t kMaxChannels = 64;
inline constexpr std::uint64_t kMaxCalls = 1024;
inline constexpr std::uint64_t kMaxBytes = 65536;
[[nodiscard]] std::string to_json(const RunConfig& cfg);
[[nodiscard]] std::optional<RunConfig> parse_token(std::string_view json);

// Lowers cfg.horizon to a locally-minimal permuted prefix that still
// fails (exponential envelope + bisection; the result is verified
// failing).  Horizon 0 means the failure reproduces in pure FIFO order,
// i.e. it is schedule-independent.  FIFO configs are returned as-is.
// Each probe is counted into *runs.
[[nodiscard]] RunConfig shrink(const RunConfig& failing, std::uint64_t* runs);

struct FailureReport {
  RunConfig config;     // as first seen (full horizon)
  RunConfig minimized;  // after shrinking (== config when not shrunk)
  RunVerdict verdict;   // of the minimized config
  [[nodiscard]] std::string token() const { return to_json(minimized); }
};

struct ExploreOptions {
  std::vector<load::Substrate> substrates = {load::Substrate::kCharlotte,
                                             load::Substrate::kSoda,
                                             load::Substrate::kChrysalis};
  std::vector<sim::TieBreak> policies = {sim::TieBreak::kFifo,
                                         sim::TieBreak::kSeededPermutation};
  std::uint64_t seeds = 100;
  std::uint64_t first_seed = 1;
  std::vector<PlanSpec> plans = {PlanSpec::kNone};
  Workload workload = Workload::kEcho;
  int channels = 2;
  int calls = 4;
  std::size_t bytes = 32;
  bool inject_reack_bug = false;  // charlotte echo universes only
  bool inject_stale_bug = false;  // replica universes only
  bool formation = false;         // arm RPC formation in every universe
  bool shrink_failures = true;
  // Host threads for the sweep.  Each RunConfig is an independent
  // single-threaded Engine, so the cross product fans out over a
  // sweep::ThreadPool; results are consumed in config-list order and
  // shrinking stays sequential, so every field of ExploreResult —
  // sweep_digest included — is identical for any thread count.
  // 0 = hardware concurrency.
  unsigned threads = 1;
};

struct ExploreResult {
  std::uint64_t runs = 0;         // exploration runs (excl. shrink probes)
  std::uint64_t shrink_runs = 0;  // extra runs spent shrinking
  // common::Digest over every exploration run's trace digest, in sweep
  // order.  Two explores agree on this iff they saw the same universes
  // produce the same traces — the value CI compares across thread
  // counts.
  std::uint64_t sweep_digest = 0;
  std::vector<FailureReport> failures;
};

// Sweeps the cross product.  Plans that do not apply are skipped:
// ack-storm needs a medium (not Chrysalis) and the echo workload; the
// crash plans need the replica workload (and work on every substrate —
// a Chrysalis "crash" is plain process termination).  The injected
// re-ack bug only arms on Charlotte echo universes, the stale-read bug
// only on replica ones.
[[nodiscard]] ExploreResult explore(const ExploreOptions& opts);

}  // namespace check
