// Linearizability oracle for the replicated KV service (the fifth
// explorer oracle).
//
// Input is the client-observed history (KvHistory, collected record by
// record): one KvOp per operation a client invoked, carrying its
// real-time interval and, if the call completed, its result.  The check
// is Wing & Gong's search, made tractable the standard two ways:
//
//   * per-key compositionality — linearizability composes over
//     independent objects, and each key is an independent register/
//     counter, so the search runs per key on far smaller histories;
//   * memoized state exploration — the search state is (set of
//     linearized ops, register value); a (mask, value) pair that
//     already failed once can never succeed later.
//
// Failure semantics around crashes follow the classic treatment of
// incomplete histories: an operation whose call *errored* (or never
// returned) has an unknown outcome — a write may or may not have taken
// effect, at any point after its invocation — so errored/pending
// writes are optional ops the search may linearize or drop, while
// errored/pending reads constrain nothing and are discarded.
// Completed operations are mandatory: every one must appear, its
// result must match the register semantics, and real-time order is
// enforced — if A's response preceded B's invocation, A linearizes
// before B.  Emission order of the one global trace recorder gives a
// total real-time order (monotone seq), so precedence is just a seq
// comparison.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace check {

// Mirrors replica::OpType without depending on src/replica/.
enum class KvOpType : std::uint8_t { kPut = 0, kGet = 1, kAdd = 2 };

struct KvOp {
  KvOpType type = KvOpType::kPut;
  std::int64_t key = 0;
  std::int64_t arg = 0;        // put: value written; add: delta; get: unused
  bool completed = false;      // kv.ok seen: mandatory, result checked
  bool errored = false;        // kv.err seen: outcome unknown
  std::int64_t result = 0;     // valid iff completed
  std::uint64_t trace = 0;     // causal identity, for failure reports
  sim::Time inv_at = 0;
  std::uint64_t inv_seq = 0;   // recorder seq of kv.invoke
  sim::Time res_at = 0;
  std::uint64_t res_seq = 0;   // recorder seq of kv.ok / kv.err
};

struct LinVerdict {
  bool ok = true;
  std::string failure;         // empty iff ok
  std::uint64_t ops_checked = 0;    // mandatory (completed) operations
  std::uint64_t optional_ops = 0;   // errored/pending writes considered
};

// Pure search over an explicit history (unit-testable without a world).
[[nodiscard]] LinVerdict check_history(const std::vector<KvOp>& ops);

// The client-observed history, collected one record at a time from the
// kv.invoke / kv.ok / kv.err "app"-track instants (as emitted by
// replica::Group's clients): feed it one recorder's stream in emission
// order, as the recorder's sink or over its snapshot, then check it.
// Responses whose invoke it never saw (overwritten in a ring) are
// ignored; a wrapped ring cannot produce a false alarm this way.
class KvHistory {
 public:
  void feed(const trace::Recorder& rec, const trace::Record& r);
  [[nodiscard]] LinVerdict check() const { return check_history(ops_); }

 private:
  enum class Label : std::uint8_t { kOther, kInvoke, kOk, kErr };
  std::vector<Label> labels_;  // by label id, named on first sight
  std::vector<KvOp> ops_;      // in invoke order
  std::unordered_map<std::uint64_t, std::size_t> by_trace_;  // index in ops_
};

// A KvHistory over the recorder's snapshot, checked.
[[nodiscard]] LinVerdict check_trace(const trace::Recorder& rec);

}  // namespace check
