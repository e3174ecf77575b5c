#include "check/linearizability.hpp"

#include <map>
#include <set>
#include <utility>

namespace check {

namespace {

// Register semantics of one key (absent reads as 0, like the service).
std::int64_t apply(KvOpType t, std::int64_t value, std::int64_t arg) {
  switch (t) {
    case KvOpType::kPut: return arg;
    case KvOpType::kAdd: return value + arg;
    case KvOpType::kGet: return value;
  }
  return value;
}

std::int64_t expected_result(KvOpType t, std::int64_t before,
                             std::int64_t after) {
  // The service replies with the written/new value for put/add and the
  // read value for get.
  return t == KvOpType::kGet ? before : after;
}

struct KeySearch {
  std::vector<const KvOp*> ops;  // mandatory + optional, this key only
  std::uint64_t mandatory = 0;   // bitmask over ops
  std::set<std::pair<std::uint64_t, std::int64_t>> seen;  // (mask, value)

  // True iff some linearization of the remaining ops exists.
  bool search(std::uint64_t mask, std::int64_t value) {
    if ((mask & mandatory) == mandatory) return true;
    if (!seen.emplace(mask, value).second) return false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint64_t bit = 1ull << i;
      if ((mask & bit) != 0) continue;
      // Real-time order: every completed op whose response preceded
      // this op's invocation must already be linearized.  Errored and
      // pending ops have no bounded response, so they never gate.
      bool ready = true;
      for (std::size_t j = 0; j < ops.size(); ++j) {
        if (j == i || (mask & (1ull << j)) != 0) continue;
        if (ops[j]->completed && ops[j]->res_seq < ops[i]->inv_seq) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      const std::int64_t next = apply(ops[i]->type, value, ops[i]->arg);
      if (ops[i]->completed &&
          ops[i]->result != expected_result(ops[i]->type, value, next)) {
        continue;  // this position contradicts the observed result
      }
      if (search(mask | bit, next)) return true;
    }
    return false;
  }
};

std::string render_op(const KvOp& op) {
  std::string s = "trace=" + std::to_string(op.trace);
  switch (op.type) {
    case KvOpType::kPut:
      s += " put(" + std::to_string(op.key) + "," + std::to_string(op.arg) +
           ")";
      break;
    case KvOpType::kAdd:
      s += " add(" + std::to_string(op.key) + "," + std::to_string(op.arg) +
           ")";
      break;
    case KvOpType::kGet:
      s += " get(" + std::to_string(op.key) + ")";
      break;
  }
  if (op.completed) {
    s += " -> " + std::to_string(op.result);
  } else if (op.errored) {
    s += " -> err";
  } else {
    s += " -> ?";
  }
  s += " [" + std::to_string(op.inv_seq) + "," +
       (op.completed || op.errored ? std::to_string(op.res_seq) : "inf") + ")";
  return s;
}

}  // namespace

LinVerdict check_history(const std::vector<KvOp>& ops) {
  LinVerdict v;
  std::map<std::int64_t, std::vector<const KvOp*>> by_key;
  for (const KvOp& op : ops) {
    const bool write = op.type != KvOpType::kGet;
    if (op.completed) {
      by_key[op.key].push_back(&op);
      ++v.ops_checked;
    } else if (write) {
      // Unknown outcome: the search may linearize it anywhere after
      // its invocation, or drop it entirely.
      by_key[op.key].push_back(&op);
      ++v.optional_ops;
    }
    // Errored/pending reads constrain nothing: discarded.
  }
  for (auto& [key, key_ops] : by_key) {
    if (key_ops.size() > 63) {
      v.ok = false;
      v.failure = "key " + std::to_string(key) + " has " +
                  std::to_string(key_ops.size()) +
                  " ops; the oracle's 64-bit mask caps a key at 63";
      return v;
    }
    KeySearch s;
    s.ops = key_ops;
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
      if (s.ops[i]->completed) s.mandatory |= 1ull << i;
    }
    if (s.search(0, 0)) continue;
    v.ok = false;
    v.failure = "no linearization for key " + std::to_string(key) + " (" +
                std::to_string(key_ops.size()) + " ops):";
    for (const KvOp* op : key_ops) v.failure += "\n  " + render_op(*op);
    return v;
  }
  return v;
}

void KvHistory::feed(const trace::Recorder& rec, const trace::Record& r) {
  if (r.kind != trace::Kind::kInstant) return;
  while (labels_.size() <= r.label) {
    const std::string& name =
        rec.label_name(static_cast<std::uint16_t>(labels_.size()));
    labels_.push_back(name == "kv.invoke" ? Label::kInvoke
                      : name == "kv.ok"   ? Label::kOk
                      : name == "kv.err"  ? Label::kErr
                                          : Label::kOther);
  }
  const Label label = labels_[r.label];
  if (label == Label::kInvoke) {
    KvOp op;
    op.trace = r.trace;
    op.type = static_cast<KvOpType>(r.a >> 32);
    op.key = static_cast<std::int32_t>(r.a & 0xffffffffull);
    op.arg = static_cast<std::int64_t>(r.b);
    op.inv_at = r.at;
    op.inv_seq = r.seq;
    if (by_trace_.emplace(r.trace, ops_.size()).second) ops_.push_back(op);
  } else if (label == Label::kOk || label == Label::kErr) {
    const auto it = by_trace_.find(r.trace);
    if (it == by_trace_.end()) return;  // invoke lost to ring overwrite
    KvOp& op = ops_[it->second];
    op.res_at = r.at;
    op.res_seq = r.seq;
    if (label == Label::kOk) {
      op.completed = true;
      op.result = static_cast<std::int64_t>(r.a);
    } else {
      op.errored = true;
    }
  }
}

LinVerdict check_trace(const trace::Recorder& rec) {
  KvHistory history;
  for (const trace::Record& r : rec.snapshot()) history.feed(rec, r);
  return history.check();
}

}  // namespace check
