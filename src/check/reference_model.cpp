#include "check/reference_model.hpp"

#include <cassert>
#include <cstdio>
#include <string_view>
#include <utility>

namespace check {

namespace {

// Exact simulated time in microseconds, from the integer nanoseconds
// (a double would keep only six significant digits).
std::string format_time(sim::Time at) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lldus",
                static_cast<long long>(at / 1000),
                static_cast<long long>(at % 1000));
  return buf;
}

}  // namespace

std::string Divergence::render() const {
  std::string out = "divergence [";
  out += rule;
  out += "] at ";
  out += format_time(at);
  out += " seq=" + std::to_string(seq);
  out += " trace=" + std::to_string(trace);
  out += ": ";
  out += detail;
  if (!context.empty()) {
    out += "\n  causal context (trace " + std::to_string(trace) + "):";
    for (const std::string& line : context) out += "\n    " + line;
  }
  return out;
}

bool ReferenceModel::replay(const trace::Recorder& rec) {
  assert(records_ == 0 && !divergence_);  // a model checks one stream
  if (rec.overwritten() != 0) {
    Divergence d;
    d.rule = "ring-overflow";
    d.detail = "recorder dropped " + std::to_string(rec.overwritten()) +
               " records; conformance needs the full stream (raise the "
               "recorder's capacity)";
    divergence_ = std::move(d);
    return false;
  }
  for (const trace::Record& r : rec.snapshot()) feed(rec, r);
  return finish();
}

std::vector<std::string> ReferenceModel::render(const History& history) const {
  std::vector<std::string> lines;
  lines.reserve(history.size());
  for (const ContextEntry& e : history) {
    const char* edge = e.edge == Edge::kBegin ? "begin"
                       : e.edge == Edge::kEnd ? "end"
                                              : "instant";
    std::string line = "[";
    line += format_time(e.at);
    line += "] seq=" + std::to_string(e.seq);
    line += " node=" + std::to_string(e.node);
    line += " ";
    line += edge;
    line += " ";
    line += rec_->label_name(e.label);
    if (e.a != 0) line += " a=" + std::to_string(e.a);
    lines.push_back(std::move(line));
  }
  return lines;
}

void ReferenceModel::diverge(const trace::Record& r, std::string rule,
                             std::string detail) {
  Divergence d;
  d.seq = r.seq;
  d.at = r.at;
  d.trace = r.trace;
  d.rule = std::move(rule);
  d.detail = std::move(detail);
  if (r.trace != 0) {
    auto it = rpcs_.find(r.trace);
    if (it != rpcs_.end()) d.context = render(it->second.history);
  } else {
    d.context = render(untraced_history_);
  }
  divergence_ = std::move(d);
}

void ReferenceModel::feed(const trace::Recorder& rec, const trace::Record& r) {
  static constexpr std::pair<std::string_view, Op> kOps[] = {
      {"call", Op::kCall},                {"call.gather", Op::kCallGather},
      {"call.send", Op::kCallSend},       {"call.wait", Op::kCallWait},
      {"call.scatter", Op::kCallScatter}, {"recv.scatter", Op::kRecvScatter},
      {"reply.gather", Op::kReplyGather}, {"reply.send", Op::kReplySend},
      {"rpc.error", Op::kRpcError},       {"req.reject", Op::kReqReject},
      {"link.dead", Op::kLinkDead}};
  // First divergence wins: a diverged model reads no more.
  if (divergence_.has_value()) return;
  ++records_;
  rec_ = &rec;

  // Ids are dense and given in first-use order, so a track or label is
  // named once, by the first record that carries its id.
  if (r.kind != trace::Kind::kSpanEnd) {
    for (; tracks_seen_ <= r.track; ++tracks_seen_) {
      if (rec.track_name(tracks_seen_) == "runtime") {
        runtime_track_ = tracks_seen_;
      }
    }
    while (ops_.size() <= r.label) {
      const auto id = static_cast<std::uint16_t>(ops_.size());
      ops_.push_back(Op::kOther);
      for (const auto& [name, op] : kOps) {
        if (rec.label_name(id) == name) ops_.back() = op;
      }
    }
  }

  // Resolve the (label, trace) this record talks about.  Span ends carry
  // only the span id, so they are attributed via the begin that opened
  // them; everything not on the runtime track is outside the model.
  std::uint16_t label = r.label;
  std::uint64_t trace = r.trace;
  Edge edge = Edge::kBegin;

  switch (r.kind) {
    case trace::Kind::kSpanBegin:
      if (r.track != runtime_track_) return;
      open_spans_[r.span] = {label, trace};
      break;
    case trace::Kind::kInstant:
      if (r.track != runtime_track_) return;
      edge = Edge::kInstant;
      break;
    case trace::Kind::kSpanEnd: {
      auto it = open_spans_.find(r.span);
      if (it == open_spans_.end()) return;  // end of a non-runtime span
      label = it->second.label;
      trace = it->second.trace;
      open_spans_.erase(it);
      edge = Edge::kEnd;
      break;
    }
    default:
      return;  // text / context records carry no RPC semantics
  }
  const Op op = ops_[label];
  const ContextEntry entry{r.at, r.seq, r.a, r.node, label, edge};

  // Instants are checked even with trace == 0: an error raised outside
  // any call's causal chain (e.g. "call on destroyed link" before a
  // trace is allocated) is still an error the scenario must expect.
  if (edge == Edge::kInstant) {
    RpcState* st = trace != 0 ? &rpcs_[trace] : nullptr;
    History& history = st != nullptr ? st->history : untraced_history_;
    if (history.size() < kMaxHistory) history.push_back(entry);
    if (op == Op::kRpcError) {
      const auto kind = static_cast<lynx::ErrorKind>(r.a);
      if (st != nullptr) st->failed = true;
      if (!expectation_.allows(kind)) {
        diverge(r, "error-surface",
                std::string("rpc failed with disallowed error kind '") +
                    lynx::to_string(kind) + "'");
      }
    } else if (op == Op::kReqReject) {
      if (st != nullptr) st->rejected = true;
      if (!expectation_.allow_rejects) {
        diverge(r, "screening",
                "kernel screened out a request, but the scenario declares "
                "every operation it calls");
      }
    } else if (op == Op::kLinkDead) {
      if (!expectation_.allow_link_death) {
        diverge(r, "link-death",
                "a link death notice in a scenario whose processes all "
                "outlive the run (spurious failure declaration?)");
      }
    }
    return;
  }
  if (trace == 0) return;

  RpcState& st = rpcs_[trace];
  if (st.history.size() < kMaxHistory) st.history.push_back(entry);

  if (edge == Edge::kEnd) {
    if (op == Op::kCall) {
      st.call_open = false;
      if (!st.failed && !st.rejected &&
          !(st.served && st.reply_sent && st.scatter)) {
        diverge(r, "completion",
                "call completed without error but the reference model saw "
                "no full serve/reply/scatter chain (served=" +
                    std::to_string(st.served) +
                    " replied=" + std::to_string(st.reply_sent) +
                    " scattered=" + std::to_string(st.scatter) + ")");
      }
    }
    return;
  }

  // kSpanBegin on the runtime track: the phase machine.
  if (op == Op::kCall) {
    ++calls_;
    if (st.call_begun && expectation_.unique_traces) {
      diverge(r, "unique-call",
              "second call span on one causal trace (trace ids are "
              "per-call in this scenario)");
    }
    st.call_begun = true;
    st.call_open = true;
  } else if (op == Op::kCallGather) {
    if (!st.call_open) {
      diverge(r, "phase-order", "argument gather outside an open call span");
    }
    st.gather = true;
  } else if (op == Op::kCallSend) {
    if (!st.call_open || !st.gather) {
      diverge(r, "phase-order", "request send before argument gather");
    }
    st.send = true;
  } else if (op == Op::kCallWait) {
    if (!st.call_open || !st.send) {
      diverge(r, "phase-order", "reply wait before request send");
    }
    st.wait = true;
  } else if (op == Op::kCallScatter) {
    if (!st.call_open || !st.wait) {
      diverge(r, "phase-order", "reply scatter before reply wait");
    } else if (!st.reply_sent) {
      diverge(r, "reply-consumption",
              "client scattered a reply the server never sent");
    }
    st.scatter = true;
  } else if (op == Op::kRecvScatter) {
    if (!st.send) {
      diverge(r, "service-after-send",
              "request serviced before any client sent it");
    } else if (st.served) {
      diverge(r, "single-delivery",
              "request serviced twice — a retransmit or duplicate leaked "
              "through the kernel's dedup/screening machinery");
    }
    st.served = true;
  } else if (op == Op::kReplyGather) {
    if (!st.served) {
      diverge(r, "reply-after-serve",
              "reply gathered for a request never serviced");
    }
  } else if (op == Op::kReplySend) {
    if (!st.served) {
      diverge(r, "reply-after-serve",
              "reply sent for a request never serviced");
    } else if (st.reply_sent) {
      diverge(r, "reply-after-serve", "second reply for one request");
    }
    st.reply_sent = true;
  }
}

bool ReferenceModel::finish() {
  if (divergence_.has_value()) return false;
  if (!expectation_.require_completion) return true;
  // Deterministic pick: report the lowest trace id left incomplete.
  const RpcState* worst = nullptr;
  std::uint64_t worst_trace = 0;
  for (const auto& [trace, st] : rpcs_) {
    if (!st.call_begun) continue;
    const bool done = !st.call_open;
    if (done) continue;
    if (worst == nullptr || trace < worst_trace) {
      worst = &st;
      worst_trace = trace;
    }
  }
  if (worst == nullptr) return true;
  Divergence d;
  d.trace = worst_trace;
  d.rule = "incomplete-call";
  d.detail =
      "a call span never closed: the run ended with an RPC still in "
      "flight";
  d.context = render(worst->history);
  divergence_ = std::move(d);
  return false;
}

}  // namespace check
