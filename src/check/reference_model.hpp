// Executable reference model of LYNX link/RPC semantics.
//
// The paper's central claim is semantic: all three substrates must
// present *identical* LYNX semantics despite radically different kernel
// interfaces.  This model is the single, substrate-independent
// definition of "identical": it reads a run's runtime-track trace
// stream record by record (the spans and instants src/lynx/runtime.cpp emits
// — call / call.gather / call.send / call.wait / call.scatter on the
// client, recv.scatter / reply.gather / reply.send on the server, plus
// rpc.error / req.reject / link.dead instants) and checks every event
// against the §2.1/§2.2 contract:
//
//   R1 unique-call        one call span per causal trace (the explorer
//                         never reuses trace contexts)
//   R2 phase-order        gather -> send -> wait -> scatter, inside an
//                         open call span
//   R3 service-after-send a request is serviced only after its send
//                         span began (no service without a request)
//   R4 single-delivery    each request is serviced at most once — the
//                         screening / dedup machinery of every kernel
//                         must collapse retransmits and duplicates
//   R5 reply-after-serve  a reply is produced only for a serviced
//                         request, and only once
//   R6 reply-consumption  the client consumes a reply only after the
//                         server produced one (or screening rejected
//                         the request)
//   R7 completion         a call that ends without an error consumed
//                         exactly one served reply
//   R8 error-surface      every rpc.error carries an ErrorKind the
//                         scenario's Expectation allows (an empty allow
//                         list means a clean run must be error-free) —
//                         including errors raised outside any call's
//                         causal chain (trace 0)
//   R9 screening          req.reject appears only in scenarios that
//                         send undeclared operations
//   R10 link-death        opt-in: "link.dead" is ordinarily legitimate
//                         (a process whose last thread exits terminates
//                         and destroys its links — §2.1 — so the peer
//                         of an earlier finisher always sees it), but
//                         scenarios that keep every process alive for
//                         the whole window can forbid it
//
// Because trace emission order equals simulated causality order (one
// engine, one recorder, monotone seq), checking the recorder's one
// stream in order yields the FIRST divergent event, reported with the
// causal context of its trace.  The model reads one record at a time
// (feed), so it checks a run either as it runs, as the recorder's sink,
// or afterwards, over the recorder's snapshot (replay); both see the
// same records and reach the same verdict.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id_map.hpp"
#include "lynx/errors.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace check {

// What the scenario permits.  Defaults describe a clean run: unique
// causal chains, no screening rejects, no errors of any kind, and every
// call driven to completion.
struct Expectation {
  bool unique_traces = true;
  bool allow_rejects = false;
  bool require_completion = true;
  // "link.dead" instants are allowed by default: orderly termination
  // destroys links (§2.1), so whichever process finishes first makes
  // its peer observe one.  A spurious death that actually breaks
  // traffic still surfaces as rpc.error (R8) or an incomplete call.
  // Scenarios whose processes all outlive the window can set this
  // false to treat any death notice as a divergence.
  bool allow_link_death = true;
  std::vector<lynx::ErrorKind> allowed_errors;

  [[nodiscard]] bool allows(lynx::ErrorKind kind) const {
    for (lynx::ErrorKind k : allowed_errors) {
      if (k == kind) return true;
    }
    return false;
  }
};

// The first event at which the observed stream left the model, with the
// causal history of its trace.
struct Divergence {
  std::uint64_t seq = 0;
  sim::Time at = 0;
  std::uint64_t trace = 0;
  std::string rule;    // short rule id, e.g. "single-delivery"
  std::string detail;  // one human sentence
  std::vector<std::string> context;  // rendered same-trace events, oldest first

  [[nodiscard]] std::string render() const;
};

class ReferenceModel {
 public:
  // Causal context kept per trace: its first kMaxHistory runtime records.
  static constexpr std::size_t kMaxHistory = 48;

  explicit ReferenceModel(Expectation expectation = {})
      : expectation_(expectation) {}

  // Checks `r`, the next record `rec` emitted.  Labels and tracks are
  // resolved by id on first sight, through the recorder's names.  Once
  // the model has diverged it reads nothing more.
  void feed(const trace::Recorder& rec, const trace::Record& r);
  // Applies the end-of-stream checks.  Returns true when the stream fed
  // so far conforms; otherwise divergence() describes the first
  // violation.
  bool finish();

  // Feeds a fresh model the recorder's retained stream in emission
  // order, then finishes.  The recorder must have retained everything
  // (overwritten() == 0) — a wrapped ring, or a recorder with none, is
  // itself reported as a divergence ("ring-overflow") rather than
  // silently passing on partial evidence.
  bool replay(const trace::Recorder& rec);

  [[nodiscard]] const std::optional<Divergence>& divergence() const {
    return divergence_;
  }
  [[nodiscard]] std::uint64_t records_checked() const { return records_; }
  [[nodiscard]] std::uint64_t calls_checked() const { return calls_; }

 private:
  // The runtime-track labels the contract speaks about; every other
  // runtime label is kept as context but checked by nothing.
  enum class Op : std::uint8_t {
    kOther,
    kCall,
    kCallGather,
    kCallSend,
    kCallWait,
    kCallScatter,
    kRecvScatter,
    kReplyGather,
    kReplySend,
    kRpcError,
    kReqReject,
    kLinkDead,
  };
  enum class Edge : std::uint8_t { kBegin, kEnd, kInstant };

  // One context record, unrendered: text is built only when a
  // divergence reports it.
  struct ContextEntry {
    sim::Time at = 0;
    std::uint64_t seq = 0;
    std::uint64_t a = 0;
    std::uint32_t node = 0;
    std::uint16_t label = 0;
    Edge edge = Edge::kBegin;
  };
  using History = std::vector<ContextEntry>;

  struct RpcState {
    bool call_begun = false;
    bool call_open = false;
    bool gather = false;
    bool send = false;
    bool wait = false;
    bool scatter = false;
    bool served = false;      // recv.scatter begun (server side)
    bool reply_sent = false;  // reply.send begun (server side)
    bool rejected = false;    // req.reject instant (screening)
    bool failed = false;      // rpc.error instant on this trace
    History history;
  };

  // A runtime-track span awaiting its end (kSpanEnd records carry only
  // the span id).
  struct OpenSpan {
    std::uint16_t label = 0;
    std::uint64_t trace = 0;
  };

  void diverge(const trace::Record& r, std::string rule, std::string detail);
  [[nodiscard]] std::vector<std::string> render(const History& history) const;

  Expectation expectation_;
  // The recorder being checked, and the ids of its names seen so far:
  // labels resolved to Ops, tracks to the runtime track's id.
  const trace::Recorder* rec_ = nullptr;
  std::vector<Op> ops_;  // by label id
  std::uint32_t tracks_seen_ = 0;
  std::optional<std::uint32_t> runtime_track_;
  std::optional<Divergence> divergence_;
  std::unordered_map<std::uint64_t, RpcState> rpcs_;
  // Runtime-track instants outside any causal chain (trace 0): kept so
  // a trace-0 divergence still carries its lead-up (e.g. the link.dead
  // notice that explains a later "call on destroyed link" error).
  History untraced_history_;
  common::IdMap<trace::SpanId, OpenSpan> open_spans_;
  std::uint64_t records_ = 0;
  std::uint64_t calls_ = 0;
};

}  // namespace check
