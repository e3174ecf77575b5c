#include "lynx/charlotte_backend.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace lynx {

namespace {

constexpr std::size_t kMaxReceive = 64 * 1024;

// Trace labels for the backend's own packet protocol (indexed by PType).
const char* ptype_label(std::uint8_t p) {
  switch (p) {
    case 0: return "pkt.request";
    case 1: return "pkt.reply";
    case 2: return "pkt.retry";
    case 3: return "pkt.forbid";
    case 4: return "pkt.allow";
    case 5: return "pkt.goahead";
    case 6: return "pkt.enc";
  }
  return "pkt.?";
}

// Both statuses end the link from the runtime's point of view; kLinkFailed
// is the kernel's absolute transport-failure notice (crashed peer, severed
// ring) rather than a deliberate Destroy, but LYNX reacts identically.
bool link_gone(charlotte::Status st) {
  return st == charlotte::Status::kLinkDestroyed ||
         st == charlotte::Status::kLinkFailed;
}

}  // namespace

// A Charlotte send in flight at the LYNX level.
class CharlottePendingSend final : public PendingSend {
 public:
  CharlottePendingSend(CharlotteBackend& backend, std::uint64_t out_id,
                       sim::Engine& engine)
      : backend_(&backend), out_id_(out_id), done_(engine) {}

  sim::Task<SendOutcome> wait() override {
    SendOutcome out = co_await done_.take();
    co_return out;
  }

  void cancel() override {
    if (settled_) return;
    backend_->request_cancel(out_id_);
  }

  void settle(SendOutcome out) {
    if (settled_) return;
    settled_ = true;
    done_.fulfill(std::move(out));
  }

 private:
  friend class CharlotteBackend;
  CharlotteBackend* backend_;
  std::uint64_t out_id_;
  sim::OneShot<SendOutcome> done_;
  bool settled_ = false;
};

// ===================== setup =====================

CharlotteBackend::CharlotteBackend(charlotte::Cluster& cluster,
                                   net::NodeId node)
    : cluster_(&cluster),
      node_(node),
      pid_(cluster.create_process(node)),
      drained_(cluster.engine()) {}

CharlotteBackend::~CharlotteBackend() = default;

void CharlotteBackend::start(Sink sink) {
  RELYNX_ASSERT_MSG(!running_, "backend started twice");
  sink_ = std::move(sink);
  running_ = true;
  cluster_->engine().spawn("charlotte-pump", pump());
}

CharlotteBackend::CLink* CharlotteBackend::find(BLink token) {
  auto it = links_.find(token);
  return it == links_.end() ? nullptr : &it->second;
}

CharlotteBackend::CLink* CharlotteBackend::find_by_end(charlotte::EndId end) {
  auto it = by_end_.find(end);
  return it == by_end_.end() ? nullptr : find(it->second);
}

BLink CharlotteBackend::adopt_end(charlotte::EndId end) {
  const BLink token = blink_ids_.next();
  CLink link;
  link.token = token;
  link.end = end;
  links_.emplace(token, std::move(link));
  by_end_.emplace(end, token);
  return token;
}

sim::Task<std::pair<BLink, BLink>> CharlotteBackend::make_link() {
  auto result = co_await cluster_->kernel(node_).make_link(pid_);
  RELYNX_ASSERT_MSG(result.ok(), "MakeLink failed");
  co_return std::pair(adopt_end(result.value().end1),
                      adopt_end(result.value().end2));
}

// ===================== wire format =====================
//
// payload: [0] ptype, [1] total enclosures of the LYNX message,
//          [2..] serialized body (Request/Reply first packets only).

namespace {

Bytes encode_packet(std::uint8_t ptype, std::uint8_t enc_total,
                    const Bytes& body) {
  Bytes out;
  out.reserve(2 + body.size());
  out.push_back(ptype);
  out.push_back(enc_total);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

// ===================== sending =====================

std::unique_ptr<PendingSend> CharlotteBackend::begin_send(BLink token,
                                                          WireMessage msg) {
  const std::uint64_t id = next_out_id_++;
  auto ps = std::make_unique<CharlottePendingSend>(*this, id,
                                                   cluster_->engine());
  OutMsg out;
  out.id = id;
  out.link = token;
  out.kind = msg.kind;
  out.body = std::move(msg.body);
  out.ps = ps.get();
  out.trace = msg.trace_id;
  for (BLink e : msg.enclosures) {
    CLink* enc = find(e);
    RELYNX_ASSERT_MSG(enc != nullptr, "unknown enclosure token");
    out.enclosure_ends.push_back(enc->end);
    out.enclosure_blinks.push_back(e);
  }
  CLink* link = find(token);
  if (link == nullptr || link->destroyed) {
    ps->settle(SendOutcome{SendResult::kLinkDestroyed, {}});
    return ps;
  }
  out_msgs_.emplace(id, std::move(out));
  link->out_queue.push_back(id);
  start_next_out(*link);
  return ps;
}

void CharlotteBackend::start_next_out(CLink& link) {
  if (link.active_out != 0 || link.destroyed) return;
  // FORBID blocks requests but not replies.
  for (auto it = link.out_queue.begin(); it != link.out_queue.end(); ++it) {
    OutMsg& out = out_msgs_.at(*it);
    if (out.kind == MsgKind::kRequest && link.forbidden) continue;
    link.active_out = *it;
    link.out_queue.erase(it);
    break;
  }
  if (link.active_out == 0) return;
  OutMsg& out = out_msgs_.at(link.active_out);
  out.next_enclosure = 0;
  out.awaiting_goahead = false;
  const auto total = static_cast<std::uint8_t>(out.enclosure_ends.size());
  KSend ks;
  ks.ptype = out.kind == MsgKind::kRequest ? PType::kRequest : PType::kReply;
  ks.payload = encode_packet(static_cast<std::uint8_t>(ks.ptype), total,
                             out.body);
  ks.out_id = out.id;
  ks.trace = out.trace;
  if (total >= 1) {
    ks.enclosure = out.enclosure_ends[0];
    out.next_enclosure = 1;
  }
  if (out.kind == MsgKind::kRequest) {
    ++stats_.requests_sent;
  } else {
    ++stats_.replies_sent;
  }
  queue_ksend(link, std::move(ks));
}

void CharlotteBackend::queue_ksend(CLink& link, KSend ks) {
  if (auto* rec = trace::get(cluster_->engine())) {
    rec->instant(node_.value(), "backend",
                 ptype_label(static_cast<std::uint8_t>(ks.ptype)), ks.trace,
                 ks.out_id, ks.payload.size());
  }
  link.ksend_queue.push_back(std::move(ks));
  if (!link.kernel_send_busy) {
    cluster_->engine().spawn("charlotte-ksend", run_ksend(link.token));
  }
}

sim::Task<> CharlotteBackend::run_ksend(BLink token) {
  CLink* link = find(token);
  if (link == nullptr || link->kernel_send_busy || link->ksend_queue.empty()) {
    co_return;
  }
  link->kernel_send_busy = true;
  const KSend& ks = link->ksend_queue.front();
  const std::uint64_t sent_out_id = ks.out_id;
  const PType sent_ptype = ks.ptype;
  ++packets_sent_;
  ++stats_.packets_sent;
  charlotte::Status st = co_await cluster_->kernel(node_).send(
      pid_, link->end, ks.payload, ks.enclosure, ks.trace);
  if (st == charlotte::Status::kOk) {
    // Fast path (DESIGN.md §12): a single-packet reply is "delivered"
    // from LYNX's point of view the moment the kernel accepts it.  The
    // paper already rules out telling a server about its reply's fate —
    // a caller that aborted is never reported (§3.2, deviation two), and
    // a top-level ack for replies would cost +50% traffic — so waiting
    // for the kernel-level MsgAck bought no semantics; it only kept the
    // server thread blocked for the ack round trip.  Requests (their
    // RETRY/FORBID screening needs the ack to sequence last_request) and
    // enclosure-bearing packets (the handoff must commit) still wait.
    if (sent_ptype == PType::kReply && sent_out_id != 0) {
      link = find(token);
      if (link != nullptr && !link->destroyed && link->kernel_send_busy &&
          !link->ksend_queue.empty() &&
          link->ksend_queue.front().out_id == sent_out_id) {
        auto it = out_msgs_.find(sent_out_id);
        if (it != out_msgs_.end() && it->second.kind == MsgKind::kReply &&
            it->second.enclosure_ends.empty()) {
          resolve(it->second, SendOutcome{SendResult::kDelivered, {}});
        }
      }
    }
    co_return;  // kernel completion (and bookkeeping) still via Wait
  }
  // Immediate rejection.
  link = find(token);
  if (link == nullptr) co_return;
  link->kernel_send_busy = false;
  if (!link->ksend_queue.empty()) link->ksend_queue.pop_front();
  if (link_gone(st)) {
    fail_link(*link);
  } else if (!link->ksend_queue.empty()) {
    cluster_->engine().spawn("charlotte-ksend", run_ksend(token));
  }
  note_drain_progress();
}

// ===================== pump & dispatch =====================

sim::Task<> CharlotteBackend::pump() {
  for (;;) {
    if (!running_ && !draining_) break;
    charlotte::Completion c = co_await cluster_->kernel(node_).wait(pid_);
    if (!running_ && !draining_) break;
    if (!c.end.valid()) break;  // shutdown poison
    if (c.direction == charlotte::Direction::kSend) {
      dispatch_send_done(c);
    } else {
      dispatch_receive(c);
    }
    note_drain_progress();
  }
}

void CharlotteBackend::resolve(OutMsg& out, SendOutcome outcome) {
  if (out.ps != nullptr) {
    out.ps->settle(std::move(outcome));
    out.ps = nullptr;
  }
}

void CharlotteBackend::dispatch_send_done(const charlotte::Completion& c) {
  CLink* link = find_by_end(c.end);
  if (link == nullptr) return;
  RELYNX_ASSERT(!link->ksend_queue.empty());
  KSend ks = std::move(link->ksend_queue.front());
  link->ksend_queue.pop_front();
  link->kernel_send_busy = false;

  if (link_gone(c.status)) {
    fail_link(*link);
    return;
  }
  if (c.status == charlotte::Status::kCancelled) {
    // Our kernel Cancel won the race: the enclosure never moved.
    if (ks.out_id != 0) {
      auto it = out_msgs_.find(ks.out_id);
      if (it != out_msgs_.end()) {
        resolve(it->second, SendOutcome{SendResult::kCancelled, {}});
        if (link->active_out == ks.out_id) link->active_out = 0;
        out_msgs_.erase(it);
      }
    }
    start_next_out(*link);
    drain(*link);
    return;
  }
  RELYNX_ASSERT(c.status == charlotte::Status::kOk);

  if (ks.out_id != 0) {
    auto it = out_msgs_.find(ks.out_id);
    if (it != out_msgs_.end()) {
      OutMsg& out = it->second;
      const auto total = static_cast<int>(out.enclosure_ends.size());
      const bool multi = total >= 2;
      if (ks.ptype == PType::kRequest && multi) {
        // figure 2: wait for GOAHEAD before streaming more enclosures
        out.awaiting_goahead = true;
        update_receive_posting(*link);
      } else if (out.next_enclosure < total) {
        // reply multi-enclosure, or post-goahead stream: next ENC packet
        KSend enc;
        enc.ptype = PType::kEnc;
        enc.payload = encode_packet(static_cast<std::uint8_t>(PType::kEnc),
                                    static_cast<std::uint8_t>(total), {});
        enc.enclosure = out.enclosure_ends[
            static_cast<std::size_t>(out.next_enclosure)];
        enc.out_id = out.id;
        enc.trace = out.trace;
        ++out.next_enclosure;
        ++stats_.enc_packets_sent;
        queue_ksend(*link, std::move(enc));
      } else {
        // message fully shipped
        resolve(out, SendOutcome{SendResult::kDelivered, {}});
        if (out.kind == MsgKind::kReply) {
          out_msgs_.erase(it);
        } else {
          link->last_request = out.id;  // may bounce via RETRY/FORBID
        }
        link->active_out = 0;
        start_next_out(*link);
      }
    }
  }
  drain(*link);
}

void CharlotteBackend::drain(CLink& link) {
  if (!link.kernel_send_busy && !link.ksend_queue.empty()) {
    cluster_->engine().spawn("charlotte-ksend", run_ksend(link.token));
  }
}

void CharlotteBackend::dispatch_receive(const charlotte::Completion& c) {
  CLink* link = find_by_end(c.end);
  if (link == nullptr) return;
  if (link_gone(c.status)) {
    link->recv_posted = false;
    fail_link(*link);
    return;
  }
  if (c.status != charlotte::Status::kOk) return;
  link->recv_posted = false;
  RELYNX_ASSERT_MSG(c.data.size() >= 2, "short Charlotte packet");
  const auto ptype = static_cast<PType>(c.data[0]);
  const std::uint8_t enc_total = c.data[1];
  Bytes body(c.data.begin() + 2, c.data.end());
  on_incoming(*link, ptype, enc_total, std::move(body), c.enclosure, c.trace);
  if (CLink* again = find(link->token)) {
    update_receive_posting(*again);
  }
}

void CharlotteBackend::on_incoming(CLink& link, PType ptype,
                                   std::uint8_t enc_total, Bytes body,
                                   charlotte::EndId enclosure,
                                   std::uint64_t trace) {
  switch (ptype) {
    case PType::kRequest: {
      if (!link.want_requests) {
        // ---- unwanted message (paper §3.2.1) ----
        ++stats_.unwanted_received;
        KSend back;
        if (link.want_replies || link.assembly.has_value()) {
          // We must keep a Receive posted (a reply/goahead is coming),
          // so the kernel cannot delay retransmissions for us: FORBID.
          back.ptype = PType::kForbid;
          back.payload = encode_packet(
              static_cast<std::uint8_t>(PType::kForbid), 0, {});
          link.forbade_peer = true;
          ++stats_.forbids_sent;
        } else {
          back.ptype = PType::kRetry;
          back.payload = encode_packet(
              static_cast<std::uint8_t>(PType::kRetry), 0, {});
          ++stats_.retries_sent;
        }
        back.enclosure = enclosure;  // return the moved end
        back.trace = trace;          // bounce keeps the request's identity
        queue_ksend(link, std::move(back));
        return;
      }
      if (enc_total >= 2) {
        Assembly a;
        a.kind = MsgKind::kRequest;
        a.body = std::move(body);
        a.expected = enc_total;
        a.trace = trace;
        if (enclosure.valid()) a.enclosures.push_back(adopt_end(enclosure));
        link.assembly = std::move(a);
        KSend go;
        go.ptype = PType::kGoahead;
        go.payload =
            encode_packet(static_cast<std::uint8_t>(PType::kGoahead), 0, {});
        go.trace = trace;
        ++stats_.goaheads_sent;
        queue_ksend(link, std::move(go));
        return;
      }
      std::vector<BLink> encl;
      if (enclosure.valid()) encl.push_back(adopt_end(enclosure));
      deliver(link, MsgKind::kRequest, std::move(body), std::move(encl),
              trace);
      return;
    }
    case PType::kReply: {
      if (enc_total >= 2) {
        Assembly a;
        a.kind = MsgKind::kReply;
        a.body = std::move(body);
        a.expected = enc_total;
        a.trace = trace;
        if (enclosure.valid()) a.enclosures.push_back(adopt_end(enclosure));
        link.assembly = std::move(a);
        return;  // ENC packets follow, no goahead needed
      }
      std::vector<BLink> encl;
      if (enclosure.valid()) encl.push_back(adopt_end(enclosure));
      deliver(link, MsgKind::kReply, std::move(body), std::move(encl), trace);
      return;
    }
    case PType::kEnc: {
      if (!link.assembly.has_value()) return;  // stray
      if (enclosure.valid()) {
        link.assembly->enclosures.push_back(adopt_end(enclosure));
      }
      if (static_cast<int>(link.assembly->enclosures.size()) >=
          link.assembly->expected) {
        Assembly done = std::move(*link.assembly);
        link.assembly.reset();
        deliver(link, done.kind, std::move(done.body),
                std::move(done.enclosures), done.trace);
      }
      return;
    }
    case PType::kGoahead: {
      if (link.active_out == 0) return;
      auto it = out_msgs_.find(link.active_out);
      if (it == out_msgs_.end() || !it->second.awaiting_goahead) return;
      OutMsg& out = it->second;
      out.awaiting_goahead = false;
      const auto total = static_cast<int>(out.enclosure_ends.size());
      if (out.next_enclosure < total) {
        KSend enc;
        enc.ptype = PType::kEnc;
        enc.payload = encode_packet(static_cast<std::uint8_t>(PType::kEnc),
                                    static_cast<std::uint8_t>(total), {});
        enc.enclosure = out.enclosure_ends[
            static_cast<std::size_t>(out.next_enclosure)];
        enc.out_id = out.id;
        enc.trace = out.trace;
        ++out.next_enclosure;
        ++stats_.enc_packets_sent;
        queue_ksend(link, std::move(enc));
      }
      return;
    }
    case PType::kRetry:
    case PType::kForbid: {
      // One of our requests bounced; the enclosure (if any) came home.
      ++stats_.requests_returned;
      if (ptype == PType::kForbid) link.forbidden = true;
      if (link.last_request != 0) {
        auto it = out_msgs_.find(link.last_request);
        if (it != out_msgs_.end()) {
          OutMsg& out = it->second;
          if (out.cancel_requested) {
            // The sending coroutine aborted after the kernel delivered
            // the packet: the request dies here, and the returned
            // enclosure has no owner any more — it is lost (§3.2.2).
            if (enclosure.valid() || !out.enclosure_ends.empty()) {
              ++stats_.enclosures_lost;
            }
            out_msgs_.erase(it);
            link.last_request = 0;
            start_next_out(link);
            return;
          }
          out.next_enclosure = 0;
          out.awaiting_goahead = false;
          if (ptype == PType::kForbid) {
            link.deferred_requests.push_back(out.id);
          } else {
            // RETRY: resend at once; the peer has no Receive posted, so
            // the kernel will delay it until the queue reopens.
            link.out_queue.push_front(out.id);
          }
          link.last_request = 0;
        }
      } else if (enclosure.valid()) {
        // A bounce for a request we no longer track (cancelled and
        // raced): the returned end is stranded — the §3.2.2 loss.
        ++stats_.enclosures_lost;
      }
      start_next_out(link);
      return;
    }
    case PType::kAllow: {
      link.forbidden = false;
      while (!link.deferred_requests.empty()) {
        link.out_queue.push_front(link.deferred_requests.back());
        link.deferred_requests.pop_back();
      }
      start_next_out(link);
      return;
    }
  }
}

void CharlotteBackend::deliver(CLink& link, MsgKind kind, Bytes body,
                               std::vector<BLink> enclosures,
                               std::uint64_t trace) {
  // Delivering a request ends any pending retry/forbid consideration on
  // the pairing: a reply delivered on this link also retires the
  // bounce-tracking for our last request (it was evidently accepted).
  if (kind == MsgKind::kReply && link.last_request != 0) {
    out_msgs_.erase(link.last_request);
    link.last_request = 0;
  }
  BackendEvent ev;
  ev.kind = kind == MsgKind::kRequest ? BackendEvent::Kind::kRequestArrived
                                      : BackendEvent::Kind::kReplyArrived;
  ev.link = link.token;
  ev.body = std::move(body);
  ev.enclosures = std::move(enclosures);
  ev.trace = trace;
  if (sink_) sink_(std::move(ev));
}

// ===================== receive posting & screening =====================

void CharlotteBackend::update_receive_posting(CLink& link) {
  if (link.destroyed) return;
  bool awaiting_goahead = false;
  if (link.active_out != 0) {
    auto it = out_msgs_.find(link.active_out);
    awaiting_goahead =
        it != out_msgs_.end() && it->second.awaiting_goahead;
  }
  const bool need = link.want_requests || link.want_replies ||
                    link.forbidden || awaiting_goahead ||
                    link.assembly.has_value();
  if (need && !link.recv_posted) {
    link.recv_posted = true;
    cluster_->engine().spawn("charlotte-recv", post_receive(link.token));
  } else if (!need && link.recv_posted) {
    cluster_->engine().spawn("charlotte-cancel-recv",
                             cancel_receive(link.token));
  }
  maybe_send_allow(link);
}

sim::Task<> CharlotteBackend::post_receive(BLink token) {
  CLink* link = find(token);
  if (link == nullptr || link->destroyed) co_return;
  charlotte::Status st = co_await cluster_->kernel(node_).receive(
      pid_, link->end, kMaxReceive);
  link = find(token);
  if (link == nullptr) co_return;
  if (link_gone(st)) {
    link->recv_posted = false;
    fail_link(*link);
  } else if (st != charlotte::Status::kOk &&
             st != charlotte::Status::kActivityPending) {
    link->recv_posted = false;
  }
}

sim::Task<> CharlotteBackend::cancel_receive(BLink token) {
  CLink* link = find(token);
  if (link == nullptr || link->destroyed || !link->recv_posted) co_return;
  charlotte::Status st = co_await cluster_->kernel(node_).cancel(
      pid_, link->end, charlotte::Direction::kReceive);
  link = find(token);
  if (link == nullptr) co_return;
  if (st == charlotte::Status::kOk) {
    link->recv_posted = false;
    // Interest may have changed while the Cancel was in flight (e.g.
    // the request queue reopened): re-evaluate, which also sends any
    // owed ALLOW.
    update_receive_posting(*link);
  }
  // kCancelTooLate: a message is already in; screening handles it.
}

void CharlotteBackend::maybe_send_allow(CLink& link) {
  // paper: "sends an allow message as soon as it is either willing to
  // receive requests ... or has no Receive outstanding (so the kernel
  // will delay all messages)."
  if (!link.forbade_peer) return;
  if (link.want_requests || !link.recv_posted) {
    link.forbade_peer = false;
    KSend allow;
    allow.ptype = PType::kAllow;
    allow.payload =
        encode_packet(static_cast<std::uint8_t>(PType::kAllow), 0, {});
    ++stats_.allows_sent;
    queue_ksend(link, std::move(allow));
  }
}

void CharlotteBackend::set_interest(BLink token, bool want_requests,
                                    bool want_replies) {
  CLink* link = find(token);
  if (link == nullptr || link->destroyed) return;
  link->want_requests = want_requests;
  link->want_replies = want_replies;
  update_receive_posting(*link);
}

void CharlotteBackend::retract_reply_interest(BLink token) {
  // Charlotte cannot tell the server (that would need a top-level ack
  // for replies, +50% message traffic — paper §3.2.2).  The runtime
  // will silently discard the unwanted reply when it arrives.
  (void)token;
}

// ===================== cancel / destroy / shutdown =====================

void CharlotteBackend::request_cancel(std::uint64_t out_id) {
  auto it = out_msgs_.find(out_id);
  if (it == out_msgs_.end()) return;
  OutMsg& out = it->second;
  out.cancel_requested = true;
  CLink* link = find(out.link);
  if (link == nullptr) return;
  // Still queued (not yet at the kernel)?  Revoke locally: enclosures
  // are untouched.
  auto queued = std::find(link->out_queue.begin(), link->out_queue.end(),
                          out_id);
  if (queued != link->out_queue.end()) {
    link->out_queue.erase(queued);
    resolve(out, SendOutcome{SendResult::kCancelled, {}});
    out_msgs_.erase(it);
    return;
  }
  auto deferred = std::find(link->deferred_requests.begin(),
                            link->deferred_requests.end(), out_id);
  if (deferred != link->deferred_requests.end()) {
    link->deferred_requests.erase(deferred);
    resolve(out, SendOutcome{SendResult::kCancelled, {}});
    out_msgs_.erase(it);
    return;
  }
  if (link->active_out == out_id) {
    cluster_->engine().spawn("charlotte-cancel-send",
                             issue_cancel(out.link));
    return;
  }
  if (link->last_request == out_id) {
    // Already shipped and acknowledged: too late to revoke.  Mark it so
    // a later RETRY/FORBID bounce does not resurrect the aborted
    // request; any enclosure it carried comes back ownerless and is
    // LOST (the paper's §3.2.2 deviation).
    // (cancel_requested was set above.)
  }
}

sim::Task<> CharlotteBackend::issue_cancel(BLink token) {
  CLink* link = find(token);
  if (link == nullptr || link->destroyed) co_return;
  (void)co_await cluster_->kernel(node_).cancel(pid_, link->end,
                                                charlotte::Direction::kSend);
  // Outcome arrives as a kCancelled send completion if we won; if we
  // lost, the normal ACK resolves kDelivered and any enclosures are
  // gone with the message (the paper's loss window).
}

void CharlotteBackend::fail_link(CLink& link) {
  if (link.destroyed) return;
  link.destroyed = true;
  auto fail_out = [&](std::uint64_t id) {
    auto it = out_msgs_.find(id);
    if (it == out_msgs_.end()) return;
    stats_.enclosures_lost += it->second.enclosure_ends.empty() ? 0 : 1;
    resolve(it->second, SendOutcome{SendResult::kLinkDestroyed, {}});
    out_msgs_.erase(it);
  };
  if (link.active_out != 0) fail_out(link.active_out);
  link.active_out = 0;
  for (std::uint64_t id : link.out_queue) fail_out(id);
  link.out_queue.clear();
  for (std::uint64_t id : link.deferred_requests) fail_out(id);
  link.deferred_requests.clear();
  if (link.last_request != 0) {
    out_msgs_.erase(link.last_request);
    link.last_request = 0;
  }
  BackendEvent ev;
  ev.kind = BackendEvent::Kind::kLinkDestroyed;
  ev.link = link.token;
  if (sink_) sink_(std::move(ev));
}

sim::Task<void> CharlotteBackend::destroy(BLink token) {
  CLink* link = find(token);
  if (link == nullptr) co_return;
  const charlotte::EndId end = link->end;
  link->destroyed = true;
  by_end_.erase(end);
  links_.erase(token);
  (void)co_await cluster_->kernel(node_).destroy(pid_, end);
}

void CharlotteBackend::shutdown() {
  if (!running_) return;
  running_ = false;
  draining_ = true;
  cluster_->engine().spawn("charlotte-shutdown", perform_shutdown());
}

bool CharlotteBackend::has_unsettled_ksends() const {
  for (const auto& [token, link] : links_) {
    if (link.destroyed) continue;
    if (link.kernel_send_busy || !link.ksend_queue.empty()) return true;
  }
  return false;
}

void CharlotteBackend::note_drain_progress() {
  if (draining_ && !has_unsettled_ksends()) drained_.wake_all();
}

sim::Task<> CharlotteBackend::perform_shutdown() {
  // "Before terminating, each process destroys all of its links" (§2.1)
  // — but destruction must not outrun delivery.  With the reply fast
  // path a server thread can exit while its final reply is still in a
  // kernel send (possibly mid-retransmission under loss); yanking the
  // links down at that instant would race the delivery the caller is
  // blocked on.  Drain accepted kernel sends first; the pump keeps
  // dispatching completions while draining_ is set.  If a send can
  // never settle (lossy medium, retransmission disabled) this parks
  // forever — exactly as a thread blocked in reply() would.
  while (has_unsettled_ksends()) co_await drained_.wait();
  draining_ = false;
  // Process termination destroys all links (the kernel guarantees this
  // for real termination; we do it explicitly, then poison the pump).
  cluster_->terminate(pid_);
  // A pump still parked on the retired completion mailbox stays parked;
  // the engine reaps its frame at teardown.
  co_return;
}

// ===================== bootstrap =====================

sim::Task<std::pair<LinkHandle, LinkHandle>> CharlotteBackend::connect(
    Process& a, Process& b) {
  auto* ba = dynamic_cast<CharlotteBackend*>(&a.backend());
  auto* bb = dynamic_cast<CharlotteBackend*>(&b.backend());
  RELYNX_ASSERT_MSG(ba != nullptr && bb != nullptr,
                    "connect requires Charlotte backends");
  RELYNX_ASSERT_MSG(ba->cluster_ == bb->cluster_, "same Crystal required");
  charlotte::LinkPair pair =
      ba->cluster_->bootstrap_link(ba->pid_, bb->pid_);
  const BLink ta = ba->adopt_end(pair.end1);
  const BLink tb = bb->adopt_end(pair.end2);
  co_return std::pair(a.adopt_link(ta), b.adopt_link(tb));
}

std::unique_ptr<CharlotteBackend> make_charlotte_backend(
    charlotte::Cluster& cluster, net::NodeId node) {
  return std::make_unique<CharlotteBackend>(cluster, node);
}

}  // namespace lynx
