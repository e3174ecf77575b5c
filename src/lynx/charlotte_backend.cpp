#include "lynx/charlotte_backend.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace lynx {

namespace {

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

// ===================== setup =====================

CharlotteBackend::CharlotteBackend(charlotte::Cluster& cluster,
                                   net::NodeId node)
    : cluster_(&cluster),
      node_(node),
      counts_(cluster.engine().counts(node.value())),
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
// The first packet's header goes into the headroom the runtime left in
// front of the body (header_bytes); the receiver strips it by offset.
// Every other packet is the two header bytes alone.

CharlotteBackend::KSend CharlotteBackend::control_packet(
    PType ptype, std::uint8_t enc_total, std::uint64_t trace) {
  KSend ks;
  ks.ptype = ptype;
  ks.payload = charlotte::Payload{static_cast<std::uint8_t>(ptype), enc_total};
  ks.trace = trace;
  return ks;
}

// ===================== sending =====================

void CharlotteBackend::begin_send(BLink token, WireMessage msg,
                                  std::uint64_t id) {
  OutMsg out;
  out.id = id;
  out.link = token;
  out.kind = msg.kind;
  out.trace = msg.trace_id;
  for (BLink e : msg.enclosures) {
    CLink* enc = find(e);
    RELYNX_ASSERT_MSG(enc != nullptr, "unknown enclosure token");
    out.enclosure_ends.push_back(enc->end);
    out.enclosure_blinks.push_back(e);
  }
  out.packet = std::move(msg.body);
  std::uint8_t* header = out.packet.prepend(header_bytes(0));
  header[0] = static_cast<std::uint8_t>(
      out.kind == MsgKind::kRequest ? PType::kRequest : PType::kReply);
  header[1] = static_cast<std::uint8_t>(out.enclosure_ends.size());
  CLink* link = find(token);
  if (link == nullptr || link->destroyed) {
    settle(id, SendOutcome{SendResult::kLinkDestroyed, {}});
    return;
  }
  out_msgs_.emplace(id, std::move(out));
  link->out_queue.push_back(id);
  start_next_out(*link);
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
  ks.payload = out.packet;  // shared: a RETRY resend reuses it
  ks.out_id = out.id;
  ks.trace = out.trace;
  if (total >= 1) {
    ks.enclosure = out.enclosure_ends[0];
    out.next_enclosure = 1;
  }
  if (out.kind == MsgKind::kRequest) {
    ++counts_.requests_sent;
  } else {
    ++counts_.replies_sent;
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
  KSend& ks = link->ksend_queue.front();
  const std::uint64_t sent_out_id = ks.out_id;
  const PType sent_ptype = ks.ptype;
  ++counts_.packets_sent;
  charlotte::Status st = co_await cluster_->kernel(node_).send(
      pid_, link->end, std::move(ks.payload), ks.enclosure, ks.trace);
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
          settle(sent_out_id, SendOutcome{SendResult::kDelivered, {}});
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
      dispatch_receive(std::move(c));
    }
    note_drain_progress();
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
        settle(ks.out_id, SendOutcome{SendResult::kCancelled, {}});
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
      if (ks.ptype == PType::kRequest && out.enclosure_ends.size() >= 2) {
        // figure 2: wait for GOAHEAD before streaming more enclosures
        out.awaiting_goahead = true;
        update_receive_posting(*link);
      } else if (!send_next_enc(*link, out)) {
        // message fully shipped (a multi-enclosure reply, or a request
        // past its GOAHEAD, first streams one ENC packet per completion)
        settle(out.id, SendOutcome{SendResult::kDelivered, {}});
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

bool CharlotteBackend::send_next_enc(CLink& link, OutMsg& out) {
  const auto total = static_cast<int>(out.enclosure_ends.size());
  if (out.next_enclosure >= total) return false;
  KSend enc = control_packet(PType::kEnc, static_cast<std::uint8_t>(total),
                             out.trace);
  enc.enclosure =
      out.enclosure_ends[static_cast<std::size_t>(out.next_enclosure)];
  enc.out_id = out.id;
  ++out.next_enclosure;
  ++counts_.enc_packets_sent;
  queue_ksend(link, std::move(enc));
  return true;
}

void CharlotteBackend::drain(CLink& link) {
  if (!link.kernel_send_busy && !link.ksend_queue.empty()) {
    cluster_->engine().spawn("charlotte-ksend", run_ksend(link.token));
  }
}

void CharlotteBackend::dispatch_receive(charlotte::Completion c) {
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
  common::Body body = std::move(c.data);
  body.drop_front(2);
  on_incoming(*link, ptype, enc_total, std::move(body), c.enclosure, c.trace);
  if (CLink* again = find(link->token)) {
    update_receive_posting(*again);
  }
}

void CharlotteBackend::on_incoming(CLink& link, PType ptype,
                                   std::uint8_t enc_total, common::Body body,
                                   charlotte::EndId enclosure,
                                   std::uint64_t trace) {
  switch (ptype) {
    case PType::kRequest:
    case PType::kReply: {
      const MsgKind kind =
          ptype == PType::kRequest ? MsgKind::kRequest : MsgKind::kReply;
      if (kind == MsgKind::kRequest && !link.want_requests) {
        // ---- unwanted message (paper §3.2.1) ----
        ++counts_.unwanted_received;
        // We must keep a Receive posted if a reply or goahead is coming,
        // so the kernel cannot delay retransmissions for us: FORBID.
        const bool forbid = link.want_replies || link.assembly.has_value();
        if (forbid) {
          link.forbade_peer = true;
          ++counts_.forbids_sent;
        } else {
          ++counts_.retries_sent;
        }
        // The bounce keeps the request's identity.
        KSend back = control_packet(forbid ? PType::kForbid : PType::kRetry,
                                    0, trace);
        back.enclosure = enclosure;  // return the moved end
        queue_ksend(link, std::move(back));
        return;
      }
      std::vector<BLink> encl;
      if (enclosure.valid()) encl.push_back(adopt_end(enclosure));
      if (enc_total < 2) {
        deliver(link, kind, std::move(body), std::move(encl), trace);
        return;
      }
      link.assembly =
          Assembly{kind, std::move(body), std::move(encl), enc_total, trace};
      if (kind == MsgKind::kReply) return;  // ENC packets follow unasked
      ++counts_.goaheads_sent;
      queue_ksend(link, control_packet(PType::kGoahead, 0, trace));
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
      it->second.awaiting_goahead = false;
      send_next_enc(link, it->second);
      return;
    }
    case PType::kRetry:
    case PType::kForbid: {
      // One of our requests bounced; the enclosure (if any) came home.
      ++counts_.requests_returned;
      if (ptype == PType::kForbid) link.forbidden = true;
      if (link.last_request != 0) {
        auto it = out_msgs_.find(link.last_request);
        if (it != out_msgs_.end()) {
          OutMsg& out = it->second;
          if (out.cancel_requested) {
            // The sending coroutine aborted after the kernel delivered
            // the packet: the request dies here, and the returned
            // enclosure has no owner any more — it is lost (§3.2.2).
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
      }
      // A bounce for a request we no longer track (cancelled and raced)
      // strands any returned end: the §3.2.2 loss.
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

void CharlotteBackend::deliver(CLink& link, MsgKind kind, common::Body body,
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
    ++counts_.allows_sent;
    queue_ksend(link, control_packet(PType::kAllow, 0, 0));
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

void CharlotteBackend::cancel_send(std::uint64_t out_id) {
  auto it = out_msgs_.find(out_id);
  if (it == out_msgs_.end()) return;
  OutMsg& out = it->second;
  out.cancel_requested = true;
  CLink* link = find(out.link);
  if (link == nullptr) return;
  // Still queued (not yet at the kernel)?  Revoke locally: enclosures
  // are untouched.  An unsettled send is queued or active: a request
  // that RETRY/FORBID bounced was already settled delivered, so the
  // runtime never cancels it.
  auto queued = std::find(link->out_queue.begin(), link->out_queue.end(),
                          out_id);
  if (queued != link->out_queue.end()) {
    link->out_queue.erase(queued);
    settle(out_id, SendOutcome{SendResult::kCancelled, {}});
    out_msgs_.erase(it);
    return;
  }
  // At the kernel: race a kernel Cancel against delivery.  If the Cancel
  // loses, cancel_requested keeps a later RETRY/FORBID bounce from
  // resurrecting the request; any enclosure it carried comes back
  // ownerless and is LOST (the paper's §3.2.2 deviation).
  if (link->active_out == out_id) {
    cluster_->engine().spawn("charlotte-cancel-send",
                             issue_cancel(out.link));
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
  fail_sends(link);
  BackendEvent ev;
  ev.kind = BackendEvent::Kind::kLinkDestroyed;
  ev.link = link.token;
  if (sink_) sink_(std::move(ev));
}

void CharlotteBackend::fail_sends(CLink& link) {
  auto fail_out = [&](std::uint64_t id) {
    auto it = out_msgs_.find(id);
    if (it == out_msgs_.end()) return;
    settle(id, SendOutcome{SendResult::kLinkDestroyed, {}});
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
}

sim::Task<void> CharlotteBackend::destroy(BLink token) {
  CLink* link = find(token);
  if (link == nullptr) co_return;
  const charlotte::EndId end = link->end;
  link->destroyed = true;
  fail_sends(*link);  // a send in flight on the end feels its destroy
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

}  // namespace lynx
