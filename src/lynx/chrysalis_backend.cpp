#include "lynx/chrysalis_backend.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace lynx {

namespace {

// flag bits
[[nodiscard]] constexpr std::uint16_t slot_bit(int slot) {
  return static_cast<std::uint16_t>(1u << slot);
}
[[nodiscard]] constexpr std::uint16_t destroyed_bit(std::uint8_t side) {
  return static_cast<std::uint16_t>(1u << (4 + side));
}
[[nodiscard]] constexpr std::uint16_t unwanted_bit(std::uint8_t side) {
  return static_cast<std::uint16_t>(1u << (6 + side));
}

// slots: 0 = REQ A->B, 1 = REP A->B, 2 = REQ B->A, 3 = REP B->A
[[nodiscard]] constexpr int out_slot(std::uint8_t side, MsgKind kind) {
  const int base = (side == 0) ? 0 : 2;
  return base + (kind == MsgKind::kReply ? 1 : 0);
}
[[nodiscard]] constexpr std::uint8_t receiver_side_of_slot(int slot) {
  return (slot <= 1) ? 1 : 0;
}
[[nodiscard]] constexpr bool slot_is_reply(int slot) {
  return (slot % 2) == 1;
}

// notice codes
constexpr std::uint32_t kCodeFilledBase = 0;   // 0..3
constexpr std::uint32_t kCodeConsumedBase = 4; // 4..7
constexpr std::uint32_t kCodeDestroyed = 8;
constexpr std::uint32_t kCodeRecheck = 13;
constexpr std::uint32_t kCodePoison = 15;

// Most notices one pump wakeup takes off the dual queue.
constexpr std::size_t kDrainMaxNotices = 16;
// Most notices one formation batch carries (one enqueue dispatch).
constexpr std::size_t kFormMaxNotices = 64;

[[nodiscard]] constexpr std::uint32_t make_notice(chrysalis::MemId obj,
                                                  std::uint32_t code) {
  return static_cast<std::uint32_t>(obj.value() << 4) | code;
}

// object header offsets
constexpr std::size_t kOffFlags = 0;
constexpr std::size_t kOffDqA = 4;
constexpr std::size_t kOffDqB = 8;
constexpr std::size_t kOffSlots = 16;

[[nodiscard]] constexpr std::size_t dq_offset(std::uint8_t side) {
  return side == 0 ? kOffDqA : kOffDqB;
}

// slot content: u32 frame_len | u32 body_len | u8 enc_count | per enc
// (u64 obj, u8 side) | u64 trace | body.  The header is written into
// the headroom the runtime left in front of the body (header_bytes), so
// the one block_write moves the body straight from its serialized
// buffer; the reader strips the header by offset.  The trace word
// carries the causal identity through the shared-memory link object:
// Chrysalis has no network frame to stamp, so it rides in the buffer
// encoding itself.
void put_le(std::uint8_t*& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    *out++ = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_le(const common::Body& raw, std::size_t& pos, int bytes) {
  RELYNX_ASSERT(pos + static_cast<std::size_t>(bytes) <= raw.size());
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(raw[pos++]) << (8 * i);
  }
  return v;
}

void encode_header(std::uint8_t* out, std::size_t frame_len,
                   std::size_t body_len,
                   const std::vector<std::pair<std::uint64_t,
                                               std::uint8_t>>& encs,
                   std::uint64_t trace) {
  put_le(out, frame_len, 4);
  put_le(out, body_len, 4);
  *out++ = static_cast<std::uint8_t>(encs.size());
  for (const auto& [obj, side] : encs) {
    put_le(out, obj, 8);
    *out++ = side;
  }
  put_le(out, trace, 8);
}

struct DecodedBuffer {
  common::Body body;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> encs;
  std::uint64_t trace = 0;
};

// `raw` is the slot after its frame_len word.
DecodedBuffer decode_buffer(common::Body raw) {
  DecodedBuffer out;
  std::size_t pos = 0;
  const std::uint64_t body_len = get_le(raw, pos, 4);
  const auto n = static_cast<std::uint8_t>(get_le(raw, pos, 1));
  for (std::uint8_t i = 0; i < n; ++i) {
    const std::uint64_t obj = get_le(raw, pos, 8);
    out.encs.emplace_back(obj, static_cast<std::uint8_t>(get_le(raw, pos, 1)));
  }
  out.trace = get_le(raw, pos, 8);
  RELYNX_ASSERT(pos + body_len == raw.size());
  raw.drop_front(pos);
  out.body = std::move(raw);
  return out;
}

}  // namespace

// ===================== backend =====================

ChrysalisBackend::ChrysalisBackend(chrysalis::Kernel& kernel,
                                   net::NodeId node,
                                   ChrysalisBackendParams params)
    : kernel_(&kernel),
      node_(node),
      params_(params),
      pid_(kernel.create_process(node)),
      ready_(std::make_unique<sim::Gate>(kernel.engine())) {}

ChrysalisBackend::~ChrysalisBackend() {
  for (auto& [dq, q] : notice_queues_) q.deadline.cancel();
  for (auto& [token, rec] : links_) rec.consumed_timer.cancel();
}

sim::Task<> ChrysalisBackend::post_notice(chrysalis::DqId dq,
                                          std::uint32_t datum) {
  if (params_.form_delay <= 0) {
    (void)co_await kernel_->enqueue(pid_, dq, {&datum, 1});
    co_return;
  }
  NoticeQueue& q = notice_queues_[dq];
  q.pending.push_back(datum);
  if (q.pending.size() >= kFormMaxNotices) {
    q.deadline.cancel();
    co_await flush_notices(dq);
  } else if (q.pending.size() == 1) {
    q.deadline = kernel_->engine().schedule_cancellable(
        params_.form_delay, [this, dq] {
          kernel_->engine().spawn("chrysalis-form-flush", flush_notices(dq));
        });
  }
}

sim::Task<> ChrysalisBackend::notify_peer(chrysalis::MemId obj,
                                          std::uint8_t my_side,
                                          std::uint32_t code) {
  auto dq_name = co_await kernel_->read32(pid_, obj, dq_offset(my_side ^ 1));
  if (dq_name.ok()) {
    co_await post_notice(chrysalis::DqId(dq_name.value()),
                         make_notice(obj, code));
  }
}

sim::Task<> ChrysalisBackend::flush_notices(chrysalis::DqId dq) {
  auto it = notice_queues_.find(dq);
  if (it == notice_queues_.end() || it->second.pending.empty()) co_return;
  std::vector<std::uint32_t> batch = std::move(it->second.pending);
  it->second.pending.clear();
  (void)co_await kernel_->enqueue(pid_, dq, batch);
}

std::size_t ChrysalisBackend::slot_offset(int slot) const {
  return kOffSlots +
         static_cast<std::size_t>(slot) * (4 + params_.max_message_bytes);
}

std::size_t ChrysalisBackend::object_size() const {
  return kOffSlots + 4 * (4 + params_.max_message_bytes);
}

void ChrysalisBackend::start(Sink sink) {
  RELYNX_ASSERT_MSG(!running_, "backend started twice");
  sink_ = std::move(sink);
  running_ = true;
  kernel_->engine().spawn("chrysalis-pump", pump());
}

sim::Task<> ChrysalisBackend::pump() {
  // One dual queue + one event block per process (paper §5.2 opening).
  {
    auto dq = co_await kernel_->make_dual_queue(pid_,
                                                params_.dual_queue_capacity);
    RELYNX_ASSERT(dq.ok());
    my_dq_ = dq.value();
    auto ev = co_await kernel_->make_event(pid_);
    RELYNX_ASSERT(ev.ok());
    my_event_ = ev.value();
    comm_ready_ = true;
    ready_->open();
  }
  for (;;) {
    // Batched drain (DESIGN.md §12): one dequeue_many dispatch services
    // every ready notice; an empty queue falls back to a bare event wait
    // (the dequeue left our event name — or the cheap flag — behind).
    std::vector<std::uint32_t> batch;
    auto got = co_await kernel_->dequeue_many(pid_, my_dq_, my_event_,
                                              kDrainMaxNotices);
    if (!got.ok()) break;
    if (got.value().would_block) {
      auto datum = co_await kernel_->wait_event(pid_, my_event_);
      if (!datum.ok()) break;
      batch.push_back(datum.value());
    } else {
      batch = std::move(got.value().data);
    }
    bool poisoned = false;
    for (const std::uint32_t raw : batch) {
      const std::uint32_t code = raw & 15u;
      const chrysalis::MemId obj(raw >> 4);
      if (code == kCodePoison) {
        poisoned = true;
        break;
      }
      switch (code) {
        case kCodeRecheck:
          co_await recheck_link(obj);
          break;
        case kCodeDestroyed: {
          co_await handle_destroyed_notice(obj);
          break;
        }
        default: {
          if (code >= kCodeConsumedBase && code < kCodeConsumedBase + 4) {
            handle_consumed(obj, static_cast<int>(code - kCodeConsumedBase));
          } else if (code < 4) {
            co_await maybe_consume(obj, static_cast<int>(code));
          }
          break;
        }
      }
    }
    if (poisoned) break;
  }
}

ChrysalisBackend::LinkRec* ChrysalisBackend::side_rec(chrysalis::MemId obj,
                                                      std::uint8_t side) {
  auto it = by_obj_.find(obj);
  if (it == by_obj_.end()) return nullptr;
  const BLink token = it->second[side];
  if (!token.valid()) return nullptr;
  return find(token);
}

ChrysalisBackend::LinkRec* ChrysalisBackend::find(BLink link) {
  auto it = links_.find(link);
  return it == links_.end() ? nullptr : &it->second;
}

BLink ChrysalisBackend::adopt_end(chrysalis::MemId obj, std::uint8_t side) {
  const BLink token = blink_ids_.next();
  LinkRec rec;
  rec.token = token;
  rec.obj = obj;
  rec.side = side;
  links_.emplace(token, std::move(rec));
  by_obj_[obj][side] = token;
  return token;
}

void ChrysalisBackend::unindex_link(const LinkRec& rec) {
  auto it = by_obj_.find(rec.obj);
  if (it == by_obj_.end()) return;
  it->second[rec.side] = BLink::invalid();
  if (!it->second[0].valid() && !it->second[1].valid()) by_obj_.erase(it);
}

sim::Task<std::pair<BLink, BLink>> ChrysalisBackend::make_link() {
  while (!comm_ready_) co_await ready_->wait();
  auto obj = co_await kernel_->make_object(pid_, object_size());
  RELYNX_ASSERT(obj.ok());
  // Both sides' dual-queue names start as ours.
  (void)co_await kernel_->write32(pid_, obj.value(), kOffDqA,
                                  static_cast<std::uint32_t>(my_dq_.value()));
  (void)co_await kernel_->write32(pid_, obj.value(), kOffDqB,
                                  static_cast<std::uint32_t>(my_dq_.value()));
  const BLink a = adopt_end(obj.value(), 0);
  const BLink b = adopt_end(obj.value(), 1);
  co_return std::pair(a, b);
}

void ChrysalisBackend::begin_send(BLink link, WireMessage msg,
                                  std::uint64_t id) {
  sends_.push_back(OutSend{id, link, msg.kind, msg.enclosures});
  kernel_->engine().spawn("chrysalis-send",
                          perform_send(link, std::move(msg), id));
}

ChrysalisBackend::OutSend* ChrysalisBackend::find_send(std::uint64_t send_id) {
  for (OutSend& s : sends_) {
    if (s.id == send_id) return &s;
  }
  return nullptr;
}

void ChrysalisBackend::settle_send(std::uint64_t send_id, SendOutcome out) {
  OutSend* s = find_send(send_id);
  if (s == nullptr) return;
  if (s != &sends_.back()) *s = std::move(sends_.back());
  sends_.pop_back();
  settle(send_id, std::move(out));
}

sim::Task<> ChrysalisBackend::perform_send(BLink link, WireMessage msg,
                                           std::uint64_t send_id) {
  LinkRec* rec = find(link);
  if (rec == nullptr || rec->destroyed) {
    settle_send(send_id, SendOutcome{SendResult::kLinkDestroyed, {}});
    co_return;
  }
  const chrysalis::MemId obj = rec->obj;
  const std::uint8_t side = rec->side;
  const std::uint8_t peer = side ^ 1;
  const int slot = out_slot(side, msg.kind);

  // The ack rides the reply (DESIGN.md §12): our reply's FILLED notice
  // proves the request was consumed, so a still-deferred CONSUMED
  // notice for it is redundant — drop it before it fires.
  if (msg.kind == MsgKind::kReply && rec->consumed_owed) {
    rec->consumed_timer.cancel();
    rec->consumed_owed = false;
    if (auto* trec = trace::get(kernel_->engine())) {
      trec->instant(node_.value(), "backend", "notice.piggyback",
                    rec->consumed_trace,
                    static_cast<std::uint64_t>(rec->consumed_slot), 0);
    }
  }

  // Capability (4): an aborted caller set the "reply unwanted" bit; the
  // replier feels the language-defined exception instead of sending.
  if (msg.kind == MsgKind::kReply) {
    auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
    if (!flags.ok()) {
      settle_send(send_id, SendOutcome{SendResult::kLinkDestroyed, {}});
      co_return;
    }
    if (flags.value() & unwanted_bit(peer)) {
      (void)co_await kernel_->fetch_and16(
          pid_, obj, kOffFlags,
          static_cast<std::uint16_t>(~unwanted_bit(peer)));
      settle_send(send_id, SendOutcome{SendResult::kReplyUnwanted, {}});
      co_return;
    }
  }

  // Encode and write the buffer.
  std::vector<std::pair<std::uint64_t, std::uint8_t>> encs;
  for (BLink e : msg.enclosures) {
    LinkRec* er = find(e);
    RELYNX_ASSERT_MSG(er != nullptr, "enclosure token unknown");
    encs.emplace_back(er->obj.value(), er->side);
  }
  const std::size_t body_len = msg.body.size();
  const std::size_t frame_len = header_bytes(encs.size()) - 4 + body_len;
  common::Body framed = std::move(msg.body);
  encode_header(framed.prepend(header_bytes(encs.size())), frame_len,
                body_len, encs, msg.trace_id);
  RELYNX_ASSERT_MSG(framed.size() <= max_packet_bytes(),
                    "message exceeds link buffer");
  // One block transfer covers the length word, the header and the body
  // — the flag bit (set below) is what publishes the slot, so the
  // combined write needs no internal ordering.
  (void)co_await kernel_->block_write(pid_, obj, slot_offset(slot), framed);
  if (auto* rec2 = trace::get(kernel_->engine())) {
    rec2->instant(node_.value(), "backend", "slot.fill", msg.trace_id,
                  static_cast<std::uint64_t>(slot), framed.size() - 4);
  }
  // A cancel that arrived before the slot is published wins outright:
  // perform_cancel's flag clear may land before our flag set, when it
  // cannot tell an unpublished slot from a consumed one.  (A send no
  // longer in flight was settled by that cancel.)
  if (const OutSend* s = find_send(send_id);
      s == nullptr || s->cancel_requested) {
    settle_send(send_id, SendOutcome{SendResult::kCancelled, {}});
    co_return;
  }
  // Set the flag FIRST, then read the peer's dual-queue name: this
  // ordering (against the mover's write-name-then-inspect-flags) is what
  // makes the non-atomic name update safe (paper §5.2).
  (void)co_await kernel_->fetch_or16(pid_, obj, kOffFlags, slot_bit(slot));
  co_await notify_peer(obj, side,
                       kCodeFilledBase + static_cast<std::uint32_t>(slot));
  // Enclosure-free replies resolve early (DESIGN.md §12): the flag bit
  // is absolute truth and the buffer lives in the link object, which
  // shared memory keeps intact until the consumer reads it regardless
  // of what this process does next — waiting for the consumed hint
  // teaches us nothing the flag write didn't.
  if (msg.kind == MsgKind::kReply && msg.enclosures.empty()) {
    settle_send(send_id, SendOutcome{SendResult::kDelivered, {}});
    co_return;
  }
  // Park until the consumed notice (or destruction) resolves it; a
  // cancel that won meanwhile has settled it already.
  if (find_send(send_id) == nullptr) co_return;
  rec = find(link);
  if (rec == nullptr) {
    settle_send(send_id, SendOutcome{SendResult::kLinkDestroyed, {}});
    co_return;
  }
  (msg.kind == MsgKind::kReply ? rec->out_rep : rec->out_req) = send_id;
}

void ChrysalisBackend::handle_consumed(chrysalis::MemId obj, int slot) {
  // The consumed slot is OUR outgoing slot iff we own the sending side.
  const std::uint8_t sender_side = (slot <= 1) ? 0 : 1;
  LinkRec* rec = side_rec(obj, sender_side);
  if (rec == nullptr) return;  // stale hint
  std::uint64_t& parked = slot_is_reply(slot) ? rec->out_rep : rec->out_req;
  const OutSend* send = find_send(parked);
  if (send == nullptr) return;  // stale hint
  const std::uint64_t send_id = parked;
  parked = 0;
  // Delivered: the moved ends now belong to the receiver.  Unmap the
  // object only if we hold no other end of it (we might own both ends
  // of a fresh link and have sent just one).
  for (BLink e : send->enclosures) {
    if (LinkRec* er = find(e)) {
      const chrysalis::MemId eobj = er->obj;
      unindex_link(*er);
      links_.erase(e);
      if (by_obj_.find(eobj) == by_obj_.end()) {
        kernel_->engine().spawn("chrysalis-unmap", unmap_object(eobj));
      }
    }
  }
  settle_send(send_id, SendOutcome{SendResult::kDelivered, {}});
}

sim::Task<> ChrysalisBackend::post_deferred_consumed(BLink token) {
  // The coalesce window expired with no reply to ride: post the
  // standalone CONSUMED notice after all.
  LinkRec* rec = find(token);
  if (rec == nullptr || rec->destroyed || !rec->consumed_owed) co_return;
  rec->consumed_owed = false;
  co_await notify_peer(
      rec->obj, rec->side,
      kCodeConsumedBase + static_cast<std::uint32_t>(rec->consumed_slot));
}

sim::Task<> ChrysalisBackend::unmap_object(chrysalis::MemId obj) {
  (void)co_await kernel_->unmap(pid_, obj);
}

sim::Task<> ChrysalisBackend::maybe_consume(chrysalis::MemId obj, int slot) {
  const std::uint8_t recv_side = receiver_side_of_slot(slot);
  LinkRec* rec = side_rec(obj, recv_side);
  if (rec == nullptr || rec->destroyed) co_return;  // stale hint
  // Screening in the application layer: requests stay parked in the
  // buffer (flag set, not consumed) until the runtime wants them.
  if (!slot_is_reply(slot) && !rec->want_requests) co_return;
  co_await consume_incoming(obj, slot);
}

sim::Task<> ChrysalisBackend::consume_incoming(chrysalis::MemId obj,
                                               int slot) {
  const std::uint8_t recv_side = receiver_side_of_slot(slot);
  LinkRec* rec = side_rec(obj, recv_side);
  if (rec == nullptr) co_return;
  const BLink token = rec->token;
  // The flag is the absolute truth: verify before acting on the hint.
  auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
  if (!flags.ok() || (flags.value() & slot_bit(slot)) == 0) co_return;

  auto len = co_await kernel_->read32(pid_, obj, slot_offset(slot));
  if (!len.ok()) co_return;
  auto raw = co_await kernel_->block_read(pid_, obj, slot_offset(slot) + 4,
                                          len.value());
  if (!raw.ok()) co_return;
  (void)co_await kernel_->fetch_and16(
      pid_, obj, kOffFlags, static_cast<std::uint16_t>(~slot_bit(slot)));
  const std::size_t raw_size = raw.value().size();
  DecodedBuffer decoded = decode_buffer(std::move(raw.value()));
  // Ack the producer (DESIGN.md §12):
  //  * enclosure-free replies: the sender resolved early at the flag
  //    write — nobody is parked on the hint, skip the dq round trip;
  //  * replies generally: their arrival proves our own request on this
  //    link was consumed (RPC ordering), so settle the parked request
  //    send now — its CONSUMED notice may have been piggybacked away;
  //  * requests: defer the CONSUMED notice by consumed_coalesce_delay —
  //    if our reply beats the timer, the notice is never posted.
  const auto consumed = kCodeConsumedBase + static_cast<std::uint32_t>(slot);
  if (slot_is_reply(slot)) {
    handle_consumed(obj, recv_side == 0 ? 0 : 2);
    if (!decoded.encs.empty()) co_await notify_peer(obj, recv_side, consumed);
  } else {
    rec = side_rec(obj, recv_side);  // re-find: awaits above may rehash
    if (rec != nullptr && !rec->destroyed &&
        params_.consumed_coalesce_delay > 0) {
      const BLink owed_token = rec->token;
      if (rec->consumed_owed) rec->consumed_timer.cancel();
      rec->consumed_owed = true;
      rec->consumed_slot = slot;
      rec->consumed_trace = decoded.trace;
      rec->consumed_timer = kernel_->engine().schedule_cancellable(
          params_.consumed_coalesce_delay, [this, owed_token] {
            kernel_->engine().spawn("chrysalis-consumed",
                                    post_deferred_consumed(owed_token));
          });
    } else {
      co_await notify_peer(obj, recv_side, consumed);
    }
  }
  if (auto* trec = trace::get(kernel_->engine())) {
    trec->instant(node_.value(), "backend", "slot.consume", decoded.trace,
                  static_cast<std::uint64_t>(slot), raw_size);
  }
  // Install moved ends: map, write our dual-queue name (non-atomic),
  // THEN inspect flags and self-notice anything already set.
  std::vector<BLink> enclosures;
  for (const auto& [eobj_raw, eside] : decoded.encs) {
    const chrysalis::MemId eobj(eobj_raw);
    (void)co_await kernel_->map(pid_, eobj);
    (void)co_await kernel_->write32(
        pid_, eobj, dq_offset(eside),
        static_cast<std::uint32_t>(my_dq_.value()));
    enclosures.push_back(adopt_end(eobj, eside));
    auto eflags = co_await kernel_->read16(pid_, eobj, kOffFlags);
    if (eflags.ok()) {
      for (int s = 0; s < 4; ++s) {
        if (receiver_side_of_slot(s) == eside &&
            (eflags.value() & slot_bit(s))) {
          co_await post_notice(
              my_dq_,
              make_notice(eobj,
                          kCodeFilledBase + static_cast<std::uint32_t>(s)));
        }
      }
      if (eflags.value() & destroyed_bit(eside ^ 1)) {
        co_await post_notice(my_dq_, make_notice(eobj, kCodeDestroyed));
      }
    }
  }

  BackendEvent ev;
  ev.kind = slot_is_reply(slot) ? BackendEvent::Kind::kReplyArrived
                                : BackendEvent::Kind::kRequestArrived;
  ev.link = token;
  ev.body = std::move(decoded.body);
  ev.enclosures = std::move(enclosures);
  ev.trace = decoded.trace;
  if (sink_) sink_(std::move(ev));
}

sim::Task<> ChrysalisBackend::recheck_link(chrysalis::MemId obj) {
  for (std::uint8_t side = 0; side < 2; ++side) {
    LinkRec* rec = side_rec(obj, side);
    if (rec == nullptr || rec->destroyed) continue;
    auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
    if (!flags.ok()) continue;
    for (int s = 0; s < 4; ++s) {
      if (receiver_side_of_slot(s) != side) continue;
      if ((flags.value() & slot_bit(s)) == 0) continue;
      co_await maybe_consume(obj, s);
    }
    if (flags.value() & destroyed_bit(side ^ 1)) {
      co_await handle_destroyed_notice(obj);
    }
  }
}

sim::Task<> ChrysalisBackend::handle_destroyed_notice(chrysalis::MemId obj) {
  for (std::uint8_t side = 0; side < 2; ++side) {
    LinkRec* rec = side_rec(obj, side);
    if (rec == nullptr || rec->destroyed) continue;
    auto flags = co_await kernel_->read16(pid_, obj, kOffFlags);
    rec = side_rec(obj, side);  // re-find: shutdown may have dropped it
    if (rec == nullptr || rec->destroyed) continue;
    if (!flags.ok()) {
      // object reclaimed already: treat as destroyed
    } else if ((flags.value() & destroyed_bit(side ^ 1)) == 0) {
      continue;  // stale hint
    }
    rec->destroyed = true;
    fail_parked_sends(*rec);
    BackendEvent ev;
    ev.kind = BackendEvent::Kind::kLinkDestroyed;
    ev.link = rec->token;
    if (sink_) sink_(std::move(ev));
    const chrysalis::MemId dead_obj = rec->obj;
    unindex_link(*rec);
    links_.erase(rec->token);
    (void)co_await kernel_->unmap(pid_, dead_obj);
  }
}

void ChrysalisBackend::fail_parked_sends(LinkRec& rec) {
  for (std::uint64_t* parked : {&rec.out_req, &rec.out_rep}) {
    settle_send(*parked, SendOutcome{SendResult::kLinkDestroyed, {}});
    *parked = 0;
  }
}

void ChrysalisBackend::cancel_send(std::uint64_t send_id) {
  OutSend* send = find_send(send_id);
  if (send == nullptr) return;
  send->cancel_requested = true;
  kernel_->engine().spawn("chrysalis-cancel", perform_cancel(send_id));
}

sim::Task<> ChrysalisBackend::perform_cancel(std::uint64_t send_id) {
  const OutSend* send = find_send(send_id);
  if (send == nullptr) co_return;
  const BLink link = send->link;
  const MsgKind kind = send->kind;
  LinkRec* rec = find(link);
  if (rec == nullptr) co_return;
  const int slot = out_slot(rec->side, kind);
  // Revoke if the peer has not consumed it yet: clear the flag.
  auto old = co_await kernel_->fetch_and16(
      pid_, rec->obj, kOffFlags,
      static_cast<std::uint16_t>(~slot_bit(slot)));
  rec = find(link);
  if (rec == nullptr || find_send(send_id) == nullptr) co_return;
  std::uint64_t& parked =
      kind == MsgKind::kReply ? rec->out_rep : rec->out_req;
  if (old.ok() && (old.value() & slot_bit(slot))) {
    // We won the race; the enclosures were never installed remotely, so
    // nothing is lost (capability 3).
    if (parked == send_id) parked = 0;
    settle_send(send_id, SendOutcome{SendResult::kCancelled, {}});
  }
  // else: consumed already; the consumed notice will settle kDelivered.
}

void ChrysalisBackend::set_interest(BLink link, bool want_requests,
                                    bool want_replies) {
  LinkRec* rec = find(link);
  if (rec == nullptr) return;
  const bool newly_interested = want_requests && !rec->want_requests;
  rec->want_requests = want_requests;
  rec->want_replies = want_replies;
  if (newly_interested && comm_ready_) {
    // Self-hint: re-scan the absolute flags for parked requests.
    kernel_->engine().spawn("chrysalis-recheck",
                            enqueue_self(make_notice(rec->obj, kCodeRecheck)));
  }
}

sim::Task<> ChrysalisBackend::enqueue_self(std::uint32_t datum) {
  co_await post_notice(my_dq_, datum);
}

void ChrysalisBackend::retract_reply_interest(BLink link) {
  LinkRec* rec = find(link);
  if (rec == nullptr || rec->destroyed) return;
  kernel_->engine().spawn("chrysalis-retract",
                          set_unwanted_bit(rec->obj, rec->side));
}

sim::Task<> ChrysalisBackend::set_unwanted_bit(chrysalis::MemId obj,
                                               std::uint8_t side) {
  (void)co_await kernel_->fetch_or16(pid_, obj, kOffFlags,
                                     unwanted_bit(side));
}

sim::Task<void> ChrysalisBackend::destroy(BLink link) {
  LinkRec* rec = find(link);
  if (rec == nullptr) co_return;
  const chrysalis::MemId obj = rec->obj;
  const std::uint8_t side = rec->side;
  rec->destroyed = true;
  fail_parked_sends(*rec);  // a send in flight on the end feels its destroy
  unindex_link(*rec);
  links_.erase(link);
  co_await perform_destroy_bits(obj, side);
}

sim::Task<> ChrysalisBackend::perform_destroy_bits(chrysalis::MemId obj,
                                                   std::uint8_t side) {
  (void)co_await kernel_->fetch_or16(pid_, obj, kOffFlags,
                                     destroyed_bit(side));
  co_await notify_peer(obj, side, kCodeDestroyed);
  kernel_->release_when_unreferenced(obj);
  (void)co_await kernel_->unmap(pid_, obj);
}

void ChrysalisBackend::shutdown() {
  if (!running_) return;
  running_ = false;
  kernel_->engine().spawn("chrysalis-shutdown", perform_shutdown());
}

sim::Task<> ChrysalisBackend::perform_shutdown() {
  // Settle deferred CONSUMED notices before the links go away: the
  // peer's request send is still parked on them.
  std::vector<BLink> owed;
  for (auto& [token, rec] : links_) {
    if (rec.consumed_owed) {
      rec.consumed_timer.cancel();
      owed.push_back(token);
    }
  }
  for (const BLink token : owed) co_await post_deferred_consumed(token);
  // "Before terminating, each process destroys all of its links."
  std::vector<std::pair<chrysalis::MemId, std::uint8_t>> to_destroy;
  for (auto& [token, rec] : links_) {
    if (!rec.destroyed) to_destroy.emplace_back(rec.obj, rec.side);
  }
  links_.clear();
  by_obj_.clear();
  for (const auto& [obj, side] : to_destroy) {
    co_await perform_destroy_bits(obj, side);
  }
  // Drain any notices still held by the formation window — peers must
  // hear our destroyed hints before we go quiet.
  std::vector<chrysalis::DqId> held;
  for (auto& [dq, q] : notice_queues_) {
    q.deadline.cancel();
    if (!q.pending.empty()) held.push_back(dq);
  }
  for (const chrysalis::DqId dq : held) co_await flush_notices(dq);
  if (comm_ready_) {
    const std::uint32_t poison = make_notice(chrysalis::MemId(0), kCodePoison);
    (void)co_await kernel_->enqueue(pid_, my_dq_, {&poison, 1});
  }
}

// ===================== bootstrap =====================

sim::Task<std::pair<LinkHandle, LinkHandle>> ChrysalisBackend::connect(
    Process& a, Process& b) {
  auto* ba = dynamic_cast<ChrysalisBackend*>(&a.backend());
  auto* bb = dynamic_cast<ChrysalisBackend*>(&b.backend());
  RELYNX_ASSERT_MSG(ba != nullptr && bb != nullptr,
                    "connect requires Chrysalis backends");
  RELYNX_ASSERT_MSG(ba->kernel_ == bb->kernel_, "same Butterfly required");
  while (!ba->comm_ready_) co_await ba->ready_->wait();
  while (!bb->comm_ready_) co_await bb->ready_->wait();

  chrysalis::Kernel& k = *ba->kernel_;
  auto obj = co_await k.make_object(ba->pid_, ba->object_size());
  RELYNX_ASSERT(obj.ok());
  (void)co_await k.map(bb->pid_, obj.value());
  (void)co_await k.write32(ba->pid_, obj.value(), kOffDqA,
                           static_cast<std::uint32_t>(ba->my_dq_.value()));
  (void)co_await k.write32(bb->pid_, obj.value(), kOffDqB,
                           static_cast<std::uint32_t>(bb->my_dq_.value()));
  const BLink ta = ba->adopt_end(obj.value(), 0);
  const BLink tb = bb->adopt_end(obj.value(), 1);
  co_return std::pair(a.adopt_link(ta), b.adopt_link(tb));
}

}  // namespace lynx
