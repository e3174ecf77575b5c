#include "charlotte/kernel.hpp"

#include <algorithm>

#include "net/token_ring.hpp"
#include "trace/trace.hpp"

namespace charlotte {

// ===================== Cluster =====================

Cluster::Cluster(sim::Engine& engine, std::size_t nodes,
                 net::TokenRingParams ring_params, Costs costs)
    : engine_(&engine),
      costs_(costs),
      ring_(std::make_unique<net::TokenRing>(engine, ring_params)),
      medium_(ring_.get()) {
  kernels_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    kernels_.push_back(
        std::make_unique<Kernel>(*this, net::NodeId(static_cast<std::uint32_t>(i))));
  }
}

Cluster::Cluster(sim::Engine& engine, std::size_t nodes, net::Medium& medium,
                 Costs costs)
    : engine_(&engine), costs_(costs), medium_(&medium) {
  kernels_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    kernels_.push_back(
        std::make_unique<Kernel>(*this, net::NodeId(static_cast<std::uint32_t>(i))));
  }
}

void Cluster::sever(net::NodeId a, net::NodeId b) {
  kernel(a).notify_peer_lost(b);
  kernel(b).notify_peer_lost(a);
}

void Cluster::notify_node_down(net::NodeId down) {
  for (auto& k : kernels_) {
    if (k->node() != down) k->notify_peer_lost(down);
  }
}

Cluster::~Cluster() = default;

Kernel& Cluster::kernel(net::NodeId node) {
  RELYNX_ASSERT(node.value() < kernels_.size());
  return *kernels_[node.value()];
}

Pid Cluster::create_process(net::NodeId node) {
  const Pid pid = pids_.next();
  process_node_.emplace(pid, node);
  kernel(node).register_process(pid);
  return pid;
}

Kernel& Cluster::kernel_of(Pid pid) { return kernel(node_of(pid)); }

net::NodeId Cluster::node_of(Pid pid) const {
  auto it = process_node_.find(pid);
  RELYNX_ASSERT_MSG(it != process_node_.end(), "unknown pid");
  return it->second;
}

void Cluster::terminate(Pid pid) { kernel_of(pid).terminate_process(pid); }

LinkPair Cluster::bootstrap_link(Pid a, Pid b) {
  const net::NodeId na = node_of(a);
  const net::NodeId nb = node_of(b);
  const LinkId link = new_link_id();
  const EndId e1 = new_end();
  const EndId e2 = new_end();
  Kernel& ka = kernel(na);
  Kernel& kb = kernel(nb);
  Kernel::EndState s1;
  s1.id = e1;
  s1.link = link;
  s1.peer = e2;
  s1.owner = a;
  s1.peer_node = nb;
  s1.home = na;
  ka.ends_.emplace(e1, std::move(s1));
  Kernel::EndState s2;
  s2.id = e2;
  s2.link = link;
  s2.peer = e1;
  s2.owner = b;
  s2.peer_node = na;
  s2.home = na;
  kb.ends_.emplace(e2, std::move(s2));
  ka.homes_.emplace(link,
                    Kernel::HomeRecord{link, Kernel::HomeEndInfo{e1, na, a},
                                       Kernel::HomeEndInfo{e2, nb, b}, false});
  return LinkPair{e1, e2};
}

std::uint64_t Cluster::total_frames() const {
  std::uint64_t n = 0;
  for (const auto& k : kernels_) n += k->frames_emitted();
  return n;
}

std::uint64_t Cluster::total_move_frames() const {
  std::uint64_t n = 0;
  for (const auto& k : kernels_) n += k->move_protocol_frames();
  return n;
}

// ===================== Kernel: plumbing =====================

Kernel::Kernel(Cluster& cluster, net::NodeId node)
    : cluster_(&cluster),
      node_(node),
      packer_(cluster.engine(), cluster.medium(), node,
              form::Params{cluster.costs().form_delay,
                           cluster.costs().form_max_bytes}) {
  cluster_->medium().attach(node_,
                            [this](const net::Frame& f) { on_frame(f); });
}

void Kernel::transmit(net::NodeId dst, wire::KernelFrame frame,
                      std::uint64_t trace) {
  ++frames_out_;
  if (std::holds_alternative<wire::MoveUpdate>(frame) ||
      std::holds_alternative<wire::PeerMoved>(frame) ||
      std::holds_alternative<wire::MoveAck>(frame)) {
    ++move_frames_;
  }
  const std::size_t bytes = wire::frame_bytes(frame);
  if (auto* rec = trace::get(cluster_->engine())) {
    rec->instant(node_.value(), "wire", "frame.tx", trace, frame.index(),
                 bytes);
  }
  if (dst == node_) {
    // Home traffic for a locally-created link: no ring trip, but the
    // kernel still does the protocol work.
    cluster_->engine().schedule(
        cluster_->costs().frame_processing,
        [this, f = std::move(frame)] {
          std::visit([this](const auto& m) { handle(m, node_); }, f);
        });
    return;
  }
  net::Frame out{node_, dst, bytes, std::move(frame)};
  out.trace_id = trace;
  packer_.submit(std::move(out));
}

void Kernel::on_frame(const net::Frame& frame) {
  if (std::any_cast<form::Batch>(&frame.body) != nullptr) {
    on_batch(frame);
    return;
  }
  const auto& kf = frame.as<wire::KernelFrame>();
  sim::Duration cost = cluster_->costs().frame_processing;
  if (const auto* msg = std::get_if<wire::Msg>(&kf)) {
    cost += cluster_->costs().per_byte_copy *
            static_cast<sim::Duration>(msg->data.size());
  }
  if (auto* rec = trace::get(cluster_->engine())) {
    rec->instant(node_.value(), "wire", "frame.rx", frame.trace_id, frame.id,
                 frame.payload_bytes);
  }
  cluster_->engine().schedule(cost, [this, kf, src = frame.src] {
    std::visit([this, src](const auto& m) { handle(m, src); }, kf);
  });
}

// A form::Batch arrived: pay frame absorption ONCE, then a cheap
// demultiplex per enclosure, and dispatch the enclosures in submission
// order within a single scheduled event — per-link FIFO is exactly what
// it would have been frame-per-message, minus the per-frame overheads.
void Kernel::on_batch(const net::Frame& frame) {
  const auto& batch = frame.as<form::Batch>();
  const Costs& costs = cluster_->costs();
  sim::Duration cost = costs.frame_processing;
  auto* rec = trace::get(cluster_->engine());
  if (rec != nullptr) {
    rec->instant(node_.value(), "wire", "batch.rx", frame.trace_id, frame.id,
                 batch.frames.size());
  }
  std::vector<wire::KernelFrame> enclosed;
  enclosed.reserve(batch.frames.size());
  for (const net::Frame& sub : batch.frames) {
    const auto& kf = sub.as<wire::KernelFrame>();
    cost += costs.form_enclosure_processing;
    if (const auto* msg = std::get_if<wire::Msg>(&kf)) {
      cost += costs.per_byte_copy *
              static_cast<sim::Duration>(msg->data.size());
    }
    // Per-enclosure frame.rx with the enclosure's own TraceId, so the
    // phase tables keep decomposing each RPC even when its frames
    // shared a batch with strangers.
    if (rec != nullptr) {
      rec->instant(node_.value(), "wire", "frame.rx", sub.trace_id, frame.id,
                   sub.payload_bytes);
    }
    enclosed.push_back(kf);
  }
  cluster_->engine().schedule(
      cost, [this, enclosed = std::move(enclosed), src = frame.src] {
        for (const wire::KernelFrame& kf : enclosed) {
          std::visit([this, src](const auto& m) { handle(m, src); }, kf);
        }
      });
}

Kernel::EndState* Kernel::find_end(EndId id) {
  auto it = ends_.find(id);
  return it == ends_.end() ? nullptr : &it->second;
}

Status Kernel::validate_owned(Pid caller, EndId id, EndState** out) {
  EndState* end = find_end(id);
  if (end == nullptr) return Status::kNoSuchEnd;
  if (end->owner != caller) return Status::kNotOwner;
  *out = end;
  return Status::kOk;
}

void Kernel::complete(Pid pid, Completion c) {
  auto it = completions_.find(pid);
  if (it == completions_.end()) return;  // process gone; drop silently
  it->second->put(std::move(c));
}

void Kernel::register_process(Pid pid) {
  processes_.insert(pid);
  completions_.emplace(
      pid, std::make_unique<sim::Mailbox<Completion>>(cluster_->engine()));
}

// ===================== Kernel calls =====================

sim::Task<common::Result<LinkPair, Status>> Kernel::make_link(Pid caller) {
  co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
  if (!processes_.contains(caller)) {
    co_return common::Err(Status::kNoSuchEnd);
  }
  const LinkId link = cluster_->new_link_id();
  const EndId e1 = cluster_->new_end();
  const EndId e2 = cluster_->new_end();
  EndState s1;
  s1.id = e1;
  s1.link = link;
  s1.peer = e2;
  s1.owner = caller;
  s1.peer_node = node_;
  s1.home = node_;
  EndState s2;
  s2.id = e2;
  s2.link = link;
  s2.peer = e1;
  s2.owner = caller;
  s2.peer_node = node_;
  s2.home = node_;
  ends_.emplace(e1, std::move(s1));
  ends_.emplace(e2, std::move(s2));
  homes_.emplace(link, HomeRecord{link,
                                  HomeEndInfo{e1, node_, caller},
                                  HomeEndInfo{e2, node_, caller}, false});
  co_return LinkPair{e1, e2};
}

sim::Task<Status> Kernel::send(Pid caller, EndId end_id, Payload data,
                               EndId enclosure, std::uint64_t trace) {
  EndState* end = nullptr;
  if (Status st = validate_owned(caller, end_id, &end); st != Status::kOk) {
    co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
    co_return st;
  }
  if (end->destroyed) {
    co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
    co_return Status::kLinkDestroyed;
  }
  if (end->in_transit) {
    co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
    co_return Status::kEndInTransit;
  }
  if (end->send.has_value()) {
    co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
    co_return Status::kActivityPending;
  }

  bool has_enclosure = false;
  wire::EnclosureDesc desc{};
  if (enclosure.valid()) {
    EndState* enc = nullptr;
    if (Status st = validate_owned(caller, enclosure, &enc);
        st != Status::kOk || enc->destroyed || enc->in_transit ||
        enc->send.has_value() || enc->recv.has_value() ||
        enclosure == end_id || enclosure == end->peer) {
      co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
      co_return Status::kBadEnclosure;
    }
    has_enclosure = true;
    // The end's ack-protocol counters move with it (wire.hpp): the
    // receiving kernel resumes both streams where this kernel stopped.
    desc = wire::EnclosureDesc{enc->id,           enc->link,
                               enc->peer,         enc->peer_node,
                               enc->home,         enc->next_send_seq,
                               enc->recv_watermark, enc->last_delivered_len};
    enc->in_transit = true;
  }

  const std::uint64_t seq = end->next_send_seq++;
  wire::Msg msg{seq,  end_id, end->peer, std::move(data),
                has_enclosure, desc,   trace};
  const std::size_t len = msg.data.size();
  end->send = SendActivity{msg, has_enclosure ? desc.end : EndId::invalid(),
                           false, 1, {}, 0, 0};
  const net::NodeId dst = end->peer_node;

  const Costs& costs = cluster_->costs();
  sim::Duration cost = costs.call_overhead + costs.frame_processing +
                       costs.per_byte_copy * static_cast<sim::Duration>(len);
  if (has_enclosure) cost += costs.enclosure_processing;
  end->send->planned_tx_at = cluster_->engine().now() + cost;
  co_await cluster_->engine().sleep(cost);
  // Re-find the end: the sleep may have raced a destroy or a move.
  if (EndState* e = find_end(end_id);
      e != nullptr && e->send.has_value() && e->send->msg.seq == seq) {
    attach_piggyback(*e, e->send->msg, dst);
    e->send->first_sent_at = cluster_->engine().now();
    e->send->cur_rto = initial_rto(*e);
    transmit(dst, e->send->msg, trace);
    arm_send_timer(*e);
  } else {
    // Destroyed or failed mid-call; transmit anyway (the peer NACKs) so
    // the wire traffic is identical to the pre-race interleaving.
    transmit(dst, std::move(msg), trace);
  }
  co_return Status::kOk;
}

void Kernel::attach_piggyback(EndState& end, wire::Msg& m, net::NodeId dst) {
  if (!end.owed_ack.has_value() || end.owed_ack->to != dst) return;
  m.has_ack = true;
  m.ack_seq = end.owed_ack->seq;
  m.ack_len = end.owed_ack->len;
  if (auto* rec = trace::get(cluster_->engine())) {
    rec->instant(node_.value(), "kernel", "ack.piggyback", end.owed_ack->trace,
                 end.owed_ack->seq, end.owed_ack->len);
  }
  end.ack_timer.cancel();
  end.owed_ack.reset();
}

sim::Duration Kernel::initial_rto(const EndState& end) const {
  const Costs& costs = cluster_->costs();
  return end.rtt.rto(costs.send_retransmit_timeout, costs.rto_min,
                     costs.rto_max);
}

void Kernel::arm_send_timer(EndState& end) {
  if (cluster_->costs().send_retransmit_timeout <= 0 ||
      !end.send.has_value()) {
    return;
  }
  end.send->retry.cancel();
  end.send->retry = cluster_->engine().schedule_cancellable(
      end.send->cur_rto, [this, id = end.id, seq = end.send->msg.seq] {
        on_send_timeout(id, seq);
      });
}

void Kernel::on_send_timeout(EndId end_id, std::uint64_t seq) {
  EndState* end = find_end(end_id);
  if (end == nullptr || end->destroyed || !end->send.has_value() ||
      end->send->msg.seq != seq) {
    return;
  }
  if (end->send->attempts >= cluster_->costs().max_send_attempts) {
    // Out of patience: the peer, or every path to it, is gone.  Report
    // an absolute failure — Charlotte knows, it does not hint.
    end->destroyed = true;
    fail_end_activities(*end, Status::kLinkFailed);
    return;
  }
  ++end->send->attempts;
  ++retransmits_;
  if (auto* rec = trace::get(cluster_->engine())) {
    rec->instant(node_.value(), "kernel", "msg.retransmit",
                 end->send->msg.trace, seq,
                 static_cast<std::uint64_t>(end->send->attempts));
  }
  transmit(end->peer_node, end->send->msg, end->send->msg.trace);
  // Exponential backoff: a timeout is evidence the estimate was low (or
  // the path is impaired); don't hammer a congested ring.
  end->send->cur_rto =
      std::min(end->send->cur_rto * 2, cluster_->costs().rto_max);
  arm_send_timer(*end);
}

void Kernel::clear_send(EndState& end) {
  if (end.send.has_value()) {
    end.send->retry.cancel();
    end.send.reset();
  }
}

void Kernel::notify_peer_lost(net::NodeId peer) {
  for (auto& [id, end] : ends_) {
    if (end.destroyed || end.peer_node != peer) continue;
    end.destroyed = true;
    fail_end_activities(end, Status::kLinkFailed);
    // Tell the home (unless the home itself is the lost node) so the
    // record is retired and any third party holding the far end hears
    // LinkDown as well.
    if (end.home != peer) {
      transmit(end.home, wire::DestroyUpdate{end.link, end.id});
    }
  }
}

sim::Task<Status> Kernel::receive(Pid caller, EndId end_id,
                                  std::size_t max_len) {
  co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
  EndState* end = nullptr;
  if (Status st = validate_owned(caller, end_id, &end); st != Status::kOk) {
    co_return st;
  }
  if (end->destroyed) co_return Status::kLinkDestroyed;
  if (end->in_transit) co_return Status::kEndInTransit;
  if (end->recv.has_value()) co_return Status::kActivityPending;
  end->recv = RecvActivity{max_len};
  deliver_pending(*end);
  co_return Status::kOk;
}

sim::Task<Status> Kernel::cancel(Pid caller, EndId end_id,
                                 Direction direction) {
  co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
  EndState* end = nullptr;
  if (Status st = validate_owned(caller, end_id, &end); st != Status::kOk) {
    co_return st;
  }
  if (direction == Direction::kReceive) {
    if (end->recv.has_value()) {
      end->recv.reset();
      co_return Status::kOk;
    }
    if (end->unwaited_recv_completions > 0) co_return Status::kCancelTooLate;
    co_return Status::kNoActivity;
  }
  // Direction::kSend: race the delivery.
  if (!end->send.has_value()) co_return Status::kNoActivity;
  if (end->send->cancel_requested) co_return Status::kActivityPending;
  end->send->cancel_requested = true;
  transmit(end->peer_node,
           wire::CancelReq{end->send->msg.seq, end_id, end->peer});
  co_return Status::kOk;
}

sim::Task<Status> Kernel::destroy(Pid caller, EndId end_id) {
  co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
  EndState* end = nullptr;
  if (Status st = validate_owned(caller, end_id, &end); st != Status::kOk) {
    co_return st;
  }
  if (end->destroyed) co_return Status::kLinkDestroyed;
  begin_destroy(*end);
  co_return Status::kOk;
}

void Kernel::begin_destroy(EndState& end) {
  end.destroyed = true;
  fail_end_activities(end, Status::kLinkDestroyed);
  transmit(end.home, wire::DestroyUpdate{end.link, end.id});
}

sim::Task<Completion> Kernel::wait(Pid caller) {
  co_await cluster_->engine().sleep(cluster_->costs().call_overhead);
  auto it = completions_.find(caller);
  if (it == completions_.end()) {
    // Process terminated while (or just before) waiting: hand back a
    // poison completion (invalid end) so run-time pumps can stop.
    co_return Completion{};
  }
  Completion c = co_await it->second->get();
  if (c.direction == Direction::kReceive) {
    if (EndState* end = find_end(c.end);
        end != nullptr && end->unwaited_recv_completions > 0) {
      --end->unwaited_recv_completions;
    }
  }
  co_return c;
}

bool Kernel::completion_ready(Pid caller) {
  auto it = completions_.find(caller);
  return it != completions_.end() && !it->second->empty();
}

void Kernel::terminate_process(Pid pid) {
  if (!processes_.contains(pid)) return;
  std::vector<EndId> owned;
  for (auto& [id, end] : ends_) {
    if (end.owner == pid && !end.destroyed) owned.push_back(id);
  }
  for (EndId id : owned) {
    if (EndState* end = find_end(id)) begin_destroy(*end);
  }
  processes_.erase(pid);
  // The process's pump may be parked in this mailbox's get(), or already
  // woken with its resume queued: retire the mailbox rather than free it
  // under that waiter.  A pump that resumes drains what was queued and
  // then stops on its own.
  if (auto it = completions_.find(pid); it != completions_.end()) {
    retired_completions_.push_back(std::move(it->second));
    completions_.erase(it);
  }
}

// ===================== delivery =====================

void Kernel::deliver_pending(EndState& end) {
  if (!end.recv.has_value() || end.pending.empty()) return;
  PendingMsg pm = std::move(end.pending.front());
  end.pending.pop_front();
  const std::size_t len = std::min(end.recv->max_len, pm.msg.data.size());
  end.recv.reset();

  Completion c;
  c.end = end.id;
  c.direction = Direction::kReceive;
  c.status = Status::kOk;
  c.length = len;
  c.trace = pm.msg.trace;
  c.data.assign(pm.msg.data.begin(),
                pm.msg.data.begin() + static_cast<std::ptrdiff_t>(len));

  sim::Duration cost = cluster_->costs().per_byte_copy *
                       static_cast<sim::Duration>(len);
  if (pm.msg.has_enclosure) {
    const wire::EnclosureDesc& desc = pm.msg.enclosure;
    // Install the moved end locally — resuming its ack-protocol
    // counters where the previous kernel stopped — and tell the home.
    EndState moved;
    moved.id = desc.end;
    moved.link = desc.link;
    moved.peer = desc.peer;
    moved.owner = end.owner;
    moved.peer_node = desc.peer_node;
    moved.home = desc.home;
    moved.next_send_seq = desc.next_send_seq;
    moved.recv_watermark = desc.recv_watermark;
    moved.last_delivered_len = desc.last_delivered_len;
    ends_.emplace(desc.end, std::move(moved));
    transmit(desc.home, wire::MoveUpdate{next_move_seq_++, desc.link,
                                         desc.end, node_, end.owner});
    c.enclosure = desc.end;
    cost += cluster_->costs().enclosure_processing;
  }
  ++end.unwaited_recv_completions;
  end.recv_watermark = pm.msg.seq;
  end.last_delivered_len = len;

  const Pid owner = end.owner;
  const EndId end_id = end.id;
  OwedAck owed{pm.msg.seq, len, pm.msg.from_end, pm.from_node, pm.msg.trace};
  cluster_->engine().schedule(cost, [this, owner, c = std::move(c), end_id,
                                     owed] {
    complete(owner, c);
    owe_ack(end_id, owed);
  });
}

void Kernel::owe_ack(EndId end_id, OwedAck owed) {
  EndState* end = find_end(end_id);
  if (end == nullptr) {
    // The end vanished (moved away or destroyed) between delivery and
    // this point: fall back to an immediate standalone ack, as with
    // ack_coalesce_delay = 0.
    transmit(owed.to, wire::MsgAck{owed.seq, owed.peer, owed.len, owed.trace},
             owed.trace);
    return;
  }
  flush_owed_ack(*end);  // stop-and-wait should make this a no-op
  end->owed_ack = owed;
  const sim::Duration delay = cluster_->costs().ack_coalesce_delay;
  if (delay <= 0) {
    flush_owed_ack(*end);
    return;
  }
  // Decide one microstep later whether coalescing can pay off.  The
  // delivery completion scheduled just before us wakes the receiving
  // thread first (FIFO tie order), and a reply posts its SendActivity
  // synchronously before sleeping through its send cost — so by the
  // time this runs, any reverse traffic this ack could ride is already
  // visible on the end.  If none is (the link is idle), or the posted
  // frame will not reach the wire inside the coalescing window,
  // withholding the ack buys nothing and costs the remote sender a
  // full ack_coalesce_delay of retransmit-timer exposure (the E3
  // regression): flush immediately instead.
  cluster_->engine().schedule(0, [this, end_id, seq = owed.seq] {
    EndState* e = find_end(end_id);
    if (e == nullptr || !e->owed_ack.has_value() || e->owed_ack->seq != seq) {
      return;
    }
    const sim::Duration window = cluster_->costs().ack_coalesce_delay;
    const bool reverse_pending =
        e->send.has_value() && e->send->first_sent_at == 0 &&
        e->peer_node == e->owed_ack->to &&
        e->send->planned_tx_at <= cluster_->engine().now() + window;
    if (!reverse_pending) {
      flush_owed_ack(*e);
      return;
    }
    // A frame to the acked node hits the wire within the window: hold
    // the ack for attach_piggyback, with the timer as a safety net in
    // case that send dies before transmission.
    e->ack_timer.cancel();
    e->ack_timer = cluster_->engine().schedule_cancellable(
        window, [this, end_id, seq] {
          EndState* e2 = find_end(end_id);
          if (e2 == nullptr || !e2->owed_ack.has_value() ||
              e2->owed_ack->seq != seq) {
            return;
          }
          flush_owed_ack(*e2);
        });
  });
}

void Kernel::flush_owed_ack(EndState& end) {
  if (!end.owed_ack.has_value()) return;
  const OwedAck owed = *end.owed_ack;
  end.ack_timer.cancel();
  end.owed_ack.reset();
  transmit(owed.to, wire::MsgAck{owed.seq, owed.peer, owed.len, owed.trace},
           owed.trace);
}

void Kernel::fail_end_activities(EndState& end, Status status) {
  // An ack still coalescing must not die with the end: the peer's send
  // did complete, and it must hear so before it hears the link is gone.
  flush_owed_ack(end);
  if (end.send.has_value()) {
    Completion c;
    c.end = end.id;
    c.direction = Direction::kSend;
    c.status = status;
    // A failed send never moved its enclosure; give it back.
    if (end.send->enclosure.valid()) {
      if (EndState* enc = find_end(end.send->enclosure)) {
        enc->in_transit = false;
      }
    }
    clear_send(end);
    complete(end.owner, c);
  }
  if (end.recv.has_value()) {
    Completion c;
    c.end = end.id;
    c.direction = Direction::kReceive;
    c.status = status;
    end.recv.reset();
    ++end.unwaited_recv_completions;
    complete(end.owner, c);
  }
  // Pending undelivered messages: bounce to their senders.
  while (!end.pending.empty()) {
    PendingMsg pm = std::move(end.pending.front());
    end.pending.pop_front();
    transmit(pm.from_node,
             wire::MsgNackDestroyed{pm.msg.seq, pm.msg.from_end});
  }
}

// ===================== frame handlers =====================

void Kernel::handle(const wire::Msg& m, net::NodeId from) {
  // A piggybacked ack settles the reverse direction first — it may well
  // be what this very frame's recipient is blocked on.
  if (m.has_ack) apply_ack(m.to_end, m.ack_seq, m.ack_len, from);
  EndState* end = find_end(m.to_end);
  if (end == nullptr) {
    if (auto it = forwarded_.find(m.to_end); it != forwarded_.end()) {
      transmit(from,
               wire::MsgNackMoved{m.seq, m.from_end, m.to_end, it->second});
    } else {
      transmit(from, wire::MsgNackDestroyed{m.seq, m.from_end});
    }
    return;
  }
  if (end->destroyed) {
    transmit(from, wire::MsgNackDestroyed{m.seq, m.from_end});
    return;
  }
  if (deduplicate(*end, m, from)) return;
  end->pending.push_back(PendingMsg{m, from});
  deliver_pending(*end);
}

bool Kernel::deduplicate(EndState& end, const wire::Msg& m, net::NodeId from) {
  // Cumulative-ack watermark: per-end seqs are strictly increasing and
  // the sender is stop-and-wait, so anything at or below the watermark
  // is a duplicate — no matter how long the medium delayed it.  (The
  // old 16-entry `acked` deque forgot deliveries and let a duplicate
  // delayed past 16 later ones through; see
  // CharlotteAckProtocol.DelayedDuplicateBeyondOldWindowIsScreened.)
  if (m.seq <= end.recv_watermark) {
    if (m.seq == end.recv_watermark) {
      // The sender may still be retransmitting this one: its ack (or a
      // predecessor) was lost.  Re-ack immediately — never coalesced —
      // so its timer stands down.
      if (!cluster_->costs().debug_drop_reacks) {
        transmit(from,
                 wire::MsgAck{m.seq, m.from_end, end.last_delivered_len,
                              m.trace},
                 m.trace);
      }
    }
    // Below the watermark the sender has long since moved on (it could
    // only start seq n+1 after settling seq n); nobody needs an ack.
    return true;
  }
  for (const PendingMsg& pm : end.pending) {
    if (pm.msg.seq == m.seq) return true;  // queued; delivery will ack
  }
  return false;
}

void Kernel::apply_ack(EndId to_end, std::uint64_t seq, std::size_t len,
                       net::NodeId from) {
  EndState* end = find_end(to_end);
  if (end == nullptr || !end->send.has_value() ||
      end->send->msg.seq != seq) {
    return;  // stale ack (e.g. the send was failed by a LinkDown race)
  }
  if (end->send->attempts == 1 && end->send->first_sent_at > 0) {
    // Karn's rule: only unretransmitted exchanges produce samples (a
    // retransmitted one can't tell which copy this ack answers).
    end->rtt.observe(cluster_->engine().now() - end->send->first_sent_at);
  }
  const EndId enclosure = end->send->enclosure;
  clear_send(*end);
  Completion c;
  c.end = end->id;
  c.direction = Direction::kSend;
  c.status = Status::kOk;
  c.length = len;
  complete(end->owner, c);

  if (enclosure.valid()) {
    // The enclosure now lives at the receiver: retire the local record,
    // leave a tombstone, bounce anything that was parked on it.
    if (EndState* enc = find_end(enclosure)) {
      flush_owed_ack(*enc);  // an ack it still owed leaves from here
      while (!enc->pending.empty()) {
        PendingMsg pm = std::move(enc->pending.front());
        enc->pending.pop_front();
        transmit(pm.from_node, wire::MsgNackMoved{pm.msg.seq, pm.msg.from_end,
                                                  enclosure, from});
      }
      ends_.erase(enclosure);
    }
    forwarded_[enclosure] = from;
  }
}

void Kernel::handle(const wire::MsgAck& m, net::NodeId from) {
  apply_ack(m.to_end, m.seq, m.delivered_len, from);
}

void Kernel::handle(const wire::MsgNackMoved& m, net::NodeId /*from*/) {
  EndState* end = find_end(m.to_end);
  if (end == nullptr || !end->send.has_value() ||
      end->send->msg.seq != m.seq) {
    return;
  }
  end->peer_node = m.new_node;
  const Costs& costs = cluster_->costs();
  const sim::Duration cost =
      costs.frame_processing +
      costs.per_byte_copy *
          static_cast<sim::Duration>(end->send->msg.data.size());
  // Count the retransmit, stamp its trace record, and re-arm the timer
  // only when the deferred frame actually leaves.  Doing any of it here
  // — while the repackaging cost is still being paid — double-counts
  // whenever an ack (a racing re-ack, or a CancelReply) lands inside
  // the cost window: the send would already be settled, yet
  // `retransmits_` claimed a retransmission and the freshly-armed timer
  // could fire a spurious copy measured from the wrong origin.
  cluster_->engine().schedule(cost, [this, id = m.to_end, seq = m.seq] {
    EndState* e = find_end(id);
    if (e == nullptr || e->destroyed || !e->send.has_value() ||
        e->send->msg.seq != seq) {
      return;  // settled while the kernel was repackaging; nothing to resend
    }
    ++retransmits_;
    if (auto* rec = trace::get(cluster_->engine())) {
      rec->instant(node_.value(), "kernel", "msg.retransmit.moved",
                   e->send->msg.trace, seq, e->peer_node.value());
    }
    transmit(e->peer_node, e->send->msg, e->send->msg.trace);
    arm_send_timer(*e);
  });
}

void Kernel::handle(const wire::MsgNackDestroyed& m, net::NodeId /*from*/) {
  EndState* end = find_end(m.to_end);
  if (end == nullptr || !end->send.has_value() ||
      end->send->msg.seq != m.seq) {
    return;
  }
  end->destroyed = true;
  fail_end_activities(*end, Status::kLinkDestroyed);
}

void Kernel::handle(const wire::CancelReq& m, net::NodeId from) {
  EndState* end = find_end(m.to_end);
  bool revoked = false;
  if (end != nullptr) {
    auto it = std::find_if(
        end->pending.begin(), end->pending.end(),
        [&](const PendingMsg& pm) { return pm.msg.seq == m.seq; });
    if (it != end->pending.end()) {
      end->pending.erase(it);
      revoked = true;
    }
  }
  transmit(from, wire::CancelReply{m.seq, m.from_end, revoked});
}

void Kernel::handle(const wire::CancelReply& m, net::NodeId /*from*/) {
  if (!m.revoked) return;  // delivery won the race; MsgAck settles it
  EndState* end = find_end(m.to_end);
  if (end == nullptr || !end->send.has_value() ||
      end->send->msg.seq != m.seq) {
    return;
  }
  if (end->send->enclosure.valid()) {
    if (EndState* enc = find_end(end->send->enclosure)) {
      enc->in_transit = false;
    }
  }
  clear_send(*end);
  Completion c;
  c.end = end->id;
  c.direction = Direction::kSend;
  c.status = Status::kCancelled;
  complete(end->owner, c);
}

void Kernel::handle(const wire::MoveUpdate& m, net::NodeId from) {
  auto it = homes_.find(m.link);
  RELYNX_ASSERT_MSG(it != homes_.end(), "MoveUpdate at non-home kernel");
  HomeRecord& rec = it->second;
  if (rec.destroyed) {
    transmit(from, wire::MoveAck{m.move_seq, m.end, true, net::NodeId()});
    return;
  }
  HomeEndInfo& moved = (rec.a.end == m.end) ? rec.a : rec.b;
  HomeEndInfo& fixed = (rec.a.end == m.end) ? rec.b : rec.a;
  RELYNX_ASSERT(moved.end == m.end);
  moved.node = m.new_node;
  moved.owner = m.new_owner;
  transmit(fixed.node, wire::PeerMoved{m.link, fixed.end, m.new_node});
  transmit(from, wire::MoveAck{m.move_seq, m.end, false, fixed.node});
}

void Kernel::handle(const wire::PeerMoved& m, net::NodeId from) {
  EndState* end = find_end(m.end);
  if (end == nullptr) {
    // The informed end itself moved meanwhile; chase it.
    if (auto it = forwarded_.find(m.end); it != forwarded_.end()) {
      transmit(it->second, m);
    }
    return;
  }
  (void)from;
  end->peer_node = m.peer_node;
}

void Kernel::handle(const wire::MoveAck& m, net::NodeId /*from*/) {
  EndState* end = find_end(m.end);
  if (end == nullptr) return;
  if (m.link_destroyed) {
    end->destroyed = true;
    fail_end_activities(*end, Status::kLinkDestroyed);
    return;
  }
  end->peer_node = m.peer_node;
  deliver_pending(*end);
}

void Kernel::handle(const wire::DestroyUpdate& m, net::NodeId /*from*/) {
  auto it = homes_.find(m.link);
  RELYNX_ASSERT_MSG(it != homes_.end(), "DestroyUpdate at non-home kernel");
  HomeRecord& rec = it->second;
  if (rec.destroyed) return;
  rec.destroyed = true;
  transmit(rec.a.node, wire::LinkDown{m.link, rec.a.end});
  transmit(rec.b.node, wire::LinkDown{m.link, rec.b.end});
}

void Kernel::handle(const wire::LinkDown& m, net::NodeId /*from*/) {
  EndState* end = find_end(m.end);
  if (end == nullptr) {
    if (auto it = forwarded_.find(m.end); it != forwarded_.end()) {
      transmit(it->second, m);
    }
    return;
  }
  if (end->destroyed) return;  // we initiated; already failed locally
  end->destroyed = true;
  fail_end_activities(*end, Status::kLinkDestroyed);
}

}  // namespace charlotte
