#include "soda/kernel.hpp"

#include <algorithm>
#include <array>

#include "trace/trace.hpp"

namespace soda {

// ===================== Network =====================

Network::Network(sim::Engine& engine, std::size_t nodes, net::Medium& medium,
                 Costs costs)
    : engine_(&engine), costs_(costs), medium_(&medium) {
  kernels_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    kernels_.push_back(std::make_unique<Kernel>(
        *this, net::NodeId(static_cast<std::uint32_t>(i))));
  }
}

Network::~Network() = default;

Kernel& Network::kernel(net::NodeId node) {
  RELYNX_ASSERT(node.value() < kernels_.size());
  return *kernels_[node.value()];
}

Pid Network::create_process(net::NodeId node) {
  const Pid pid = pids_.next();
  process_node_.emplace(pid, node);
  kernel(node).register_process(pid);
  return pid;
}

Kernel& Network::kernel_of(Pid pid) { return kernel(node_of(pid)); }

net::NodeId Network::node_of(Pid pid) const {
  auto it = process_node_.find(pid);
  RELYNX_ASSERT_MSG(it != process_node_.end(), "unknown pid");
  return it->second;
}

bool Network::alive(Pid pid) const {
  return process_node_.contains(pid) && !dead_.contains(pid);
}

void Network::terminate(Pid pid) {
  if (!alive(pid)) return;
  dead_.insert(pid);
  kernel_of(pid).terminate_process(pid);
}

// ===================== Kernel plumbing =====================

Kernel::Kernel(Network& network, net::NodeId node)
    : network_(&network), node_(node),
      counts_(network.engine().counts(node.value())),
      packer_(network.engine(), network.medium(), node,
              network.costs().form_delay) {
  network_->medium().attach(node_, [this](net::Frame f) {
    const Costs& costs = network_->costs();
    packer_.receive(
        std::move(f), costs.frame_processing, costs.form_enclosure_processing,
        [this](const net::Frame& sub) { return copy_cost(sub); },
        [this](net::Frame& sub) { dispatch(sub); });
  });
}

void Kernel::transmit(net::NodeId dst, WireFrame frame, std::size_t bytes,
                      std::uint64_t trace) {
  if (Transport* t = transport_of(frame)) {
    attach_frag_ack(dst, *t);
    // The frontier can never legitimately exceed the live fragment that
    // carries it — clamp so a frame is never self-screening.
    if (t->tseq > 0) t->tseq_base = std::min(tx_frontier(dst), t->tseq);
  }
  ++counts_.frames_emitted;
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "wire", "frame.tx", trace, frame_code(frame),
                 bytes);
  }
  net::Frame out{node_, dst, bytes, std::move(frame)};
  out.trace_id = trace;
  packer_.submit(std::move(out));
}

Kernel::Transport* Kernel::transport_of(WireFrame& frame) {
  if (auto* rf = std::get_if<ReqFrag>(&frame)) return &rf->transport;
  if (auto* af = std::get_if<AcceptFrag>(&frame)) return &af->transport;
  return nullptr;
}

std::uint64_t Kernel::frame_code(const WireFrame& frame) {
  // In variant order.  6 and 7 are retired: a reused code would give
  // an old digest a new meaning.
  static constexpr std::array<std::uint64_t, 8> kCodes = {0, 1, 2, 3,
                                                          4, 5, 8, 9};
  static_assert(kCodes.size() == std::variant_size_v<WireFrame>);
  return kCodes[frame.index()];
}

bool Kernel::acks_enabled() const {
  return network_->costs().ack_timeout > 0;
}

// ---- ack protocol: receiver side ---------------------------------------

void Kernel::PeerRx::settle() {
  while (!ooo.empty() && *ooo.begin() <= watermark + 1) {
    watermark = std::max(watermark, *ooo.begin());
    ooo.erase(ooo.begin());
  }
}

bool Kernel::screen(const Transport& t, net::NodeId from,
                    std::uint64_t trace) {
  // A piggybacked cumulative ack applies no matter what becomes of the
  // fragment itself.
  if (t.has_ack) apply_cumulative_ack(from, t.ack_seq);
  if (t.tseq == 0) return false;
  advance_base(from, t.tseq_base, trace);
  // Unlike the request-level done_set_, the watermark never forgets,
  // so arbitrarily-delayed duplicates cannot be serviced twice.
  const PeerRx& rx = peer_rx_[from];
  if (t.tseq > rx.watermark && !rx.ooo.contains(t.tseq)) return false;
  reack_now(from, trace);
  return true;
}

void Kernel::ack_fragment(net::NodeId from, std::uint64_t tseq,
                          std::uint64_t trace) {
  if (tseq == 0) return;  // sent with acks off, or with no leg left
  PeerRx& rx = peer_rx_[from];
  if (tseq > rx.watermark) {
    rx.ooo.insert(tseq);
    rx.settle();
  }
  owe_transport_ack(from, trace);
}

void Kernel::advance_base(net::NodeId from, std::uint64_t base,
                          std::uint64_t trace) {
  if (base <= 1) return;
  PeerRx& rx = peer_rx_[from];
  if (base - 1 <= rx.watermark) return;
  // Every tseq below `base` is acked or abandoned at the sender: a
  // retransmission-exhausted send to a crashed node leaves a permanent
  // hole that would otherwise pin the watermark (and with it every
  // later send) forever.  Jump over it and ack so the sender learns.
  rx.watermark = base - 1;
  rx.settle();
  owe_transport_ack(from, trace);
}

void Kernel::owe_transport_ack(net::NodeId to, std::uint64_t trace) {
  PeerRx& rx = peer_rx_[to];
  rx.owed_trace = trace;
  if (rx.ack_owed) return;  // the pending ack's deadline covers this one
  rx.ack_owed = true;
  const sim::Duration delay = network_->costs().ack_coalesce_delay;
  if (delay <= 0) {
    flush_transport_ack(to);
    return;
  }
  rx.ack_timer = network_->engine().schedule_cancellable(
      delay, [this, to] { flush_transport_ack(to); });
}

void Kernel::flush_transport_ack(net::NodeId to) {
  auto it = peer_rx_.find(to);
  if (it == peer_rx_.end() || !it->second.ack_owed) return;
  PeerRx& rx = it->second;
  rx.ack_owed = false;
  rx.ack_timer.cancel();
  transmit(to, TransportAck{rx.watermark}, 8, rx.owed_trace);
}

void Kernel::reack_now(net::NodeId to, std::uint64_t trace) {
  PeerRx& rx = peer_rx_[to];
  rx.ack_owed = false;
  rx.ack_timer.cancel();
  transmit(to, TransportAck{rx.watermark}, 8, trace);
}

void Kernel::attach_frag_ack(net::NodeId dst, Transport& t) {
  if (!acks_enabled()) return;
  auto it = peer_rx_.find(dst);
  if (it == peer_rx_.end() || !it->second.ack_owed) return;
  PeerRx& rx = it->second;
  t.has_ack = true;
  t.ack_seq = rx.watermark;
  rx.ack_owed = false;
  rx.ack_timer.cancel();
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "kernel", "ack.piggyback", rx.owed_trace,
                 rx.watermark, 0);
  }
}

// ---- ack protocol: sender side -----------------------------------------

std::uint64_t Kernel::tx_frontier(net::NodeId dst) {
  const PeerTx& tx = peer_tx_[dst];
  std::uint64_t base = tx.next_tseq;
  const auto scan = [&base](const Leg& leg) {
    for (std::size_t i = 0; i < leg.tseq.size(); ++i) {
      if (!leg.acked[i]) base = std::min(base, leg.tseq[i]);
    }
  };
  for (const ReqId req : tx.sends) scan(*outstanding_.at(req).leg);
  for (const ReqId req : tx.accepts) scan(pending_accepts_.at(req).leg);
  return base;
}

void Kernel::apply_cumulative_ack(net::NodeId from, std::uint64_t watermark) {
  const sim::Time now = network_->engine().now();
  auto peer = peer_tx_.find(from);
  if (peer == peer_tx_.end()) return;
  PeerTx& tx = peer->second;
  // Marks the leg's fragments up to the watermark acked; true once all
  // are.  Karn's rule: only a leg acked whole without a retransmission
  // gives the estimator a sample, and only once.
  const auto ack = [&](Leg& leg) {
    bool all = true;
    bool any_new = false;
    for (std::size_t i = 0; i < leg.tseq.size(); ++i) {
      if (!leg.acked[i] && leg.tseq[i] <= watermark) {
        leg.acked[i] = true;
        any_new = true;
      }
      all = all && leg.acked[i];
    }
    if (all && any_new && leg.attempts == 1 && leg.first_sent_at > 0) {
      tx.rtt.observe(now - leg.first_sent_at);
      leg.first_sent_at = 0;
    }
    return all;
  };
  // Newest ReqId first: a batch of RTT samples reaches the estimator in
  // the order E11's SODA loss curves were recorded with.  A request leg
  // stays until its timer finds it acked; an accept leg retires here.
  for (auto r = tx.sends.rbegin(); r != tx.sends.rend(); ++r) {
    ack(*outstanding_.at(*r).leg);
  }
  for (std::size_t i = tx.accepts.size(); i-- > 0;) {
    auto it = pending_accepts_.find(tx.accepts[i]);
    if (ack(it->second.leg)) erase_accept(it);
  }
}

void Kernel::handle(const TransportAck& f, net::NodeId from) {
  apply_cumulative_ack(from, f.watermark);
}

// Absorbing a fragment costs a copy of its data bytes.
sim::Duration Kernel::copy_cost(const net::Frame& frame) const {
  const WireFrame& wf = frame.as<WireFrame>();
  std::size_t bytes = 0;
  if (const auto* rf = std::get_if<ReqFrag>(&wf)) {
    bytes = rf->data.size();
  } else if (const auto* af = std::get_if<AcceptFrag>(&wf)) {
    bytes = af->data.size();
  }
  return network_->costs().per_byte_copy * static_cast<sim::Duration>(bytes);
}

void Kernel::dispatch(net::Frame& frame) {
  std::visit([this, src = frame.src](auto& m) { handle(std::move(m), src); },
             frame.as<WireFrame>());
}

void Kernel::register_process(Pid pid) {
  processes_.insert(pid);
  handler_open_[pid] = true;
  interrupts_.emplace(
      pid, std::make_unique<sim::Mailbox<Interrupt>>(network_->engine()));
}

void Kernel::terminate_process(Pid pid) {
  if (!processes_.contains(pid)) return;
  // Crash interrupts for everything parked here and unaccepted.  The
  // ReqId tables are hashed: act in ReqId order, not bucket order.
  std::vector<ParkedRequest> doomed;
  for (auto& [id, parked] : parked_) {
    if (parked.target == pid) doomed.push_back(parked);
  }
  std::sort(doomed.begin(), doomed.end(),
            [](const ParkedRequest& a, const ParkedRequest& b) {
              return a.id < b.id;
            });
  for (const ParkedRequest& parked : doomed) {
    parked_.erase(parked.id);
    transmit(parked.from_node, CrashNote{parked.id, pid}, 16);
  }
  // This process's own outstanding requests die quietly with it.
  std::vector<ReqId> mine;
  for (auto& [id, out] : outstanding_) {
    if (out.from == pid) mine.push_back(id);
  }
  std::sort(mine.begin(), mine.end());
  for (ReqId id : mine) resolve(outstanding_.find(id), std::nullopt);
  advertised_.erase(pid);
  handler_open_.erase(pid);
  // The mailbox outlives its process: an interrupt raised this instant
  // has already scheduled the reader's wake-up, which must not resume
  // into freed memory.  raise() delivers nothing more once the process
  // is gone.
  processes_.erase(pid);
}

void Kernel::raise(Pid pid, Interrupt intr) {
  network_->engine().schedule(
      network_->costs().interrupt_delivery,
      [this, pid, intr = std::move(intr)]() mutable {
        if (!processes_.contains(pid)) return;  // died meanwhile
        interrupts_.at(pid)->put(std::move(intr));
      });
}

// ===================== names =====================

sim::Task<Name> Kernel::generate_name(Pid caller) {
  co_await network_->engine().sleep(network_->costs().call_overhead);
  (void)caller;
  co_return network_->new_name();
}

sim::Task<Status> Kernel::advertise(Pid caller, Name name) {
  co_await network_->engine().sleep(network_->costs().call_overhead);
  if (!processes_.contains(caller)) co_return Status::kProcessDead;
  advertised_[caller].insert(name);
  co_return Status::kOk;
}

sim::Task<Status> Kernel::unadvertise(Pid caller, Name name) {
  co_await network_->engine().sleep(network_->costs().call_overhead);
  auto it = advertised_.find(caller);
  if (it == advertised_.end() || it->second.erase(name) == 0) {
    co_return Status::kNotAdvertised;
  }
  co_return Status::kOk;
}

sim::Task<std::optional<Pid>> Kernel::discover(Pid caller, Name name) {
  co_await network_->engine().sleep(network_->costs().call_overhead);
  (void)caller;
  const std::uint64_t qid = next_qid_++;
  sim::OneShot<std::optional<Pid>> slot(network_->engine());
  discovers_[qid] = DiscoverWait{&slot, false};

  // Unreliable broadcast query; replies race the timeout.  Routed
  // through the packer so the broadcast cannot overtake queued unicasts.
  ++counts_.frames_emitted;
  packer_.submit_broadcast(
      net::Frame{node_, net::NodeId::invalid(), 16,
                 WireFrame(DiscoverQuery{qid, name, node_})});
  network_->engine().schedule(network_->costs().discover_timeout,
                              [this, qid] {
                                auto it = discovers_.find(qid);
                                if (it == discovers_.end()) return;
                                if (!it->second.settled) {
                                  it->second.settled = true;
                                  it->second.slot->fulfill(std::nullopt);
                                }
                              });
  std::optional<Pid> found = co_await slot.take();
  discovers_.erase(qid);
  co_return found;
}

// ===================== request =====================

namespace {

// Fragments a payload of `len` bytes is cut into (an empty one still
// takes one fragment).
std::uint32_t frags_for(std::size_t len, std::size_t mtu) {
  return static_cast<std::uint32_t>(len == 0 ? 1 : (len + mtu - 1) / mtu);
}

void insert_sorted(std::vector<ReqId>& ids, ReqId id) {
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
}

void erase_sorted(std::vector<ReqId>& ids, ReqId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  RELYNX_ASSERT(it != ids.end() && *it == id);
  ids.erase(it);
}

}  // namespace

bool Kernel::Reassembly::add(std::uint32_t index, std::uint32_t count,
                             std::size_t total, std::size_t mtu,
                             const Payload& frag) {
  if (data.empty()) data = Payload(total, 0);
  if (have.empty()) have.resize(count, false);
  if (index >= have.size() || have[index]) return false;
  have[index] = true;
  const std::size_t lo = static_cast<std::size_t>(index) * mtu;
  RELYNX_ASSERT(lo + frag.size() <= data.size());
  std::copy(frag.begin(), frag.end(), data.writable() + lo);
  ++seen;
  return true;
}

void Kernel::send_request_frags(const Outstanding& out, bool unacked_only) {
  const std::size_t mtu = network_->costs().mtu_bytes;
  const std::size_t len = out.data.size();
  const std::uint32_t frag_count = frags_for(len, mtu);
  for (std::uint32_t i = 0; i < frag_count; ++i) {
    if (unacked_only && out.leg->acked[i]) continue;
    const std::size_t lo = static_cast<std::size_t>(i) * mtu;
    const std::size_t hi = std::min(len, lo + mtu);
    // Each fragment shares the request's buffer; a retransmission
    // shares it again.
    ReqFrag frag{out.id,  out.from,       out.target,
                 out.name, out.oob,       len,
                 out.recv_limit, i,       frag_count,
                 out.data.slice(lo, hi - lo),
                 out.trace};
    if (out.leg) frag.transport.tseq = out.leg->tseq[i];
    transmit(out.target_node, std::move(frag), 24 + (hi - lo), out.trace);
  }
}

void Kernel::send_accept_frags(const PendingAccept& pa, bool unacked_only) {
  const std::size_t mtu = network_->costs().mtu_bytes;
  const std::size_t give = pa.reply.size();
  const std::uint32_t frag_count = frags_for(give, mtu);
  for (std::uint32_t i = 0; i < frag_count; ++i) {
    if (unacked_only && pa.leg.acked[i]) continue;
    const std::size_t lo = static_cast<std::size_t>(i) * mtu;
    const std::size_t hi = std::min(give, lo + mtu);
    AcceptFrag frag{pa.req, pa.oob, pa.delivered, pa.reply_total, i,
                    frag_count, pa.reply.slice(lo, hi - lo), pa.trace};
    if (!pa.leg.tseq.empty()) frag.transport.tseq = pa.leg.tseq[i];
    transmit(pa.leg.dst, std::move(frag), 24 + (hi - lo), pa.trace);
  }
}

// ---- transport-level retransmission (Costs::ack_timeout > 0) ----------

Kernel::Leg Kernel::open_leg(net::NodeId dst, std::size_t frags) {
  const Costs& costs = network_->costs();
  PeerTx& tx = peer_tx_[dst];
  Leg leg;
  leg.dst = dst;
  leg.tseq.resize(frags);
  for (std::uint64_t& s : leg.tseq) s = tx.next_tseq++;
  leg.acked.assign(frags, false);
  leg.cur_rto = tx.rtt.rto(costs.ack_timeout, costs.rto_min, costs.rto_max);
  leg.first_sent_at = network_->engine().now();
  return leg;
}

bool Kernel::retransmit_due(Leg& leg) {
  const Costs& costs = network_->costs();
  if (leg.attempts >= costs.max_transport_attempts) return false;
  ++leg.attempts;
  ++counts_.retries;
  // Exponential backoff, as Charlotte's.
  leg.cur_rto = std::min(leg.cur_rto * 2, costs.rto_max);
  return true;
}

void Kernel::drop_leg(Outstanding& out) {
  if (!out.leg) return;
  out.leg->timer.cancel();
  erase_sorted(peer_tx_.at(out.leg->dst).sends, out.id);
  out.leg.reset();
}

void Kernel::erase_accept(
    std::unordered_map<ReqId, PendingAccept>::iterator it) {
  it->second.leg.timer.cancel();
  erase_sorted(peer_tx_.at(it->second.leg.dst).accepts, it->first);
  pending_accepts_.erase(it);
}

void Kernel::note_done(ReqId req) {
  if (!done_set_.insert(req).second) return;
  done_fifo_.push_back(req);
  if (done_fifo_.size() > 64) {
    done_set_.erase(done_fifo_.front());
    done_fifo_.pop_front();
  }
}

void Kernel::on_request_timeout(ReqId req) {
  auto it = outstanding_.find(req);
  if (it == outstanding_.end() || !it->second.leg) return;
  Outstanding& out = it->second;
  Leg& leg = *out.leg;
  if (std::all_of(leg.acked.begin(), leg.acked.end(),
                  [](bool b) { return b; })) {
    // The wire leg is done; the rendezvous itself may take arbitrarily
    // long (accept is the target's business) — stop watching.
    drop_leg(out);
    return;
  }
  if (!retransmit_due(leg)) {
    // Nothing but silence: the hint was stale, the path is cut, or the
    // target is gone.  SODA can only ever conclude this by timeout.
    resolve(it, CrashInterrupt{out.id, out.target});
    return;
  }
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "kernel", "req.retransmit", out.trace,
                 req.value(), static_cast<std::uint64_t>(leg.attempts));
  }
  send_request_frags(out, /*unacked_only=*/true);
  leg.timer = network_->engine().schedule_cancellable(
      leg.cur_rto, [this, req] { on_request_timeout(req); });
}

void Kernel::on_accept_timeout(ReqId req) {
  auto it = pending_accepts_.find(req);
  if (it == pending_accepts_.end()) return;
  PendingAccept& pa = it->second;
  if (!retransmit_due(pa.leg)) {
    // We accepted but cannot reach the requester.  Best effort: tell it
    // the rendezvous failed (the note itself may be lost; the requester
    // side then never learns, which is exactly SODA's failure mode).
    transmit(pa.leg.dst, CrashNote{pa.req, Pid::invalid()}, 16, pa.trace);
    erase_accept(it);
    return;
  }
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "kernel", "accept.retransmit", pa.trace,
                 req.value(), static_cast<std::uint64_t>(pa.leg.attempts));
  }
  send_accept_frags(pa, /*unacked_only=*/true);
  pa.leg.timer = network_->engine().schedule_cancellable(
      pa.leg.cur_rto, [this, req] { on_accept_timeout(req); });
}

sim::Task<Result<ReqId>> Kernel::request(Pid caller, Pid target, Name name,
                                         Oob oob, Payload send_data,
                                         std::size_t recv_limit,
                                         std::uint64_t trace) {
  const Costs& costs = network_->costs();
  const std::size_t len = send_data.size();
  const std::uint32_t frags = frags_for(len, costs.mtu_bytes);
  co_await network_->engine().sleep(
      costs.call_overhead +
      costs.frame_processing * static_cast<sim::Duration>(frags) +
      costs.per_byte_copy * static_cast<sim::Duration>(len));

  if (!processes_.contains(caller)) co_return common::Err(Status::kProcessDead);
  if (!network_->process_exists(target)) {
    co_return common::Err(Status::kNoSuchProcess);
  }
  int& in_flight = pair_count(caller, target);
  if (in_flight >= costs.max_outstanding_per_pair) {
    co_return common::Err(Status::kTooManyRequests);
  }
  ++in_flight;

  const ReqId id = network_->new_req();
  const net::NodeId node = network_->node_of(target);
  Outstanding& out =
      outstanding_
          .emplace(id, Outstanding{id, caller, target, node, name, oob,
                                   std::move(send_data), recv_limit, 0, trace})
          .first->second;
  if (acks_enabled()) {
    // The leg goes in before the fragments leave: the frontier scan in
    // tx_frontier must see its live tseqs.
    out.leg = open_leg(node, frags);
    insert_sorted(peer_tx_[node].sends, id);
  }
  send_request_frags(out);
  if (out.leg) {
    out.leg->timer = network_->engine().schedule_cancellable(
        out.leg->cur_rto, [this, id] { on_request_timeout(id); });
  }
  co_return id;
}

void Kernel::schedule_retry(ReqId req) {
  ++counts_.retries;
  if (auto it = outstanding_.find(req); it != outstanding_.end()) {
    if (auto* rec = trace::get(network_->engine())) {
      rec->instant(node_.value(), "kernel", "req.retry", it->second.trace,
                   req.value(), static_cast<std::uint64_t>(it->second.attempts));
    }
  }
  network_->engine().schedule(network_->costs().retry_interval,
                              [this, req] {
                                auto it = outstanding_.find(req);
                                if (it == outstanding_.end()) return;
                                send_request_frags(it->second);
                              });
}

void Kernel::park_and_interrupt(ParkedRequest parked) {
  RequestInterrupt intr{parked.id, parked.from, parked.name, parked.oob,
                        parked.data.size(), parked.recv_limit, parked.trace};
  const Pid target = parked.target;
  parked_.emplace(parked.id, std::move(parked));
  raise(target, intr);
}

// ===================== accept =====================

sim::Task<Result<Payload>> Kernel::accept(Pid caller, ReqId request, Oob oob,
                                          Payload reply_data,
                                          std::size_t recv_limit) {
  const Costs& costs = network_->costs();
  auto it = parked_.find(request);
  if (it == parked_.end() || it->second.target != caller) {
    co_await network_->engine().sleep(costs.call_overhead);
    co_return common::Err(Status::kNoSuchRequest);
  }
  ParkedRequest parked = std::move(it->second);
  parked_.erase(it);
  // Claim the request the instant it leaves parked_: the accept's local
  // processing below takes simulated time, and a retransmitted ReqFrag
  // landing in that window would otherwise pass the duplicate check in
  // handle(ReqFrag) and be parked — and serviced — a second time.
  note_done(request);

  // Both limits narrow a window; neither copies.  A retransmitted
  // ReqFrag still carries the requester's whole buffer.
  const std::size_t take = std::min(parked.data.size(), recv_limit);
  Payload taken = std::move(parked.data);
  taken.truncate(take);
  const std::size_t give = std::min(reply_data.size(), parked.recv_limit);
  reply_data.truncate(give);

  const std::uint32_t frag_count = frags_for(give, costs.mtu_bytes);
  co_await network_->engine().sleep(
      costs.call_overhead +
      costs.per_byte_copy * static_cast<sim::Duration>(take + give) +
      costs.frame_processing * frag_count);

  PendingAccept pa{request, oob,         take, give, std::move(reply_data),
                   parked.trace, Leg{}};
  pa.leg.dst = parked.from_node;
  if (!acks_enabled()) {
    send_accept_frags(pa);
    co_return taken;
  }
  pa.leg = open_leg(parked.from_node, frag_count);
  // Leg first, fragments second (like the request path): the frontier
  // scan in tx_frontier must see this accept's live tseqs, or the
  // fragments would carry a tseq_base beyond themselves and the
  // receiver would screen them as duplicates.
  auto [pit, inserted] = pending_accepts_.emplace(request, std::move(pa));
  if (inserted) insert_sorted(peer_tx_[parked.from_node].accepts, request);
  Leg& leg = pit->second.leg;
  send_accept_frags(pit->second);
  leg.timer = network_->engine().schedule_cancellable(
      leg.cur_rto, [this, request] { on_accept_timeout(request); });
  co_return taken;
}

// ===================== frame handlers =====================

void Kernel::handle(ReqFrag f, net::NodeId from) {
  // Transport-level duplicates are screened before any request-level
  // state is consulted.
  if (screen(f.transport, from, f.trace)) return;

  // Whole-request duplicates: already parked here, or already accepted
  // (a retransmission raced the accept).  Re-ack — the first ack may
  // have been lost — but don't park twice.
  if (parked_.contains(f.req) || done_set_.contains(f.req)) {
    ack_fragment(from, f.transport.tseq, f.trace);
    return;
  }

  // Reassemble (single-frag fast path skips the buffer).  Mid-reassembly
  // fragments carry no verdict and are safe to ack immediately; the
  // COMPLETING fragment is only acked once the request is accepted for
  // parking.  If it were acked before a NACK and the NACK frame then
  // lost, the requester's leg would retire with nothing left to
  // retransmit — a lost NACK must leave an unacked fragment behind so
  // retransmission re-elicits the verdict.
  Reassembly* r = nullptr;
  if (f.frag_count > 1) {
    r = &req_reassembly_[f.req];
    if (!r->add(f.frag_index, f.frag_count, f.send_total,
                network_->costs().mtu_bytes, f.data) ||
        !r->whole()) {
      ack_fragment(from, f.transport.tseq, f.trace);
      return;
    }
  }

  // The request is whole: evaluate it.  On a NACK, un-see the completing
  // fragment (keeping the rest of the buffer) so a retransmission of
  // just that fragment re-runs this verdict.
  const auto nack = [&](NackReason reason) {
    if (r != nullptr) {
      r->have[f.frag_index] = false;
      --r->seen;
    }
    transmit(from, ReqNack{f.req, reason}, 12, f.trace);
  };
  if (!processes_.contains(f.target)) {
    nack(NackReason::kDead);
    return;
  }
  auto adv = advertised_.find(f.target);
  if (adv == advertised_.end() || !adv->second.contains(f.name)) {
    nack(NackReason::kNoName);
    return;
  }
  if (!handler_open_[f.target]) {
    nack(NackReason::kClosed);
    return;
  }

  ack_fragment(from, f.transport.tseq, f.trace);
  Payload data = std::move(f.data);
  if (r != nullptr) {
    data = std::move(r->data);
    req_reassembly_.erase(f.req);
  }
  park_and_interrupt(ParkedRequest{f.req, f.from, from, f.target, f.name,
                                   f.oob, std::move(data), f.send_total,
                                   f.recv_limit, f.trace});
}

void Kernel::resolve(std::unordered_map<ReqId, Outstanding>::iterator it,
                     std::optional<Interrupt> intr) {
  Outstanding& out = it->second;
  const Pid from = out.from;
  pair_count(out.from, out.target)--;
  drop_leg(out);
  outstanding_.erase(it);
  if (intr) raise(from, std::move(*intr));
}

void Kernel::handle(const ReqNack& f, net::NodeId /*from*/) {
  auto it = outstanding_.find(f.req);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;
  if (f.reason == NackReason::kDead) {
    resolve(it, CrashInterrupt{out.id, out.target});
  } else if (++out.attempts >= network_->costs().max_request_attempts) {
    resolve(it, RejectInterrupt{out.id, out.target, out.name});
  } else {
    schedule_retry(f.req);
  }
}

void Kernel::handle(AcceptFrag f, net::NodeId from) {
  if (screen(f.transport, from, f.trace)) return;
  // Ack even when the request is already resolved here: the accepter
  // may be retransmitting because *its* acks were lost.  AcceptFrags
  // carry no verdict, so the tseq is recorded at receipt.
  ack_fragment(from, f.transport.tseq, f.trace);
  auto it = outstanding_.find(f.req);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;

  Payload data = std::move(f.data);
  if (f.frag_count > 1) {
    if (!out.reply.add(f.frag_index, f.frag_count, f.reply_total,
                       network_->costs().mtu_bytes, data) ||
        !out.reply.whole()) {
      return;
    }
    data = std::move(out.reply.data);
  }
  data.truncate(out.recv_limit);
  resolve(it, CompletionInterrupt{f.req, f.oob, std::move(data), f.delivered,
                                  f.trace});
}

void Kernel::handle(const CrashNote& f, net::NodeId /*from*/) {
  auto it = outstanding_.find(f.req);
  if (it != outstanding_.end()) resolve(it, CrashInterrupt{f.req, f.target});
}

void Kernel::announce_reboot() {
  ++counts_.frames_emitted;
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "kernel", "node.reboot", 0, node_.value(), 0);
  }
  packer_.submit_broadcast(net::Frame{
      node_, net::NodeId::invalid(), 16, WireFrame(RebootNote{node_})});
}

void Kernel::handle(const RebootNote& f, net::NodeId /*from*/) {
  // Everything we had rendezvoused at that node — parked or accepted —
  // died with its old incarnation; the reply will never come.
  std::vector<ReqId> doomed;
  for (const auto& [id, out] : outstanding_) {
    if (network_->node_of(out.target) == f.node) doomed.push_back(id);
  }
  std::sort(doomed.begin(), doomed.end());  // ReqId order, not bucket order
  for (const ReqId id : doomed) {
    auto it = outstanding_.find(id);
    resolve(it, CrashInterrupt{id, it->second.target});
  }
}

void Kernel::handle(const DiscoverQuery& f, net::NodeId /*from*/) {
  for (const auto& [pid, names] : advertised_) {
    if (names.contains(f.name)) {
      transmit(f.from_node, DiscoverReply{f.qid, f.name, pid}, 16);
      return;
    }
  }
}

void Kernel::handle(const DiscoverReply& f, net::NodeId /*from*/) {
  auto it = discovers_.find(f.qid);
  if (it == discovers_.end() || it->second.settled) return;
  it->second.settled = true;
  it->second.slot->fulfill(f.pid);
}

// ===================== interrupts =====================

sim::Task<Interrupt> Kernel::next_interrupt(Pid caller) {
  auto it = interrupts_.find(caller);
  RELYNX_ASSERT_MSG(it != interrupts_.end(),
                    "next_interrupt by unknown process");
  Interrupt intr = co_await it->second->get();
  co_return intr;
}

void Kernel::close_handler(Pid caller) { handler_open_[caller] = false; }
void Kernel::open_handler(Pid caller) { handler_open_[caller] = true; }

}  // namespace soda
