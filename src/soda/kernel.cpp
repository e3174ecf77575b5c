#include "soda/kernel.hpp"

#include <algorithm>
#include <array>

#include "trace/trace.hpp"

namespace soda {

// ===================== Network =====================

Network::Network(sim::Engine& engine, std::size_t nodes, sim::Rng rng,
                 net::CsmaBusParams bus_params, Costs costs)
    : engine_(&engine),
      costs_(costs),
      bus_(std::make_unique<net::CsmaBus>(engine, rng, bus_params)),
      medium_(bus_.get()) {
  kernels_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    kernels_.push_back(std::make_unique<Kernel>(
        *this, net::NodeId(static_cast<std::uint32_t>(i))));
  }
}

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

std::uint64_t Network::total_frames() const {
  std::uint64_t n = 0;
  for (const auto& k : kernels_) n += k->frames_emitted();
  return n;
}

// ===================== Kernel plumbing =====================

Kernel::Kernel(Network& network, net::NodeId node)
    : network_(&network), node_(node),
      packer_(network.engine(), network.medium(), node,
              form::Params{network.costs().form_delay,
                           network.costs().form_max_bytes}) {
  network_->medium().attach(node_,
                            [this](const net::Frame& f) { on_frame(f); });
}

void Kernel::transmit(net::NodeId dst, WireFrame frame, std::size_t bytes,
                      std::uint64_t trace) {
  attach_frag_ack(dst, frame);
  // The frontier can never legitimately exceed the live fragment that
  // carries it — clamp so a frame is never self-screening.
  if (auto* rf = std::get_if<ReqFrag>(&frame)) {
    if (rf->tseq > 0) rf->tseq_base = std::min(tx_frontier(dst), rf->tseq);
  } else if (auto* af = std::get_if<AcceptFrag>(&frame)) {
    if (af->tseq > 0) af->tseq_base = std::min(tx_frontier(dst), af->tseq);
  }
  ++frames_out_;
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "wire", "frame.tx", trace, frame_code(frame),
                 bytes);
  }
  net::Frame out{node_, dst, bytes, std::move(frame)};
  out.trace_id = trace;
  packer_.submit(std::move(out));
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

bool Kernel::transport_dup(net::NodeId from, std::uint64_t tseq) {
  const PeerRx& rx = peer_rx_[from];
  return tseq <= rx.watermark || rx.ooo.contains(tseq);
}

void Kernel::record_tseq(net::NodeId from, std::uint64_t tseq) {
  PeerRx& rx = peer_rx_[from];
  if (tseq <= rx.watermark) return;
  rx.ooo.insert(tseq);
  while (rx.ooo.contains(rx.watermark + 1)) {
    rx.ooo.erase(rx.watermark + 1);
    ++rx.watermark;
  }
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
  while (!rx.ooo.empty() && *rx.ooo.begin() <= rx.watermark) {
    rx.ooo.erase(rx.ooo.begin());
  }
  while (rx.ooo.contains(rx.watermark + 1)) {
    rx.ooo.erase(rx.watermark + 1);
    ++rx.watermark;
  }
  owe_transport_ack(from, trace);
}

std::uint64_t Kernel::tx_frontier(net::NodeId dst) {
  const PeerTx& tx = peer_tx_[dst];
  std::uint64_t base = tx.next_tseq;
  for (const ReqId req : tx.sends) {
    const TransportSend& ts = transport_.at(req);
    for (std::size_t i = 0; i < ts.tseq.size(); ++i) {
      if (!ts.acked[i]) base = std::min(base, ts.tseq[i]);
    }
  }
  for (const ReqId req : tx.accepts) {
    const PendingAccept& pa = pending_accepts_.at(req);
    for (std::size_t i = 0; i < pa.tseq.size(); ++i) {
      if (!pa.acked[i]) base = std::min(base, pa.tseq[i]);
    }
  }
  return base;
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

void Kernel::ack_req_frag(net::NodeId from, const ReqFrag& f) {
  if (f.tseq == 0) return;  // sent with acks off, or with no tracker left
  record_tseq(from, f.tseq);
  owe_transport_ack(from, f.trace);
}

void Kernel::attach_frag_ack(net::NodeId dst, WireFrame& frame) {
  if (!acks_enabled()) return;
  auto it = peer_rx_.find(dst);
  if (it == peer_rx_.end() || !it->second.ack_owed) return;
  PeerRx& rx = it->second;
  if (auto* rf = std::get_if<ReqFrag>(&frame)) {
    rf->has_ack = true;
    rf->ack_seq = rx.watermark;
  } else if (auto* af = std::get_if<AcceptFrag>(&frame)) {
    af->has_ack = true;
    af->ack_seq = rx.watermark;
  } else {
    return;
  }
  rx.ack_owed = false;
  rx.ack_timer.cancel();
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "kernel", "ack.piggyback", rx.owed_trace,
                 rx.watermark, 0);
  }
}

// ---- ack protocol: sender side -----------------------------------------

void Kernel::apply_cumulative_ack(net::NodeId from, std::uint64_t watermark) {
  const sim::Time now = network_->engine().now();
  auto peer = peer_tx_.find(from);
  if (peer == peer_tx_.end()) return;
  PeerTx& tx = peer->second;
  // Newest ReqId first: a batch of RTT samples reaches the estimator in
  // the order E11's SODA loss curves were recorded with.
  for (auto r = tx.sends.rbegin(); r != tx.sends.rend(); ++r) {
    TransportSend& ts = transport_.at(*r);
    bool all = true;
    bool any_new = false;
    for (std::size_t i = 0; i < ts.tseq.size(); ++i) {
      if (!ts.acked[i] && ts.tseq[i] <= watermark) {
        ts.acked[i] = true;
        any_new = true;
      }
      all = all && ts.acked[i];
    }
    if (all && any_new && ts.attempts == 1 && ts.first_sent_at > 0) {
      // Karn's rule: only unretransmitted exchanges produce samples.
      tx.rtt.observe(now - ts.first_sent_at);
      ts.first_sent_at = 0;
    }
  }
  std::vector<ReqId> finished;
  for (auto r = tx.accepts.rbegin(); r != tx.accepts.rend(); ++r) {
    const ReqId req = *r;
    PendingAccept& pa = pending_accepts_.at(req);
    bool all = true;
    bool any_new = false;
    for (std::size_t i = 0; i < pa.tseq.size(); ++i) {
      if (!pa.acked[i] && pa.tseq[i] <= watermark) {
        pa.acked[i] = true;
        any_new = true;
      }
      all = all && pa.acked[i];
    }
    if (all) {
      if (any_new && pa.attempts == 1 && pa.first_sent_at > 0) {
        tx.rtt.observe(now - pa.first_sent_at);
      }
      finished.push_back(req);
    }
  }
  for (const ReqId req : finished) {
    auto it = pending_accepts_.find(req);
    it->second.timer.cancel();
    erase_accept(it);
  }
}

void Kernel::handle(const TransportAck& f, net::NodeId from) {
  apply_cumulative_ack(from, f.watermark);
}

void Kernel::on_frame(const net::Frame& frame) {
  if (std::any_cast<form::Batch>(&frame.body) != nullptr) {
    on_batch(frame);
    return;
  }
  const auto& wf = frame.as<WireFrame>();
  sim::Duration cost = network_->costs().frame_processing;
  if (const auto* rf = std::get_if<ReqFrag>(&wf)) {
    cost += network_->costs().per_byte_copy *
            static_cast<sim::Duration>(rf->data.size());
  } else if (const auto* af = std::get_if<AcceptFrag>(&wf)) {
    cost += network_->costs().per_byte_copy *
            static_cast<sim::Duration>(af->data.size());
  }
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "wire", "frame.rx", frame.trace_id, frame.id,
                 frame.payload_bytes);
  }
  network_->engine().schedule(cost, [this, wf, src = frame.src] {
    std::visit([this, src](const auto& m) { handle(m, src); }, wf);
  });
}

// A form::Batch arrived: one frame absorption for the whole batch, then
// a cheap length-prefixed walk demultiplexes the enclosures.  All
// enclosures dispatch in one scheduled event, in submission order, so
// per-link FIFO is preserved exactly as if they had been separate
// frames (src/form/, DESIGN.md §14).
void Kernel::on_batch(const net::Frame& frame) {
  const auto& batch = frame.as<form::Batch>();
  const Costs& costs = network_->costs();
  sim::Duration cost = costs.frame_processing;
  for (const net::Frame& sub : batch.frames) {
    cost += costs.form_enclosure_processing;
    const auto& wf = sub.as<WireFrame>();
    if (const auto* rf = std::get_if<ReqFrag>(&wf)) {
      cost += costs.per_byte_copy * static_cast<sim::Duration>(rf->data.size());
    } else if (const auto* af = std::get_if<AcceptFrag>(&wf)) {
      cost += costs.per_byte_copy * static_cast<sim::Duration>(af->data.size());
    }
  }
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "wire", "batch.rx", frame.trace_id, frame.id,
                 batch.frames.size());
    for (const net::Frame& sub : batch.frames) {
      rec->instant(node_.value(), "wire", "frame.rx", sub.trace_id, frame.id,
                   sub.payload_bytes);
    }
  }
  std::vector<WireFrame> enclosed;
  enclosed.reserve(batch.frames.size());
  for (const net::Frame& sub : batch.frames) {
    enclosed.push_back(sub.as<WireFrame>());
  }
  network_->engine().schedule(
      cost, [this, enclosed = std::move(enclosed), src = frame.src] {
        for (const WireFrame& wf : enclosed) {
          std::visit([this, src](const auto& m) { handle(m, src); }, wf);
        }
      });
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
  for (ReqId id : mine) {
    pair_count(outstanding_[id].from, outstanding_[id].target)--;
    outstanding_.erase(id);
    drop_transport(id);
  }
  advertised_.erase(pid);
  handler_open_.erase(pid);
  interrupts_.erase(pid);
  processes_.erase(pid);
}

void Kernel::raise(Pid pid, Interrupt intr) {
  network_->engine().schedule(
      network_->costs().interrupt_delivery,
      [this, pid, intr = std::move(intr)] {
        auto it = interrupts_.find(pid);
        if (it == interrupts_.end()) return;  // died meanwhile
        it->second->put(intr);
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
  ++frames_out_;
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

void Kernel::send_request_frags(const Outstanding& out,
                                const std::vector<bool>* skip) {
  const std::size_t mtu = network_->costs().mtu_bytes;
  const std::size_t len = out.data.size();
  const auto frag_count = static_cast<std::uint32_t>(
      len == 0 ? 1 : (len + mtu - 1) / mtu);
  // Each fragment carries the per-peer transport sequence it was
  // assigned at first transmission (stored on the tracker).
  const std::vector<std::uint64_t>* tseqs = nullptr;
  if (auto tt = transport_.find(out.id); tt != transport_.end()) {
    tseqs = &tt->second.tseq;
  }
  for (std::uint32_t i = 0; i < frag_count; ++i) {
    if (skip != nullptr && i < skip->size() && (*skip)[i]) continue;
    const std::size_t lo = static_cast<std::size_t>(i) * mtu;
    const std::size_t hi = std::min(len, lo + mtu);
    ReqFrag frag{out.id,  out.from,       out.target,
                 out.name, out.oob,       out.data.size(),
                 out.recv_limit, i,       frag_count,
                 Payload(out.data.begin() + static_cast<std::ptrdiff_t>(lo),
                         out.data.begin() + static_cast<std::ptrdiff_t>(hi)),
                 out.trace};
    if (tseqs != nullptr && i < tseqs->size()) frag.tseq = (*tseqs)[i];
    transmit(out.target_node, std::move(frag), 24 + (hi - lo), out.trace);
  }
}

void Kernel::send_accept_frags(const PendingAccept& pa,
                               const std::vector<bool>* skip) {
  const std::size_t mtu = network_->costs().mtu_bytes;
  const std::size_t give = pa.reply.size();
  const auto frag_count = static_cast<std::uint32_t>(
      give == 0 ? 1 : (give + mtu - 1) / mtu);
  for (std::uint32_t i = 0; i < frag_count; ++i) {
    if (skip != nullptr && i < skip->size() && (*skip)[i]) continue;
    const std::size_t lo = static_cast<std::size_t>(i) * mtu;
    const std::size_t hi = std::min(give, lo + mtu);
    AcceptFrag frag{pa.req, pa.oob, pa.delivered, pa.reply_total, i,
                    frag_count,
                    Payload(pa.reply.begin() + static_cast<std::ptrdiff_t>(lo),
                            pa.reply.begin() + static_cast<std::ptrdiff_t>(hi)),
                    pa.trace};
    if (i < pa.tseq.size()) frag.tseq = pa.tseq[i];
    transmit(pa.dst, std::move(frag), 24 + (hi - lo), pa.trace);
  }
}

// ---- transport-level retransmission (Costs::ack_timeout > 0) ----------

void Kernel::drop_transport(ReqId req) {
  auto it = transport_.find(req);
  if (it == transport_.end()) return;
  it->second.timer.cancel();
  erase_transport(it);
}

namespace {

void insert_sorted(std::vector<ReqId>& ids, ReqId id) {
  ids.insert(std::upper_bound(ids.begin(), ids.end(), id), id);
}

void erase_sorted(std::vector<ReqId>& ids, ReqId id) {
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  RELYNX_ASSERT(it != ids.end() && *it == id);
  ids.erase(it);
}

}  // namespace

void Kernel::erase_transport(
    std::unordered_map<ReqId, TransportSend>::iterator it) {
  erase_sorted(peer_tx_.at(it->second.dst).sends, it->first);
  transport_.erase(it);
}

void Kernel::erase_accept(
    std::unordered_map<ReqId, PendingAccept>::iterator it) {
  erase_sorted(peer_tx_.at(it->second.dst).accepts, it->first);
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

void Kernel::arm_transport_timer(ReqId req) {
  auto it = transport_.find(req);
  if (it == transport_.end()) return;
  it->second.timer = network_->engine().schedule_cancellable(
      it->second.cur_rto, [this, req] { on_transport_timeout(req); });
}

void Kernel::on_transport_timeout(ReqId req) {
  auto tt = transport_.find(req);
  if (tt == transport_.end()) return;
  auto it = outstanding_.find(req);
  if (it == outstanding_.end()) {  // resolved while the timer was armed
    erase_transport(tt);
    return;
  }
  TransportSend& ts = tt->second;
  const bool all_acked =
      std::all_of(ts.acked.begin(), ts.acked.end(), [](bool b) { return b; });
  if (all_acked) {
    // The wire leg is done; the rendezvous itself may take arbitrarily
    // long (accept is the target's business) — stop watching.
    erase_transport(tt);
    return;
  }
  if (ts.attempts >= network_->costs().max_transport_attempts) {
    // Nothing but silence: the hint was stale, the path is cut, or the
    // target is gone.  SODA can only ever conclude this by timeout.
    Outstanding& out = it->second;
    CrashInterrupt intr{out.id, out.target};
    const Pid from_pid = out.from;
    pair_count(out.from, out.target)--;
    outstanding_.erase(it);
    erase_transport(tt);
    raise(from_pid, intr);
    return;
  }
  ++ts.attempts;
  ++retries_;
  // Exponential backoff, as Charlotte's.
  ts.cur_rto = std::min(ts.cur_rto * 2, network_->costs().rto_max);
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "kernel", "req.retransmit", it->second.trace,
                 req.value(), static_cast<std::uint64_t>(ts.attempts));
  }
  send_request_frags(it->second, &ts.acked);
  arm_transport_timer(req);
}

void Kernel::arm_accept_timer(ReqId req) {
  auto it = pending_accepts_.find(req);
  if (it == pending_accepts_.end()) return;
  it->second.timer = network_->engine().schedule_cancellable(
      it->second.cur_rto, [this, req] { on_accept_timeout(req); });
}

void Kernel::on_accept_timeout(ReqId req) {
  auto it = pending_accepts_.find(req);
  if (it == pending_accepts_.end()) return;
  PendingAccept& pa = it->second;
  if (pa.attempts >= network_->costs().max_transport_attempts) {
    // We accepted but cannot reach the requester.  Best effort: tell it
    // the rendezvous failed (the note itself may be lost; the requester
    // side then never learns, which is exactly SODA's failure mode).
    transmit(pa.dst, CrashNote{pa.req, Pid::invalid()}, 16, pa.trace);
    erase_accept(it);
    return;
  }
  ++pa.attempts;
  ++retries_;
  pa.cur_rto = std::min(pa.cur_rto * 2, network_->costs().rto_max);
  if (auto* rec = trace::get(network_->engine())) {
    rec->instant(node_.value(), "kernel", "accept.retransmit", pa.trace,
                 req.value(), static_cast<std::uint64_t>(pa.attempts));
  }
  send_accept_frags(pa, &pa.acked);
  arm_accept_timer(req);
}

sim::Task<Result<ReqId>> Kernel::request(Pid caller, Pid target, Name name,
                                         Oob oob, Payload send_data,
                                         std::size_t recv_limit,
                                         std::uint64_t trace) {
  const Costs& costs = network_->costs();
  const std::size_t len = send_data.size();
  const std::size_t mtu = costs.mtu_bytes;
  const auto frags = static_cast<sim::Duration>(
      len == 0 ? 1 : (len + mtu - 1) / mtu);
  co_await network_->engine().sleep(
      costs.call_overhead + costs.frame_processing * frags +
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
  Outstanding out{id,   caller, target, network_->node_of(target),
                  name, oob,    std::move(send_data), recv_limit, 0, trace};
  const auto frag_count = static_cast<std::size_t>(frags);
  if (acks_enabled()) {
    // The tracker goes in before the fragments leave: send_request_frags
    // reads the assigned tseqs from it.
    PeerTx& tx = peer_tx_[out.target_node];
    TransportSend ts;
    ts.acked.assign(frag_count, false);
    ts.dst = out.target_node;
    ts.tseq.resize(frag_count);
    for (std::uint64_t& s : ts.tseq) s = tx.next_tseq++;
    insert_sorted(tx.sends, id);
    ts.cur_rto = tx.rtt.rto(costs.ack_timeout, costs.rto_min, costs.rto_max);
    ts.first_sent_at = network_->engine().now();
    transport_.emplace(id, std::move(ts));
  }
  send_request_frags(out);
  outstanding_.emplace(id, std::move(out));
  if (acks_enabled()) arm_transport_timer(id);
  co_return id;
}

void Kernel::schedule_retry(ReqId req) {
  ++retries_;
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

  const std::size_t take = std::min(parked.data.size(), recv_limit);
  Payload taken(parked.data.begin(),
                parked.data.begin() + static_cast<std::ptrdiff_t>(take));
  const std::size_t give = std::min(reply_data.size(), parked.recv_limit);
  reply_data.resize(give);

  const std::size_t mtu = costs.mtu_bytes;
  const auto frag_count = static_cast<std::uint32_t>(
      give == 0 ? 1 : (give + mtu - 1) / mtu);
  co_await network_->engine().sleep(
      costs.call_overhead +
      costs.per_byte_copy * static_cast<sim::Duration>(take + give) +
      costs.frame_processing * frag_count);

  PendingAccept pa;
  pa.req = request;
  pa.dst = parked.from_node;
  pa.oob = oob;
  pa.delivered = take;
  pa.reply_total = give;
  pa.reply = std::move(reply_data);
  pa.acked.assign(frag_count, false);
  pa.attempts = 1;
  pa.trace = parked.trace;
  if (!acks_enabled()) {
    send_accept_frags(pa);
    co_return taken;
  }
  PeerTx& tx = peer_tx_[pa.dst];
  pa.tseq.resize(frag_count);
  for (std::uint64_t& s : pa.tseq) s = tx.next_tseq++;
  pa.cur_rto = tx.rtt.rto(costs.ack_timeout, costs.rto_min, costs.rto_max);
  pa.first_sent_at = network_->engine().now();
  // Tracker first, fragments second (like the request path): the
  // frontier scan in tx_frontier must see this accept's live tseqs, or
  // the fragments would carry a tseq_base beyond themselves and the
  // receiver would screen them as duplicates.
  auto [pit, inserted] = pending_accepts_.emplace(request, std::move(pa));
  if (inserted) insert_sorted(tx.accepts, request);
  send_accept_frags(pit->second);
  arm_accept_timer(request);
  co_return taken;
}

// ===================== frame handlers =====================

void Kernel::handle(const ReqFrag& f, net::NodeId from) {
  // A piggybacked cumulative ack applies no matter what becomes of the
  // fragment itself.
  if (f.has_ack) apply_cumulative_ack(from, f.ack_seq);

  // Transport-level duplicates are screened by the per-peer watermark
  // before any request-level state is consulted — the peer is
  // retransmitting because its ack was lost, so re-ack immediately
  // (never coalesced) and drop.  Unlike the done_set_ below, the
  // watermark never forgets, so arbitrarily-delayed duplicates cannot
  // be serviced twice.
  if (f.tseq > 0) {
    advance_base(from, f.tseq_base, f.trace);
    if (transport_dup(from, f.tseq)) {
      reack_now(from, f.trace);
      return;
    }
  }

  // Whole-request duplicates: already parked here, or already accepted
  // (a retransmission raced the accept).  Re-ack — the first ack may
  // have been lost — but don't park twice.
  if (parked_.contains(f.req) || done_set_.contains(f.req)) {
    ack_req_frag(from, f);
    return;
  }

  // Reassemble (single-frag fast path skips the buffer).  Mid-reassembly
  // fragments carry no verdict and are safe to ack immediately; the
  // COMPLETING fragment is only acked once the request is accepted for
  // parking.  If it were acked before a NACK and the NACK frame then
  // lost, the requester's transport tracker would retire with nothing
  // left to retransmit — a lost NACK must leave an unacked fragment
  // behind so retransmission re-elicits the verdict.
  if (f.frag_count > 1) {
    Reassembly& r = req_reassembly_[f.req];
    if (r.data.empty()) r.data.resize(f.send_total);
    if (r.have.empty()) r.have.resize(f.frag_count, false);
    if (f.frag_index >= r.have.size()) return;
    if (r.have[f.frag_index]) {
      ack_req_frag(from, f);
      return;
    }
    r.have[f.frag_index] = true;
    const std::size_t lo = static_cast<std::size_t>(f.frag_index) *
                           network_->costs().mtu_bytes;
    std::copy(f.data.begin(), f.data.end(),
              r.data.begin() + static_cast<std::ptrdiff_t>(lo));
    if (++r.seen < f.frag_count) {
      ack_req_frag(from, f);
      return;
    }
  }

  // The request is whole: evaluate it.  On a NACK, un-see the completing
  // fragment (keeping the rest of the buffer) so a retransmission of
  // just that fragment re-runs this verdict.
  const auto nack = [&](NackReason reason) {
    if (f.frag_count > 1) {
      auto it = req_reassembly_.find(f.req);
      if (it != req_reassembly_.end()) {
        it->second.have[f.frag_index] = false;
        --it->second.seen;
      }
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

  ack_req_frag(from, f);
  Payload data;
  if (f.frag_count > 1) {
    data = std::move(req_reassembly_[f.req].data);
    req_reassembly_.erase(f.req);
  } else {
    data = f.data;
  }
  park_and_interrupt(ParkedRequest{f.req, f.from, from, f.target, f.name,
                                   f.oob, std::move(data), f.send_total,
                                   f.recv_limit, f.trace});
}

void Kernel::handle(const ReqNack& f, net::NodeId /*from*/) {
  auto it = outstanding_.find(f.req);
  if (it == outstanding_.end()) return;
  Outstanding& out = it->second;
  switch (f.reason) {
    case NackReason::kDead: {
      CrashInterrupt intr{out.id, out.target};
      const Pid from_pid = out.from;
      pair_count(out.from, out.target)--;
      outstanding_.erase(it);
      drop_transport(f.req);
      raise(from_pid, intr);
      return;
    }
    case NackReason::kClosed:
    case NackReason::kNoName: {
      if (++out.attempts >= network_->costs().max_request_attempts) {
        RejectInterrupt intr{out.id, out.target, out.name};
        const Pid from_pid = out.from;
        pair_count(out.from, out.target)--;
        outstanding_.erase(it);
        drop_transport(f.req);
        raise(from_pid, intr);
        return;
      }
      schedule_retry(f.req);
      return;
    }
  }
}

void Kernel::handle(const AcceptFrag& f, net::NodeId from) {
  if (f.has_ack) apply_cumulative_ack(from, f.ack_seq);
  // Ack even when the request is already resolved here: the accepter
  // may be retransmitting because *its* acks were lost.  AcceptFrags
  // carry no verdict, so the tseq is recorded at receipt; duplicates are
  // screened by the watermark and re-acked immediately.
  if (f.tseq > 0) {
    advance_base(from, f.tseq_base, f.trace);
    if (transport_dup(from, f.tseq)) {
      reack_now(from, f.trace);
      return;
    }
    record_tseq(from, f.tseq);
    owe_transport_ack(from, f.trace);
  }
  auto it = outstanding_.find(f.req);
  if (it == outstanding_.end()) return;

  Payload data;
  if (f.frag_count > 1) {
    Reassembly& r = accept_reassembly_[f.req];
    if (r.data.empty()) r.data.resize(f.reply_total);
    if (r.have.empty()) r.have.resize(f.frag_count, false);
    if (f.frag_index >= r.have.size() || r.have[f.frag_index]) return;
    r.have[f.frag_index] = true;
    const std::size_t lo = static_cast<std::size_t>(f.frag_index) *
                           network_->costs().mtu_bytes;
    std::copy(f.data.begin(), f.data.end(),
              r.data.begin() + static_cast<std::ptrdiff_t>(lo));
    if (++r.seen < f.frag_count) return;
    data = std::move(r.data);
    accept_reassembly_.erase(f.req);
  } else {
    data = f.data;
  }

  Outstanding& out = it->second;
  if (data.size() > out.recv_limit) data.resize(out.recv_limit);
  CompletionInterrupt intr{f.req, f.oob, std::move(data), f.delivered,
                           f.trace};
  const Pid from_pid = out.from;
  pair_count(out.from, out.target)--;
  outstanding_.erase(it);
  drop_transport(f.req);
  raise(from_pid, intr);
}

void Kernel::handle(const CrashNote& f, net::NodeId /*from*/) {
  auto it = outstanding_.find(f.req);
  if (it == outstanding_.end()) return;
  CrashInterrupt intr{f.req, f.target};
  const Pid from_pid = it->second.from;
  pair_count(it->second.from, it->second.target)--;
  outstanding_.erase(it);
  drop_transport(f.req);
  raise(from_pid, intr);
}

void Kernel::announce_reboot() {
  ++frames_out_;
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
    Outstanding& out = outstanding_.at(id);
    CrashInterrupt intr{out.id, out.target};
    const Pid from_pid = out.from;
    pair_count(out.from, out.target)--;
    outstanding_.erase(id);
    drop_transport(id);
    raise(from_pid, intr);
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

bool Kernel::interrupt_pending(Pid caller) {
  auto it = interrupts_.find(caller);
  return it != interrupts_.end() && !it->second->empty();
}

void Kernel::close_handler(Pid caller) { handler_open_[caller] = false; }
void Kernel::open_handler(Pid caller) { handler_open_[caller] = true; }

bool Kernel::handler_open(Pid caller) const {
  auto it = handler_open_.find(caller);
  return it != handler_open_.end() && it->second;
}

}  // namespace soda
