// The simulated SODA kernel (paper §4.1).
//
// One Kernel per node (client processor + kernel processor pair), all on
// a 1 Mbit/s CSMA bus.  Processes advertise names, make requests
// against (pid, name) pairs, feel software interrupts, and accept past
// requests; `discover` finds advertisers by unreliable broadcast.
//
// Two modelling choices, documented against the paper:
//  * Request *data* ships with the request descriptor and parks at the
//    target kernel, so "accepting a request does not even block the
//    accepter" (§4.2) holds literally: accept hands back the parked
//    bytes at local-memory speed and queues the reply leg.  Total wire
//    cost per completed operation is identical to transfer-at-accept.
//  * Requests that find the target's handler closed (or the name not
//    yet advertised) are NACKed and retried by the requesting kernel —
//    "Requests are delayed; the requesting kernel retries periodically
//    in an attempt to get through (the requesting user can proceed)."
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/id_map.hpp"
#include "common/result.hpp"
#include "common/rtt_estimator.hpp"
#include "form/packer.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/sync.hpp"
#include "soda/types.hpp"

namespace soda {

class Network;

using Interrupt = std::variant<RequestInterrupt, CompletionInterrupt,
                               CrashInterrupt, RejectInterrupt>;

template <typename T>
using Result = common::Result<T, Status>;

class Kernel {
 public:
  Kernel(Network& network, net::NodeId node);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] net::NodeId node() const { return node_; }

  // ---- kernel calls -----------------------------------------------------
  [[nodiscard]] sim::Task<Name> generate_name(Pid caller);
  [[nodiscard]] sim::Task<Status> advertise(Pid caller, Name name);
  [[nodiscard]] sim::Task<Status> unadvertise(Pid caller, Name name);
  [[nodiscard]] sim::Task<std::optional<Pid>> discover(Pid caller, Name name);

  // Non-blocking: returns the request id; outcome arrives as a
  // CompletionInterrupt / CrashInterrupt / RejectInterrupt.  `trace` is
  // the causal identity of the RPC (rides every fragment, NACK retry,
  // and the completion) — 0 for untraced traffic.
  [[nodiscard]] sim::Task<Result<ReqId>> request(Pid caller, Pid target,
                                                 Name name, Oob oob,
                                                 Payload send_data,
                                                 std::size_t recv_limit,
                                                 std::uint64_t trace = 0);

  // Accept a previously-signalled request: returns the requester's
  // parked data (truncated to recv_limit) and queues the reply leg.
  [[nodiscard]] sim::Task<Result<Payload>> accept(Pid caller, ReqId request,
                                                  Oob oob, Payload reply_data,
                                                  std::size_t recv_limit);

  // ---- software interrupts ------------------------------------------------
  [[nodiscard]] sim::Task<Interrupt> next_interrupt(Pid caller);
  void close_handler(Pid caller);  // mask: requests get NACK-deferred
  void open_handler(Pid caller);

  // ---- lifecycle -----------------------------------------------------------
  void register_process(Pid pid);
  void terminate_process(Pid pid);
  // A node that comes back after a crash announces itself: one
  // broadcast "I rebooted" frame.  Peer kernels conclude that every
  // rendezvous they had parked or accepted at that node died with it
  // and raise CrashInterrupts for those requests.  This is SODA's lazy
  // counterpart to Charlotte's absolute node-down notice: nothing is
  // learned while the node is down (silence is handled by transport
  // exhaustion), only when it returns.
  void announce_reboot();

 private:
  friend class Network;

  struct ParkedRequest {  // at the target kernel, awaiting accept
    ReqId id;
    Pid from;
    net::NodeId from_node;
    Pid target;
    Name name;
    Oob oob{};
    Payload data;
    std::size_t send_total = 0;
    std::size_t recv_limit = 0;
    std::uint64_t trace = 0;
  };
  struct Reassembly {  // a multi-fragment payload, put back together
    Payload data;  // unshared until the last fragment lands
    // Which fragment indices arrived; lets duplicated fragments (ack
    // lost, retransmission raced the original) be counted once.
    std::vector<bool> have;
    std::uint32_t seen = 0;
    // Copies fragment `index` of `count` into place in a `total`-byte
    // payload cut every `mtu` bytes.  False for a fragment already seen.
    bool add(std::uint32_t index, std::uint32_t count, std::size_t total,
             std::size_t mtu, const Payload& frag);
    [[nodiscard]] bool whole() const { return seen == have.size(); }
  };
  // A sender's fragments until the receiver has acked them all: the
  // request's on the requester side, the accept's on the accepter side.
  struct Leg {
    net::NodeId dst;
    // Per-peer transport sequence number of each fragment, assigned
    // once and reused verbatim across retransmissions.
    std::vector<std::uint64_t> tseq;
    std::vector<bool> acked;
    int attempts = 1;
    sim::TimerHandle timer;
    sim::Time first_sent_at = 0;  // Karn: sample only unretransmitted
    sim::Duration cur_rto = 0;    // current timeout; doubles per attempt
  };
  struct Outstanding {  // at the requester kernel
    ReqId id;
    Pid from;
    Pid target;
    net::NodeId target_node;
    Name name;
    Oob oob{};
    Payload data;
    std::size_t recv_limit = 0;
    int attempts = 0;  // NACK-driven retries
    std::uint64_t trace = 0;
    std::optional<Leg> leg{};  // while request fragments await acks
    Reassembly reply{};        // the accept's fragments so far
  };
  struct PendingAccept {  // accepter side, until its fragments are acked
    ReqId req;
    Oob oob{};
    std::size_t delivered = 0;
    std::size_t reply_total = 0;
    Payload reply;
    std::uint64_t trace = 0;
    Leg leg{};
  };
  // Per-peer transport state.  One sequence-number stream covers
  // every fragment this kernel sends to `peer`, so a single cumulative
  // watermark acknowledges request and accept legs alike.
  struct PeerTx {  // sender side
    std::uint64_t next_tseq = 1;
    common::RttEstimator rtt;
    // The ReqIds whose legs to this peer are live, kept in ascending
    // order: requests in outstanding_ and accepts in pending_accepts_.  A cumulative ack from the peer scans only these,
    // so it touches no other peer's sends, and feeds the RTT estimator
    // newest ReqId first.
    std::vector<ReqId> sends;
    std::vector<ReqId> accepts;
  };
  struct PeerRx {  // receiver side
    std::uint64_t watermark = 0;      // all tseq <= watermark received
    std::set<std::uint64_t> ooo;      // received above the watermark
    bool ack_owed = false;
    std::uint64_t owed_trace = 0;
    sim::TimerHandle ack_timer;       // standalone-ack fallback
    // Folds the out-of-order tseqs the watermark has reached into it.
    void settle();
  };
  struct DiscoverWait {
    // Non-owning: the OneShot lives in the discover() coroutine frame,
    // which strictly outlives the map entry (discover erases it after
    // take() resumes).
    sim::OneShot<std::optional<Pid>>* slot = nullptr;
    bool settled = false;
  };

  // wire frames — public so tests and fault-injection tooling can
  // inspect frame bodies on the medium (the Charlotte wire:: idiom).
 public:
  // The transport descriptor both data fragments carry: the per-peer
  // transport sequence (0 = acks off) and an optional piggybacked
  // cumulative ack for the reverse direction.
  struct Transport {
    std::uint64_t tseq = 0;
    // Sender frontier: every tseq below this is acked or abandoned
    // (retransmission exhaustion at a crashed peer) — the receiver may
    // jump its watermark to tseq_base - 1 so abandoned holes cannot
    // stall the cumulative ack stream forever.
    std::uint64_t tseq_base = 0;
    bool has_ack = false;
    std::uint64_t ack_seq = 0;
  };
  struct ReqFrag {
    ReqId req;
    Pid from;
    Pid target;
    Name name;
    Oob oob{};
    std::size_t send_total = 0;
    std::size_t recv_limit = 0;
    std::uint32_t frag_index = 0;
    std::uint32_t frag_count = 1;
    Payload data;
    std::uint64_t trace = 0;
    Transport transport{};
  };
  enum class NackReason : std::uint8_t { kClosed, kNoName, kDead };
  struct ReqNack {
    ReqId req;
    NackReason reason;
  };
  struct AcceptFrag {
    ReqId req;
    Oob oob{};
    std::size_t delivered = 0;  // bytes of requester's data taken
    std::size_t reply_total = 0;
    std::uint32_t frag_index = 0;
    std::uint32_t frag_count = 1;
    Payload data;
    std::uint64_t trace = 0;
    Transport transport{};
  };
  struct CrashNote {
    ReqId req;
    Pid target;
  };
  struct DiscoverQuery {
    std::uint64_t qid;
    Name name;
    net::NodeId from_node;
  };
  struct DiscoverReply {
    std::uint64_t qid;
    Name name;
    Pid pid;
  };
  struct RebootNote {
    net::NodeId node;
  };
  // One cumulative standalone ack — "every fragment you sent me with
  // tseq <= watermark arrived" (only exchanged when ack_timeout > 0).
  struct TransportAck {
    std::uint64_t watermark = 0;
  };
  using WireFrame = std::variant<ReqFrag, ReqNack, AcceptFrag, CrashNote,
                                 DiscoverQuery, DiscoverReply, RebootNote,
                                 TransportAck>;
  // The type code a frame.tx trace record carries.  trace::Recorder
  // folds it into its digest, so each alternative's code is pinned
  // rather than taken from its variant index.
  [[nodiscard]] static std::uint64_t frame_code(const WireFrame& frame);

 private:
  [[nodiscard]] sim::Duration copy_cost(const net::Frame& frame) const;
  // Hands a received frame to its handle() overload, moving it out.
  void dispatch(net::Frame& frame);
  void handle(ReqFrag f, net::NodeId from);
  void handle(const ReqNack& f, net::NodeId from);
  void handle(AcceptFrag f, net::NodeId from);
  void handle(const CrashNote& f, net::NodeId from);
  void handle(const DiscoverQuery& f, net::NodeId from);
  void handle(const DiscoverReply& f, net::NodeId from);
  void handle(const RebootNote& f, net::NodeId from);
  void handle(const TransportAck& f, net::NodeId from);

  // `trace` stamps the outgoing net::Frame (and the frame.tx record);
  // pass the fragment's trace where one exists, 0 for protocol frames.
  void transmit(net::NodeId dst, WireFrame frame, std::size_t bytes,
                std::uint64_t trace = 0);
  // The transport descriptor of a data fragment; null for other frames.
  [[nodiscard]] static Transport* transport_of(WireFrame& frame);
  // `unacked_only` skips the fragments the leg has seen acked.
  void send_request_frags(const Outstanding& out, bool unacked_only = false);
  void send_accept_frags(const PendingAccept& pa, bool unacked_only = false);
  void schedule_retry(ReqId req);
  // The single exit of an outstanding request: releases its pair slot
  // and leg, forgets it, and raises `intr` (none when its process died).
  void resolve(std::unordered_map<ReqId, Outstanding>::iterator it,
               std::optional<Interrupt> intr);
  void note_done(ReqId req);       // remember accepted reqs for re-acking
  [[nodiscard]] bool acks_enabled() const;

  // ---- transport: sender side ----
  // A fresh leg of `frags` fragments to `dst`: assigns their tseqs and
  // the peer's current RTO.
  [[nodiscard]] Leg open_leg(net::NodeId dst, std::size_t frags);
  // A leg's timer fired with fragments unacked.  False once the attempt
  // budget is spent; otherwise counts the attempt and backs off the RTO.
  [[nodiscard]] bool retransmit_due(Leg& leg);
  void on_request_timeout(ReqId req);
  void on_accept_timeout(ReqId req);
  // Every leg leaves through these (cancelling its timer), so the
  // per-peer in-flight lists stay exact.
  void drop_leg(Outstanding& out);
  void erase_accept(std::unordered_map<ReqId, PendingAccept>::iterator it);
  // Lowest unacked live tseq bound for `dst` (next_tseq if none) —
  // stamped on every outgoing sequenced data fragment.
  [[nodiscard]] std::uint64_t tx_frontier(net::NodeId dst);
  // A cumulative watermark from `from` arrived (standalone or
  // piggybacked); retire acked fragments and feed the RTT estimator.
  void apply_cumulative_ack(net::NodeId from, std::uint64_t watermark);
  // Attach an owed ack to an outgoing data fragment bound for `dst`, if
  // one is pending there.
  void attach_frag_ack(net::NodeId dst, Transport& t);

  // ---- transport: receiver side ----
  // The prologue of both data fragments' handlers: applies a piggybacked
  // ack and the sender's frontier, then screens transport duplicates by
  // the per-peer watermark.  True for a duplicate, which is re-acked at
  // once and must be dropped.
  [[nodiscard]] bool screen(const Transport& t, net::NodeId from,
                            std::uint64_t trace);
  // Mark `tseq` received and owe `from` a cumulative ack (nothing for a
  // fragment sent with acks off, tseq 0).
  void ack_fragment(net::NodeId from, std::uint64_t tseq,
                    std::uint64_t trace);
  // The sender promised never to (re)transmit below `base`; jump the
  // watermark over abandoned holes (crash recovery).
  void advance_base(net::NodeId from, std::uint64_t base,
                    std::uint64_t trace);
  // Owe `to` a cumulative ack; flushed standalone after
  // ack_coalesce_delay unless a reverse-leg fragment picks it up first.
  void owe_transport_ack(net::NodeId to, std::uint64_t trace);
  void flush_transport_ack(net::NodeId to);
  // A duplicate means the peer is retransmitting — its ack was lost.
  // Re-ack the watermark immediately, never coalesced.
  void reack_now(net::NodeId to, std::uint64_t trace);

  void raise(Pid pid, Interrupt intr);
  void park_and_interrupt(ParkedRequest parked);
  // Outstanding requests between two processes, in either direction.
  [[nodiscard]] int& pair_count(Pid a, Pid b) {
    return a < b ? per_pair_[a][b] : per_pair_[b][a];
  }

  Network* network_;
  net::NodeId node_;
  sim::Counts& counts_;
  form::Packer packer_;
  common::IdSet<Pid> processes_;
  common::IdMap<Pid, std::unordered_set<Name>> advertised_;
  common::IdMap<Pid, bool> handler_open_;
  common::IdMap<Pid, std::unique_ptr<sim::Mailbox<Interrupt>>> interrupts_;
  std::unordered_map<ReqId, ParkedRequest> parked_;
  std::unordered_map<ReqId, Reassembly> req_reassembly_;
  std::unordered_map<ReqId, Outstanding> outstanding_;
  std::unordered_map<ReqId, PendingAccept> pending_accepts_;
  common::IdMap<net::NodeId, PeerTx> peer_tx_;
  common::IdMap<net::NodeId, PeerRx> peer_rx_;
  // Requests already accepted here; duplicated ReqFrags for them are
  // re-acked and dropped instead of being parked twice.
  sim::Fifo<ReqId> done_fifo_;
  std::unordered_set<ReqId> done_set_;
  common::IdMap<Pid, common::IdMap<Pid, int>> per_pair_;  // see pair_count
  common::IdMap<std::uint64_t, DiscoverWait> discovers_;
  std::uint64_t next_qid_ = 1;
};

// A SODA network: N single-process nodes on a CSMA bus.
class Network {
 public:
  // Runs the network over a caller-owned medium (a net::CsmaBus, or a
  // fault::FaultyMedium wrapping one).  The medium must outlive the
  // network.
  Network(sim::Engine& engine, std::size_t nodes, net::Medium& medium,
          Costs costs = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const Costs& costs() const { return costs_; }
  [[nodiscard]] net::Medium& medium() { return *medium_; }
  [[nodiscard]] std::size_t node_count() const { return kernels_.size(); }

  [[nodiscard]] Kernel& kernel(net::NodeId node);
  [[nodiscard]] Pid create_process(net::NodeId node);
  [[nodiscard]] Kernel& kernel_of(Pid pid);
  [[nodiscard]] net::NodeId node_of(Pid pid) const;
  [[nodiscard]] bool alive(Pid pid) const;
  [[nodiscard]] bool process_exists(Pid pid) const {
    return process_node_.contains(pid);
  }
  void terminate(Pid pid);

 private:
  friend class Kernel;
  [[nodiscard]] Name new_name() { return names_.next(); }
  [[nodiscard]] ReqId new_req() { return reqs_.next(); }

  sim::Engine* engine_;
  Costs costs_;
  net::Medium* medium_;  // the wire all kernels use
  std::vector<std::unique_ptr<Kernel>> kernels_;
  common::IdMap<Pid, net::NodeId> process_node_;
  common::IdSet<Pid> dead_;
  common::IdAllocator<Pid> pids_;
  common::IdAllocator<Name> names_;
  common::IdAllocator<ReqId> reqs_;
};

}  // namespace soda
