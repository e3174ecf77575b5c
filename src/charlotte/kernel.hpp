// The simulated Charlotte kernel (paper §3.1).
//
// One Kernel instance per Crystal node, all attached to a shared token
// ring.  User code (simulated processes) makes kernel calls as
// awaitable coroutines; every call charges the cost model, and all
// inter-node work travels as wire::KernelFrame traffic on the ring.
//
// Semantics reproduced from the paper:
//   * duplex links, one process per end;
//   * MakeLink / Destroy / Send / Receive / Cancel / Wait;
//   * at most one outstanding activity per direction per end;
//   * at most one enclosure per Send;
//   * completions reported only through Wait;
//   * Cancel of a Receive fails once a message has arrived;
//   * Cancel of a Send races the delivery and may lose;
//   * destroying a link (or a process) fails the other side's
//     activities with a distinguishable status;
//   * link location is *absolute*: every move runs a three-party
//     agreement through the link's home kernel (see wire.hpp).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "charlotte/types.hpp"
#include "charlotte/wire.hpp"
#include "common/id_map.hpp"
#include "common/result.hpp"
#include "common/rtt_estimator.hpp"
#include "form/packer.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace charlotte {

class Cluster;

// Per-node kernel.
class Kernel {
 public:
  Kernel(Cluster& cluster, net::NodeId node);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] net::NodeId node() const { return node_; }

  // ---- kernel calls (invoked by local processes) ---------------------
  // Bounded-time calls still charge simulated CPU, hence Task-returning.
  [[nodiscard]] sim::Task<common::Result<LinkPair, Status>> make_link(
      Pid caller);
  // `trace` is the causal identity of the RPC this payload serves; the
  // kernel stamps it into the Msg (and its acks and retransmits) so the
  // trace stream can follow it across the ring.
  [[nodiscard]] sim::Task<Status> send(Pid caller, EndId end, Payload data,
                                       EndId enclosure = EndId::invalid(),
                                       std::uint64_t trace = 0);
  [[nodiscard]] sim::Task<Status> receive(Pid caller, EndId end,
                                          std::size_t max_len);
  [[nodiscard]] sim::Task<Status> cancel(Pid caller, EndId end,
                                         Direction direction);
  [[nodiscard]] sim::Task<Status> destroy(Pid caller, EndId end);
  // Blocks until an activity of `caller` completes.
  [[nodiscard]] sim::Task<Completion> wait(Pid caller);

  // Non-blocking poll used by tests.
  [[nodiscard]] bool completion_ready(Pid caller);

  // ---- failure notices -------------------------------------------------
  // The kernel has learned (from the fault layer, or from exhausted
  // retransmission) that `peer` is unreachable.  Every link with an end
  // on `peer` fails absolutely: local activities complete with
  // kLinkFailed and the end is dead, exactly as the paper requires of
  // Charlotte's full link-state knowledge.
  void notify_peer_lost(net::NodeId peer);

  // ---- process lifecycle ---------------------------------------------
  void register_process(Pid pid);
  // Destroys all links attached to the process (normal exit and crash
  // look identical to peers, per the paper's requirement).
  void terminate_process(Pid pid);
  [[nodiscard]] bool process_alive(Pid pid) const {
    return processes_.contains(pid);
  }

 private:
  friend class Cluster;

  struct SendActivity {
    // Retained whole for NACK- and timeout-driven resends, which share
    // its payload rather than copy it.
    wire::Msg msg;
    EndId enclosure = EndId::invalid();
    bool cancel_requested = false;
    int attempts = 1;
    sim::TimerHandle retry;  // armed only when send_retransmit_timeout > 0
    sim::Time first_sent_at = 0;  // first transmission (Karn: RTT samples
                                  // are taken only from unretransmitted
                                  // exchanges)
    sim::Duration cur_rto = 0;    // current timeout; doubles per attempt
    sim::Time planned_tx_at = 0;  // when the posted-but-unsent frame will
                                  // reach the wire; lets the ack path see
                                  // whether coalescing can ever pay off
  };
  struct RecvActivity {
    std::size_t max_len = 0;
  };
  struct PendingMsg {
    wire::Msg msg;
    net::NodeId from_node;
  };
  // An acknowledgement owed for a completed delivery, withheld for
  // ack_coalesce_delay in the hope of piggybacking on reverse traffic.
  struct OwedAck {
    std::uint64_t seq = 0;
    std::size_t len = 0;
    EndId peer;        // the sending end (MsgAck.to_end)
    net::NodeId to;    // the kernel that sent the Msg
    std::uint64_t trace = 0;
  };
  struct EndState {
    EndId id;
    LinkId link;
    EndId peer;
    Pid owner;
    net::NodeId peer_node;  // kept authoritative by the home protocol
    net::NodeId home;
    bool destroyed = false;
    bool in_transit = false;  // enclosed in an unacked outgoing Msg
    std::optional<SendActivity> send;
    std::optional<RecvActivity> recv;
    // A deque, not a sim::Fifo: duplicate screening iterates it and a
    // cancel erases from mid-queue (deduplicate, handle(CancelReq)).
    std::deque<PendingMsg> pending;
    int unwaited_recv_completions = 0;
    // ---- ack protocol (DESIGN.md §12) ----
    // Send sequence numbers are allocated per END (not per kernel) and
    // travel with the end when it moves, so the stream of seqs arriving
    // at the peer is strictly increasing for the lifetime of the link.
    std::uint64_t next_send_seq = 1;
    // Cumulative-ack watermark: the highest seq delivered on this end,
    // and the length accepted for it.  Dedup is a single compare — any
    // windowed structure (the old 16-entry deque) can be evaded by a
    // sufficiently delayed duplicate; the watermark cannot.  Stop-and-
    // wait per direction means no out-of-order gap can exist, so the
    // out-of-order bitmap that would normally ride alongside the
    // watermark degenerates to "always empty" and is not stored.
    std::uint64_t recv_watermark = 0;
    std::size_t last_delivered_len = 0;
    std::optional<OwedAck> owed_ack;
    sim::TimerHandle ack_timer;  // standalone-ack fallback (coalescing)
    // Jacobson/Karels RTT estimate for the path to peer_node (shared
    // estimator, common/rtt_estimator.hpp).
    common::RttEstimator rtt;
  };
  struct HomeEndInfo {
    EndId end;
    net::NodeId node;
    Pid owner;
  };
  struct HomeRecord {
    LinkId link;
    HomeEndInfo a;
    HomeEndInfo b;
    bool destroyed = false;
  };

  // frame handling
  [[nodiscard]] sim::Duration copy_cost(const net::Frame& frame) const;
  // Hands a received frame to its handle() overload, moving it out.
  void dispatch(wire::KernelFrame& frame, net::NodeId src);
  void handle(wire::Msg m, net::NodeId from);
  void handle(const wire::MsgAck& m, net::NodeId from);
  void handle(const wire::MsgNackMoved& m, net::NodeId from);
  void handle(const wire::MsgNackDestroyed& m, net::NodeId from);
  void handle(const wire::CancelReq& m, net::NodeId from);
  void handle(const wire::CancelReply& m, net::NodeId from);
  void handle(const wire::MoveUpdate& m, net::NodeId from);
  void handle(const wire::PeerMoved& m, net::NodeId from);
  void handle(const wire::MoveAck& m, net::NodeId from);
  void handle(const wire::DestroyUpdate& m, net::NodeId from);
  void handle(const wire::LinkDown& m, net::NodeId from);

  // `trace` stamps the outgoing net::Frame (and the frame.tx record);
  // pass the Msg/MsgAck trace where one exists, 0 for protocol frames.
  void transmit(net::NodeId dst, wire::KernelFrame frame,
                std::uint64_t trace = 0);
  void deliver_pending(EndState& end);
  void complete(Pid pid, Completion c);
  // Link death at this end: the end is dead for good, its activities
  // complete with `status`, and messages parked on it bounce.
  void kill_end(EndState& end, Status status);
  void begin_destroy(EndState& end);
  void arm_send_timer(EndState& end);
  void on_send_timeout(EndId end_id, std::uint64_t seq);
  // Resends `end`'s outstanding Msg and re-arms its timer; `record` names
  // the trace instant, whose `b` is the caller's.
  void retransmit(EndState& end, const char* record, std::uint64_t b);
  // Ends `end`'s send activity (and its retry timer) and reports it to
  // the owner.  A send that did not deliver gives its enclosure back.
  // Returns the enclosure, if the send carried one.
  EndId settle_send(EndState& end, Status status, std::size_t length = 0);
  // NACKs `m` back to the kernel that sent it: moved (to `new_node`) when
  // known, else destroyed.  bounce_pending does so for every message
  // parked on `end`.
  void bounce(const wire::Msg& m, net::NodeId sender,
              std::optional<net::NodeId> new_node);
  void bounce_pending(EndState& end, std::optional<net::NodeId> new_node);
  // True if `seq` was already delivered on `end` (re-acks if so).
  bool deduplicate(EndState& end, const wire::Msg& m, net::NodeId from);
  // ---- ack protocol helpers ----
  // Settle `end`'s outstanding send if it matches `seq` (shared by
  // standalone MsgAck frames and piggybacked acks on data frames).
  void apply_ack(EndId to_end, std::uint64_t seq, std::size_t len,
                 net::NodeId from);
  // Record an owed ack and start (or restart) the coalescing timer.
  void owe_ack(EndId end_id, OwedAck owed);
  // Transmit the owed standalone MsgAck now, if one is pending.
  void flush_owed_ack(EndState& end);
  void transmit_ack(const OwedAck& owed);
  // Attach the owed ack to an outgoing Msg bound for `dst`, if it is
  // owed to that kernel.
  void attach_piggyback(EndState& end, wire::Msg& m, net::NodeId dst);
  // Initial retransmission timeout for a fresh send on `end`.
  [[nodiscard]] sim::Duration initial_rto(const EndState& end) const;
  [[nodiscard]] EndState* find_end(EndId id);
  // The end whose outstanding send is still `seq` (a dead end has none).
  [[nodiscard]] EndState* find_send(EndId id, std::uint64_t seq);
  // The end that still owes the ack for `seq`.
  [[nodiscard]] EndState* find_owing(EndId id, std::uint64_t seq);
  [[nodiscard]] Status validate_owned(Pid caller, EndId id, EndState** out);
  // validate_owned, and the end is alive and not enclosed in a send.
  [[nodiscard]] Status validate_usable(Pid caller, EndId id, EndState** out);
  // Where `id` went when it moved away from this kernel (its tombstone).
  [[nodiscard]] std::optional<net::NodeId> moved_to(EndId id) const;

  Cluster* cluster_;
  net::NodeId node_;
  sim::Counts& counts_;
  form::Packer packer_;  // sits between transmit() and the medium
  common::IdMap<EndId, EndState> ends_;
  common::IdMap<LinkId, HomeRecord> homes_;
  common::IdMap<EndId, net::NodeId> forwarded_;  // tombstones
  common::IdSet<Pid> processes_;
  common::IdMap<Pid, std::unique_ptr<sim::Mailbox<Completion>>> completions_;
  // Mailboxes of terminated processes, kept until the kernel dies.
  std::vector<std::unique_ptr<sim::Mailbox<Completion>>> retired_completions_;
  std::uint64_t next_move_seq_ = 1;
};

// A Crystal: N nodes running Charlotte on a token ring.
class Cluster {
 public:
  // Runs the cluster over a caller-owned medium (a net::TokenRing, or a
  // fault::FaultyMedium wrapping one).  The medium must outlive the
  // cluster.
  Cluster(sim::Engine& engine, std::size_t nodes, net::Medium& medium,
          Costs costs = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const Costs& costs() const { return costs_; }
  [[nodiscard]] net::Medium& medium() { return *medium_; }
  [[nodiscard]] std::size_t node_count() const { return kernels_.size(); }

  // ---- failure notices (driven by the fault layer) --------------------
  // Both ends of the a<->b path learn the other side is unreachable.
  void sever(net::NodeId a, net::NodeId b);
  // Every other kernel learns `down` is unreachable (node crash).
  void notify_node_down(net::NodeId down);

  [[nodiscard]] Kernel& kernel(net::NodeId node);
  [[nodiscard]] Pid create_process(net::NodeId node);
  [[nodiscard]] Kernel& kernel_of(Pid pid);
  [[nodiscard]] net::NodeId node_of(Pid pid) const;
  void terminate(Pid pid);  // normal exit or injected crash

  // Loader fiat: creates a link with end1 owned by `a` and end2 owned by
  // `b`, as the Crystal loader did when wiring freshly loaded processes
  // to each other and to long-lived servers.  No protocol traffic and no
  // cost; use before (or outside) timed regions.  MakeLink installs its
  // links here too, after charging the call.
  [[nodiscard]] LinkPair bootstrap_link(Pid a, Pid b);

 private:
  friend class Kernel;
  [[nodiscard]] EndId new_end() { return end_ids_.next(); }
  [[nodiscard]] LinkId new_link_id() { return link_ids_.next(); }

  sim::Engine* engine_;
  Costs costs_;
  net::Medium* medium_;  // the wire all kernels use
  std::vector<std::unique_ptr<Kernel>> kernels_;
  common::IdMap<Pid, net::NodeId> process_node_;
  common::IdAllocator<EndId> end_ids_;
  common::IdAllocator<LinkId> link_ids_;
  common::IdAllocator<Pid> pids_;
};

}  // namespace charlotte
