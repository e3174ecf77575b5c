// The Chrysalis backend (paper §5.2).
//
// Every process allocates ONE dual queue and ONE event block through
// which it hears about messages sent and received.  A link is a memory
// object mapped by the two connected processes, holding buffer space for
// a single request and a single reply in each direction, a set of flag
// bits, and the dual-queue names of both side owners.
//
// The hint discipline is the paper's: notices on dual queues are HINTS
// (cheap, possibly stale, possibly dropped on the floor); the flag bits
// in the link object are ABSOLUTE.  Whenever a process dequeues a notice
// it checks that it still owns the mentioned end and that the flag is
// really set; stale notices are discarded.  Every flag change is
// eventually covered by a notice, but not every notice reflects a flag.
//
// Moving a link: pass the (address-space-independent) object name in a
// message; the receiver maps the object, writes its own dual-queue name
// — NON-atomically, safe because it completes the write before
// inspecting flags — and self-notices any flags already set.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "lynx/backend.hpp"
#include "lynx/runtime.hpp"

namespace lynx {

struct ChrysalisBackendParams {
  std::size_t max_message_bytes = 2048;  // per-direction buffer size
  std::size_t dual_queue_capacity = 64;
  // Notice formation (src/form/, DESIGN.md §14) — the shared-memory
  // analogue of RPC formation: notices bound for the same dual queue
  // (another process's or our own) within form_delay of each other ride
  // one kernel enqueue dispatch (up to 64 per batch).  0 = one enqueue
  // per notice (the default).
  sim::Duration form_delay = sim::Duration(0);
  // Consumed-notice coalescing (the ack piggyback, DESIGN.md §12):
  // after consuming a request we owe the sender a CONSUMED notice — but
  // if our reply goes out within this delay, the reply's FILLED notice
  // proves consumption (RPC ordering) and the standalone notice is
  // skipped; the requester infers delivery from the reply itself.
  // 0 = post immediately.
  sim::Duration consumed_coalesce_delay = sim::msec(2);
};

class ChrysalisBackend final : public Backend {
 public:
  ChrysalisBackend(chrysalis::Kernel& kernel, net::NodeId node,
                   ChrysalisBackendParams params = {});
  ~ChrysalisBackend() override;

  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{
        .moves_multiple_links_in_one_message = true,
        .all_received_messages_wanted = true,
        .recovers_enclosures_on_abort = true,
        .detects_all_exceptions = true,
    };
  }

  void start(Sink sink) override;
  [[nodiscard]] std::size_t header_bytes(
      std::size_t enclosures) const override {
    // [frame len][body len][count][per end: object + side][trace]
    return 4 + 4 + 1 + 9 * enclosures + 8;
  }
  [[nodiscard]] std::size_t max_packet_bytes() const override {
    return 4 + params_.max_message_bytes;  // a slot: length word + buffer
  }
  void shutdown() override;
  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> make_link() override;
  void begin_send(BLink link, WireMessage msg, std::uint64_t id) override;
  void cancel_send(std::uint64_t id) override;
  void set_interest(BLink link, bool want_requests,
                    bool want_replies) override;
  void retract_reply_interest(BLink link) override;
  [[nodiscard]] sim::Task<void> destroy(BLink link) override;
  [[nodiscard]] std::uint32_t trace_node() const override {
    return node_.value();
  }

  [[nodiscard]] chrysalis::Pid pid() const { return pid_; }

  // Bootstrap: wire two started-or-starting processes together with a
  // fresh link (the loader's job).  Run on the engine before traffic.
  [[nodiscard]] static sim::Task<std::pair<LinkHandle, LinkHandle>> connect(
      Process& a, Process& b);

 private:
  // A send in flight, under the id the runtime named it by.  A settled
  // send is gone from sends_, so every step that suspends re-finds its
  // send here by id instead of holding a reference across the await.
  struct OutSend {
    std::uint64_t id = 0;
    BLink link;
    MsgKind kind = MsgKind::kRequest;
    std::vector<BLink> enclosures;  // backend tokens riding this send
    bool cancel_requested = false;
  };
  struct LinkRec {
    BLink token;
    chrysalis::MemId obj;
    std::uint8_t side = 0;  // 0 = A, 1 = B
    bool want_requests = false;
    bool want_replies = false;
    bool destroyed = false;
    // Sends parked on the consumed notice, by id (0 = none).
    std::uint64_t out_req = 0;
    std::uint64_t out_rep = 0;
    // A CONSUMED notice we owe the peer for their request, deferred by
    // consumed_coalesce_delay in the hope our reply makes it redundant.
    bool consumed_owed = false;
    int consumed_slot = -1;
    std::uint64_t consumed_trace = 0;
    sim::TimerHandle consumed_timer;
  };

  // object layout helpers
  [[nodiscard]] std::size_t slot_offset(int slot) const;
  [[nodiscard]] std::size_t object_size() const;

  [[nodiscard]] sim::Task<> pump();
  [[nodiscard]] sim::Task<> maybe_consume(chrysalis::MemId obj, int slot);
  [[nodiscard]] sim::Task<> consume_incoming(chrysalis::MemId obj, int slot);
  void handle_consumed(chrysalis::MemId obj, int slot);
  [[nodiscard]] sim::Task<> post_deferred_consumed(BLink token);
  [[nodiscard]] sim::Task<> handle_destroyed_notice(chrysalis::MemId obj);
  [[nodiscard]] sim::Task<> perform_send(BLink link, WireMessage msg,
                                         std::uint64_t send_id);
  [[nodiscard]] sim::Task<> perform_cancel(std::uint64_t send_id);
  // Null once the send is settled.
  [[nodiscard]] OutSend* find_send(std::uint64_t send_id);
  // Settles the send, if it is still in flight, and forgets it.
  void settle_send(std::uint64_t send_id, SendOutcome out);
  // Settles the sends parked on the link's consumed notices as
  // link-destroyed.
  void fail_parked_sends(LinkRec& rec);
  [[nodiscard]] sim::Task<> perform_destroy_bits(chrysalis::MemId obj,
                                                 std::uint8_t side);
  [[nodiscard]] sim::Task<> perform_shutdown();
  [[nodiscard]] sim::Task<> recheck_link(chrysalis::MemId obj);
  [[nodiscard]] sim::Task<> unmap_object(chrysalis::MemId obj);
  [[nodiscard]] sim::Task<> enqueue_self(std::uint32_t datum);
  // Notice formation: every hint leaves through here.  With form_delay
  // == 0 each notice goes straight to Kernel::enqueue; otherwise
  // notices are held per destination queue for up to form_delay and
  // delivered together by one Kernel::enqueue dispatch.  The
  // shutdown poison bypasses this path so teardown never waits on a
  // deadline timer.
  [[nodiscard]] sim::Task<> post_notice(chrysalis::DqId dq,
                                        std::uint32_t datum);
  [[nodiscard]] sim::Task<> flush_notices(chrysalis::DqId dq);
  // Posts `code` about `obj` to the process holding the other side: its
  // dual-queue name is read from the object header, so it is a hint.
  [[nodiscard]] sim::Task<> notify_peer(chrysalis::MemId obj,
                                        std::uint8_t my_side,
                                        std::uint32_t code);
  [[nodiscard]] sim::Task<> set_unwanted_bit(chrysalis::MemId obj,
                                             std::uint8_t side);
  [[nodiscard]] LinkRec* side_rec(chrysalis::MemId obj, std::uint8_t side);
  [[nodiscard]] LinkRec* find(BLink link);
  // The one place a link record is built and indexed: a fresh link, a
  // moved-in enclosure, or a bootstrap connection.
  [[nodiscard]] BLink adopt_end(chrysalis::MemId obj, std::uint8_t side);
  void unindex_link(const LinkRec& rec);

  chrysalis::Kernel* kernel_;
  net::NodeId node_;
  ChrysalisBackendParams params_;
  chrysalis::Pid pid_;
  Sink sink_;
  bool running_ = false;

  std::unique_ptr<sim::Gate> ready_;
  chrysalis::DqId my_dq_;
  chrysalis::EventId my_event_;
  bool comm_ready_ = false;

  common::IdMap<BLink, LinkRec> links_;
  common::IdMap<chrysalis::MemId, std::array<BLink, 2>> by_obj_;
  common::IdAllocator<BLink> blink_ids_;
  // A handful in flight at a time (at most two per link): a flat vector
  // scanned by id, which allocates nothing once warm.
  std::vector<OutSend> sends_;
  struct NoticeQueue {
    std::vector<std::uint32_t> pending;
    sim::TimerHandle deadline;
  };
  common::IdMap<chrysalis::DqId, NoticeQueue> notice_queues_;
};

}  // namespace lynx
