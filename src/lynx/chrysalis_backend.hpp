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
  // one kernel enqueue_many dispatch (up to form_max_notices per
  // batch).  0 = one enqueue per notice (the default).
  sim::Duration form_delay = sim::Duration(0);
  std::size_t form_max_notices = 16;
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

  [[nodiscard]] std::string kernel_name() const override {
    return "chrysalis";
  }
  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{
        .moves_multiple_links_in_one_message = true,
        .all_received_messages_wanted = true,
        .recovers_enclosures_on_abort = true,
        .detects_all_exceptions = true,
    };
  }

  void start(Sink sink) override;
  void shutdown() override;
  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> make_link() override;
  [[nodiscard]] std::unique_ptr<PendingSend> begin_send(
      BLink link, WireMessage msg) override;
  void set_interest(BLink link, bool want_requests,
                    bool want_replies) override;
  void retract_reply_interest(BLink link) override;
  [[nodiscard]] sim::Task<void> destroy(BLink link) override;
  [[nodiscard]] std::uint64_t protocol_messages() const override {
    return notices_;
  }
  [[nodiscard]] std::uint32_t trace_node() const override {
    return node_.value();
  }

  [[nodiscard]] chrysalis::Pid pid() const { return pid_; }

  // Bootstrap: wire two started-or-starting processes together with a
  // fresh link (the loader's job).  Run on the engine before traffic.
  [[nodiscard]] static sim::Task<std::pair<LinkHandle, LinkHandle>> connect(
      Process& a, Process& b);

 private:
  friend class ChrysalisPendingSend;

  struct PendingOut {
    class ChrysalisPendingSend* ps = nullptr;
  };
  struct LinkRec {
    BLink token;
    chrysalis::MemId obj;
    std::uint8_t side = 0;  // 0 = A, 1 = B
    bool want_requests = false;
    bool want_replies = false;
    bool destroyed = false;
    PendingOut out_req;
    PendingOut out_rep;
    // A CONSUMED notice we owe the peer for their request, deferred by
    // consumed_coalesce_delay in the hope our reply makes it redundant.
    bool consumed_owed = false;
    int consumed_slot = -1;
    std::uint64_t consumed_trace = 0;
    sim::TimerHandle consumed_timer;
  };

  [[nodiscard]] static LinkRec make_rec(BLink token, chrysalis::MemId obj,
                                        std::uint8_t side) {
    LinkRec rec;
    rec.token = token;
    rec.obj = obj;
    rec.side = side;
    return rec;
  }

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
                                         class ChrysalisPendingSend* ps);
  void request_cancel(BLink link, class ChrysalisPendingSend* ps);
  [[nodiscard]] sim::Task<> perform_cancel(BLink link,
                                           class ChrysalisPendingSend* ps);
  [[nodiscard]] sim::Task<> perform_destroy_bits(chrysalis::MemId obj,
                                                 std::uint8_t side);
  [[nodiscard]] sim::Task<> perform_shutdown();
  [[nodiscard]] sim::Task<> recheck_link(chrysalis::MemId obj);
  [[nodiscard]] sim::Task<> unmap_object(chrysalis::MemId obj);
  [[nodiscard]] sim::Task<> enqueue_self(std::uint32_t datum);
  // Notice formation: every hint leaves through here.  With form_delay
  // == 0 each notice goes straight to Kernel::enqueue; otherwise
  // notices are held per destination queue for up to form_delay and
  // delivered together by one Kernel::enqueue_many dispatch.  The
  // shutdown poison bypasses this path so teardown never waits on a
  // deadline timer.
  [[nodiscard]] sim::Task<> post_notice(chrysalis::DqId dq,
                                        std::uint32_t datum);
  [[nodiscard]] sim::Task<> flush_notices(chrysalis::DqId dq);
  [[nodiscard]] sim::Task<> set_unwanted_bit(chrysalis::MemId obj,
                                             std::uint8_t side);
  [[nodiscard]] LinkRec* side_rec(chrysalis::MemId obj, std::uint8_t side);
  [[nodiscard]] LinkRec* find(BLink link);
  void index_link(const LinkRec& rec);
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
  std::uint64_t notices_ = 0;  // logical notices, batched or not
  std::uint64_t notices_taken_ = 0;
  struct NoticeQueue {
    std::vector<std::uint32_t> pending;
    sim::TimerHandle deadline;
  };
  common::IdMap<chrysalis::DqId, NoticeQueue> notice_queues_;
};

[[nodiscard]] std::unique_ptr<ChrysalisBackend> make_chrysalis_backend(
    chrysalis::Kernel& kernel, net::NodeId node,
    ChrysalisBackendParams params = {});

}  // namespace lynx
