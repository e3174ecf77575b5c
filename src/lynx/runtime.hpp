// The LYNX run-time package (paper §2).
//
// A lynx::Process owns a set of cooperating threads (coroutines in
// mutual exclusion — automatic in the single-threaded simulation), a
// table of link ends, and a Backend.  It implements the communication
// semantics of §2.1:
//   * per-link-end request and reply queues;
//   * request queues opened/closed under explicit process control;
//   * reply queues open exactly while a thread awaits a reply;
//   * block points that wait for one of the open queues to fill, with
//     round-robin fairness ("no queue is ignored forever");
//   * messages in one queue received in order;
//   * each message blocks the sending coroutine (stop-and-wait; no
//     buffering of messages in transit required);
//   * link ends moved by enclosure, with the §2.1 restriction: an end
//     with unreceived outgoing messages or owed replies cannot move;
//   * kernel failures reflected as LynxError exceptions.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/id_map.hpp"
#include "lynx/backend.hpp"
#include "lynx/errors.hpp"
#include "lynx/message.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/sync.hpp"

namespace lynx {

class Process;
class ThreadCtx;

struct ThreadTag {
  static const char* prefix() { return "t"; }
};
using ThreadId = common::StrongId<ThreadTag, std::uint32_t>;

// A received request, to be answered with ThreadCtx::reply.
struct Incoming {
  LinkHandle link;
  Message msg;
  std::uint64_t token = 0;  // reply obligation
  // Causal identity of the RPC that carried this request (0 = untraced);
  // the reply inherits it so one TraceId follows the full round trip.
  std::uint64_t trace = 0;
};

// Run-time package overhead per operation: the "gather and scatter
// parameters, block and unblock coroutines, establish default exception
// handlers, enforce flow control, perform type checking, update tables"
// work of §3.3, charged in simulated time.
struct RuntimeCosts {
  sim::Duration per_operation = sim::usec(1000);  // VAX-class default
  sim::Duration per_byte = sim::nsec(750);
};

// Per-machine presets, calibrated against §3.3 / §4.3 / §5.3: the delta
// between LYNX and raw-kernel timings is run-time package overhead.
[[nodiscard]] inline RuntimeCosts vax_runtime_costs() {
  return RuntimeCosts{sim::usec(500), sim::nsec(750)};   // Charlotte
}
[[nodiscard]] inline RuntimeCosts pdp11_runtime_costs() {
  return RuntimeCosts{sim::usec(600), sim::nsec(400)};   // SODA
}
[[nodiscard]] inline RuntimeCosts mc68000_runtime_costs() {
  return RuntimeCosts{sim::usec(380), sim::nsec(120)};   // Chrysalis
}

// Both ends of a freshly made link (both owned by this process until
// one is enclosed in a message).
struct LocalLinkPair {
  LinkHandle end1;
  LinkHandle end2;
};

class Process {
 public:
  Process(sim::Engine& engine, std::string name,
          std::unique_ptr<Backend> backend, RuntimeCosts costs = {});
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Backend& backend() { return *backend_; }
  [[nodiscard]] const RuntimeCosts& costs() const { return costs_; }

  // Registers a thread; bodies start running once start() is called
  // (threads spawned later start immediately).  Bodies must be created
  // from coroutine *functions* taking ThreadCtx& (CP.51: no capturing
  // coroutine lambdas).
  using ThreadBody = std::function<sim::Task<>(ThreadCtx&)>;
  ThreadId spawn_thread(std::string thread_name, ThreadBody body);

  void start();

  // Aborts a thread at its current block point: it feels kAborted.  If
  // it is mid-send, the send is cancelled (Charlotte: kernel Cancel
  // racing delivery); if it awaits a reply, reply interest is retracted.
  void abort_thread(ThreadId tid);

  // Destroys all links and stops serving (normal exit or crash).
  void terminate();
  [[nodiscard]] bool terminated() const { return terminated_; }

  [[nodiscard]] const std::vector<std::string>& thread_failures() const {
    return thread_failures_;
  }

  // Adopts a backend link token created outside a thread (bootstrap:
  // the loader wiring two processes together; see each backend's
  // connect() helper).
  [[nodiscard]] LinkHandle adopt_link(BLink blink);

  // Declared operation names (optional): when non-empty, incoming
  // requests whose op is not declared are rejected and the caller feels
  // kOperationRejected.
  void declare_operation(std::string op) {
    declared_ops_.insert(std::move(op));
  }

 private:
  friend class ThreadCtx;

  struct Delivered {
    Message msg;
    std::size_t raw_size = 0;  // wire body bytes, for scatter costs
    std::uint64_t trace = 0;
  };
  struct CallRecord {
    // Owned by the call() frame; registered in the link while waiting.
    sim::OneShot<int>* wake = nullptr;
    std::optional<Delivered> reply;
    bool failed = false;
    ErrorKind error = ErrorKind::kLinkDestroyed;
  };
  struct LinkState {
    LinkHandle handle;
    BLink blink;
    bool open_requests = false;
    bool destroyed = false;
    sim::Fifo<Delivered> request_q;
    sim::Fifo<Delivered> reply_q;
    CallRecord* active_call = nullptr;  // at most one outstanding call
    std::unique_ptr<sim::WaitList> call_serializer;
    int owed_replies = 0;
    int sends_in_flight = 0;
    int stale_replies_expected = 0;  // replies to aborted callers
    bool call_claimed = false;       // a caller holds the link (pre-send)
  };
  struct ThreadState {
    ThreadId id;
    std::string name;
    std::unique_ptr<ThreadCtx> ctx;
    std::uint64_t current_send = 0;  // the send it awaits, 0 = none
    LinkHandle awaiting_reply_on;  // valid while blocked in call()
    bool abort_requested = false;
    // When non-zero, calls made by this thread join this causal chain
    // instead of starting a new one (set via ThreadCtx::set_trace_context).
    std::uint64_t trace_ctx = 0;
  };

  void on_backend_event(BackendEvent ev);
  [[nodiscard]] LinkState& require_link(LinkHandle h);
  [[nodiscard]] LinkState* find_link(LinkHandle h);
  void refresh_interest(LinkState& ls);
  [[nodiscard]] sim::Task<> run_thread_body(ThreadId tid, ThreadBody body);
  void launch(ThreadId tid, ThreadBody body);  // spawns a registered thread
  void drop_link(LinkHandle h);
  // Link death: the link is dead for good, and a call awaiting its reply
  // fails with kLinkDestroyed.
  void mark_dead(LinkState& ls);
  // Wakes a call blocked awaiting its reply with `error`.
  void fail_call(CallRecord& call, ErrorKind error);
  // Serializes `m`, leaving room for the backend's packet header.
  [[nodiscard]] Serialized marshal(const Message& m) const;
  // Gather or scatter cost of a `bytes`-long body (§3.3).
  [[nodiscard]] sim::Duration marshal_cost(std::size_t bytes) const;
  // Names a send and begins `msg` on `blink`; `done` receives its
  // outcome.
  std::uint64_t begin_send(BLink blink, WireMessage msg,
                           sim::OneShot<SendOutcome>& done);
  // The one send path of call() and reply(): start_send begins `msg` on
  // `ls` as `ts`'s current send (an abort cancels it) and counts it in
  // flight; once it settles, finish_send undoes both and returns the
  // link, if it still exists.
  void start_send(ThreadState& ts, LinkState& ls, WireMessage msg,
                  sim::OneShot<SendOutcome>& done);
  LinkState* finish_send(ThreadState& ts, LinkHandle link);
  // Refuses enclosures that may not move (§2.1); else their backend
  // tokens, in order.
  [[nodiscard]] std::vector<BLink> check_and_stage_enclosures(
      LinkHandle carrier, const std::vector<LinkHandle>& handles);

  sim::Engine* engine_;
  std::string name_;
  std::unique_ptr<Backend> backend_;
  RuntimeCosts costs_;
  bool started_ = false;
  bool terminated_ = false;

  common::IdMap<LinkHandle, LinkState> links_;
  common::IdMap<BLink, LinkHandle> by_blink_;
  common::IdAllocator<LinkHandle> link_ids_;
  common::IdMap<ThreadId, ThreadState> threads_;
  common::IdAllocator<ThreadId> thread_ids_;
  std::vector<std::pair<ThreadId, ThreadBody>> pending_threads_;
  std::size_t live_threads_ = 0;
  std::vector<std::string> thread_failures_;

  std::unique_ptr<sim::WaitList> receive_waiters_;
  std::vector<LinkHandle> fair_order_;  // round-robin cursor base
  std::size_t fair_cursor_ = 0;
  std::unordered_set<std::string> declared_ops_;
  std::uint64_t next_token_ = 1;
  std::uint64_t next_send_ = 1;
  common::IdMap<std::uint64_t, LinkHandle> owed_;
  sim::Counts& counts_;  // this process's node's
};

// Thread-facing operations; one ThreadCtx per thread, owned by the
// Process and guaranteed to outlive the thread body.
class ThreadCtx {
 public:
  ThreadCtx(Process& p, ThreadId id) : proc_(&p), id_(id) {}

  [[nodiscard]] Process& process() { return *proc_; }
  [[nodiscard]] sim::Engine& engine() { return proc_->engine(); }
  [[nodiscard]] ThreadId id() const { return id_; }

  // ---- communication statements --------------------------------------
  // connect: send a request and await the reply (a block point).
  [[nodiscard]] sim::Task<Message> call(LinkHandle link, Message request);
  // accept side: open/close the request queue of a link.
  void enable_requests(LinkHandle link);
  void disable_requests(LinkHandle link);
  // block point: receive the next request from any open queue (fair).
  [[nodiscard]] sim::Task<Incoming> receive();
  // answer a received request (blocks until delivered, like any send).
  [[nodiscard]] sim::Task<void> reply(const Incoming& incoming,
                                      Message reply_msg);

  // ---- link management -------------------------------------------------
  [[nodiscard]] sim::Task<LocalLinkPair> new_link();
  [[nodiscard]] sim::Task<void> destroy(LinkHandle link);

  // local computation time
  [[nodiscard]] sim::Task<void> delay(sim::Duration d);

  // ---- causal tracing --------------------------------------------------
  // Joins this thread's future calls to an existing causal chain (0
  // reverts to fresh TraceIds per call).  Contexts do not survive
  // co_await boundaries implicitly; this is the explicit propagation
  // point for multi-hop chains (see examples/pipeline.cpp).
  void set_trace_context(std::uint64_t t);

 private:
  // Throws `kind` to the thread, announcing it on the trace first.
  [[noreturn]] void fail(std::uint64_t trace_id, ErrorKind kind,
                         const std::string& detail);
  void check_abort();
  // Fails the thread with kMessageTooLarge when `ser` and its packet
  // header exceed what the backend's receiving buffer holds.
  void check_fits(const Serialized& ser, std::uint64_t trace_id);
  Process* proc_;
  ThreadId id_;
};

}  // namespace lynx
