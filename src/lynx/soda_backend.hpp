// The SODA backend (paper §4.2).
//
// A link is a pair of unique names, one per end; the owner of an end
// advertises its name.  Everything else is HINTS:
//
//   * every process keeps a hint for where the far end of each of its
//     links lives; hints can be wrong but usually work;
//   * screening is the application's: an incoming request interrupt is
//     *parked* (unaccepted, data still in the kernel) until the run-time
//     wants it — the accept is the acknowledgment, so every received
//     message is wanted and aborted sends are revocable with nothing
//     lost;
//   * a process that wants traffic keeps a status *signal* posted at the
//     peer, so it learns of destruction (accepted with DESTROYED
//     out-of-band info), moves (accepted with MOVED + new pid), and
//     crashes (kernel crash interrupt);
//   * moving an end = sending its name pair in the message body; the
//     receiver advertises the name; the mover accepts everything parked
//     from the fixed end with MOVED info, keeps the name in a cache of
//     recently-moved links, and answers stragglers from the cache;
//   * when every hint fails: discover (unreliable broadcast), and as the
//     absolute fallback the freeze/unfreeze search of §4.2 — freeze
//     every process, ask each for a hint, unfreeze, act on the best
//     answer; no hint anywhere means the link is destroyed.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <variant>

#include "common/id_map.hpp"
#include "lynx/backend.hpp"
#include "lynx/runtime.hpp"
#include "soda/kernel.hpp"

namespace lynx {

// Shared per-experiment directory: "SODA makes it easy to guess their
// ids" — the freeze search needs to reach every LYNX process, so each
// backend publishes its pid and freeze name here.
struct SodaDirectory {
  struct Entry {
    soda::Pid pid;
    soda::Name freeze_name;
  };
  std::vector<Entry> processes;
};

struct SodaBackendParams {
  int discover_attempts = 3;  // before falling back to freeze
  std::size_t moved_cache_capacity = 64;
  bool enable_freeze_fallback = true;
};

class SodaBackend final : public Backend {
 public:
  SodaBackend(soda::Network& network, SodaDirectory& directory,
              net::NodeId node, SodaBackendParams params = {});
  ~SodaBackend() override;

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
  [[nodiscard]] std::size_t header_bytes(
      std::size_t enclosures) const override {
    return 1 + 20 * enclosures;  // [count][per end: names + hint]
  }
  [[nodiscard]] std::size_t max_packet_bytes() const override {
    return kBigBuffer;  // every accept takes at most this much put data
  }
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

  [[nodiscard]] soda::Pid pid() const { return pid_; }

  // Bootstrap: wire two processes together (loader fiat).
  [[nodiscard]] static sim::Task<std::pair<LinkHandle, LinkHandle>> connect(
      Process& a, Process& b);

 private:
  static constexpr std::size_t kBigBuffer = 64 * 1024;
  // accept / completion out-of-band codes (word 0)
  enum class Oop : std::uint32_t {
    kRequestMsg = 1,   // request oob: a LYNX request rides this put
    kReplyMsg = 2,     // request oob: a LYNX reply rides this put
    kSignal = 3,       // request oob: status signal (no data)
    kCancel = 4,       // request oob: revoke my earlier put (word1 = req)
    kFreeze = 5,       // request oob: freeze search (data = link name)
    kUnfreeze = 6,     // request oob: end of search
    kAcceptOk = 10,    // accept oob: message taken
    kDestroyed = 11,   // accept oob: the link is destroyed
    kMoved = 12,       // accept oob: end moved, word1 = new pid
    kReplyUnwanted = 13,  // accept oob: caller aborted (capability 4)
    kCancelled = 14,   // accept oob: your put was revoked at your ask
    kTooLate = 15,     // accept oob: cancel lost the race
    kHint = 16,        // request oob: word1 = pid holding the end in data
    kNoHint = 17,      // accept oob: freeze taken (any hint follows, kHint)
  };

  // A put parked on an end until the run-time accepts it.
  struct Parked {
    soda::ReqId req;
    std::uint64_t trace = 0;  // causal identity from the RequestInterrupt
  };

  struct SLink {
    BLink token;
    soda::Name my_name;
    soda::Name peer_name;
    soda::Pid peer_hint;
    bool want_requests = false;
    bool want_replies = false;
    bool reply_unwanted = false;  // aborted caller: bounce the next reply
    bool destroyed = false;
    std::deque<Parked> parked_requests{};  // unaccepted LYNX requests
    std::deque<Parked> parked_signals{};   // peer's status signals
    soda::ReqId signal_out{};  // our outstanding status signal (if valid)
    // The caller answered our status signal with REPLY-UNWANTED: our
    // next reply must take the full kernel round trip so the peer's
    // authoritative reply_unwanted flag can bounce it (capability 4
    // survives the early reply resolve).  One-shot, like the flag.
    bool peer_reply_unwanted = false;
  };

  struct OutSend {
    std::uint64_t id = 0;
    BLink link;
    MsgKind kind = MsgKind::kRequest;
    soda::Payload data;            // the put, shared with each (re)issue
    soda::ReqId req;               // current kernel request
    soda::Pid target;              // pid the request went to
    std::vector<BLink> enclosure_tokens;
    bool cancel_requested = false;
    // The LYNX thread was released before the kernel leg finished (the
    // early reply resolve, DESIGN.md §12); shutdown drains these.
    bool early_resolved = false;
    std::uint64_t trace = 0;       // causal identity from the WireMessage
  };

  struct FreezeCollector {
    int expected = 0;
    std::unique_ptr<sim::OneShot<int>> done;
  };

  [[nodiscard]] sim::Task<> pump();
  void on_interrupt(const soda::Interrupt& intr);
  void on_request(const soda::RequestInterrupt& r);
  void on_completion(const soda::CompletionInterrupt& c);
  void on_crash_or_reject(soda::ReqId req);
  [[nodiscard]] sim::Task<> issue_send(std::uint64_t out_id);
  void resolve_out(std::uint64_t out_id, SendOutcome outcome);
  [[nodiscard]] sim::Task<> issue_cancel(std::uint64_t out_id);
  [[nodiscard]] sim::Task<> accept_and_deliver(BLink token, soda::ReqId req,
                                               MsgKind kind,
                                               std::uint64_t trace);
  // Accept every put parked on the end with `code`: the end is moving or
  // being destroyed, and each parked request and signal learns which.
  [[nodiscard]] sim::Task<> bounce_parked(BLink token, Oop code,
                                          std::uint64_t word1);
  [[nodiscard]] sim::Task<> accept_with(soda::ReqId req, Oop code,
                                        std::uint64_t word1);
  [[nodiscard]] sim::Task<> answer_freeze(soda::ReqId req, soda::Pid from);
  [[nodiscard]] sim::Task<> take_hint(soda::RequestInterrupt r);
  [[nodiscard]] sim::Task<> hint_fix_and_resend(std::uint64_t out_id);
  [[nodiscard]] sim::Task<std::optional<soda::Pid>> locate_peer(
      soda::Name peer_name);
  [[nodiscard]] sim::Task<std::optional<soda::Pid>> freeze_search(
      soda::Name peer_name);
  [[nodiscard]] sim::Task<> fix_signal(BLink token);
  [[nodiscard]] sim::Task<> finish_moves(std::vector<BLink> moved,
                                         soda::Pid new_owner);
  [[nodiscard]] sim::Task<> perform_shutdown();
  [[nodiscard]] sim::Task<> post_signal(BLink token);
  void maybe_accept_parked(SLink& link);
  void mark_destroyed(SLink& link);
  // Early-resolved replies whose kernel leg is still in flight.
  [[nodiscard]] bool has_unsettled_early() const;
  void note_drain_progress();
  [[nodiscard]] SLink* find(BLink token);
  [[nodiscard]] SLink* find_by_name(soda::Name name);
  // The one place an end record is built: a fresh link, a moved-in
  // enclosure, or a bootstrap connection.
  [[nodiscard]] BLink adopt_end(soda::Name my_name, soda::Name peer_name,
                                soda::Pid peer_hint);
  void remember_move(soda::Name name, soda::Pid new_owner);
  // Where a recently moved-away end went (its newest cache entry).
  [[nodiscard]] std::optional<soda::Pid> moved_to(soda::Name name) const;

  soda::Network* network_;
  SodaDirectory* directory_;
  net::NodeId node_;
  sim::Counts& counts_;
  SodaBackendParams params_;
  soda::Pid pid_;
  soda::Name freeze_name_;
  Sink sink_;
  bool running_ = false;
  // Shutdown drain: an early-resolved reply's OutSend may still be in
  // flight at the kernel when the runtime asks to shut down; terminating
  // then would strand the reply (terminate_process drops this process's
  // outstanding requests on the floor).  The pump keeps servicing
  // interrupts while draining_ until every early-resolved send settles.
  bool draining_ = false;
  std::unique_ptr<sim::WaitList> drained_;
  bool comm_ready_ = false;
  std::unique_ptr<sim::Gate> ready_;

  common::IdMap<BLink, SLink> links_;
  std::unordered_map<soda::Name, BLink> by_name_;
  common::IdMap<std::uint64_t, OutSend> outs_;
  // What each outstanding kernel request of ours is for: a send (by id),
  // a link's status signal, or one freeze of a search.
  std::unordered_map<soda::ReqId,
                     std::variant<std::uint64_t, BLink, FreezeCollector*>>
      reqs_;
  // recently moved ends: name -> new owner (kept advertised)
  std::deque<std::pair<soda::Name, soda::Pid>> moved_cache_;
  int freeze_count_ = 0;
  std::unordered_map<soda::Name, soda::Pid> async_hints_;
  common::IdAllocator<BLink> blink_ids_;
};

}  // namespace lynx
