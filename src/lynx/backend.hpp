// The Backend interface: what the LYNX run-time package asks of an
// operating system.
//
// This interface is the paper's subject.  Everything above it (threads,
// request/reply queues, block points, fairness, type checking) is shared
// across the three implementations; everything below it (link
// representation, message screening, moving ends) differs per kernel —
// and the *cost* of bridging the gap is what the experiments measure.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/strong_id.hpp"
#include "lynx/message.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace lynx {

struct BLinkTag {
  static const char* prefix() { return "bl"; }
};
// Backend-scoped token for a link end owned by this process.
using BLink = common::StrongId<BLinkTag>;

enum class MsgKind : std::uint8_t { kRequest, kReply };

struct WireMessage {
  MsgKind kind = MsgKind::kRequest;
  // Serialized with Backend::header_bytes() of headroom; the backend
  // prepends its packet header there and moves the body on.
  common::Body body;
  std::vector<BLink> enclosures;
  // Causal identity threaded from the runtime into the kernel frames
  // (trace::TraceId; 0 = untraced).
  std::uint64_t trace_id = 0;
};

enum class SendResult : std::uint8_t {
  kDelivered,
  kCancelled,       // cancel won the race; enclosures recovered (maybe)
  kLinkDestroyed,   // peer gone / link destroyed
  kReplyUnwanted,   // reply sent to an aborted caller (SODA/Chrysalis
                    // backends can detect this; Charlotte cannot)
};

struct SendOutcome {
  SendResult result = SendResult::kDelivered;
  // Charlotte deviation (§3.2.2): enclosures of an aborted/failed
  // message may be unrecoverable.
  std::vector<BLink> lost_enclosures;
};

struct BackendEvent {
  enum class Kind : std::uint8_t {
    kRequestArrived,
    kReplyArrived,
    kLinkDestroyed,
  };
  Kind kind = Kind::kRequestArrived;
  BLink link;
  common::Body body;  // the serialized body, packet header stripped
  std::vector<BLink> enclosures;  // receiver-side tokens of moved ends
  // TraceId recovered from the arriving message (0 = untraced), so the
  // receiving runtime continues the sender's causal chain.
  std::uint64_t trace = 0;
};

// Paper §6: the four capabilities that distinguish the primitive-kernel
// backends from the Charlotte backend (experiment E8).
struct Capabilities {
  bool moves_multiple_links_in_one_message = false;  // (1)
  bool all_received_messages_wanted = false;         // (2)
  bool recovers_enclosures_on_abort = false;         // (3)
  bool detects_all_exceptions = false;               // (4)
};

class Backend {
 public:
  using Sink = std::function<void(BackendEvent)>;

  virtual ~Backend() = default;

  [[nodiscard]] virtual Capabilities capabilities() const = 0;

  // Installs the event sink and starts internal pumps.
  virtual void start(Sink sink) = 0;
  // Destroys every link still attached (normal exit and crash alike).
  virtual void shutdown() = 0;

  // Bytes of packet header this backend writes in front of a serialized
  // body that moves `enclosures` link ends.  The runtime serializes with
  // that much headroom, so the header never costs a copy of the body.
  [[nodiscard]] virtual std::size_t header_bytes(
      std::size_t enclosures) const = 0;
  // The largest packet (header plus serialized body) the receiving end's
  // buffer holds.  The runtime refuses a bigger message at the sending
  // thread, before anything is sent (ErrorKind::kMessageTooLarge).
  [[nodiscard]] virtual std::size_t max_packet_bytes() const = 0;

  // Creates a link with both ends owned by this process.
  [[nodiscard]] virtual sim::Task<std::pair<BLink, BLink>> make_link() = 0;

  // Begins transmission of a request or reply, named `id` (unique within
  // the process).  The backend reports how it ended through settle(id).
  // The runtime guarantees at most one send in flight per link end.
  virtual void begin_send(BLink link, WireMessage msg, std::uint64_t id) = 0;
  // The thread that sent `id` was aborted while the send was awaited.
  virtual void cancel_send(std::uint64_t id) = 0;

  // Screening interest: want_requests mirrors the open/closed request
  // queue; want_replies is true while some thread awaits a reply.
  virtual void set_interest(BLink link, bool want_requests,
                            bool want_replies) = 0;

  // The thread awaiting a reply on `link` was aborted; the backend may
  // be able to tell the server (capability 4).
  virtual void retract_reply_interest(BLink link) = 0;

  // Destroys one end (and so the link).
  [[nodiscard]] virtual sim::Task<void> destroy(BLink link) = 0;

  // The simulated node this backend's process lives on, for trace
  // records (one Perfetto track group per node).
  [[nodiscard]] virtual std::uint32_t trace_node() const { return 0; }

  // The runtime's half of a send: `done` receives send `id`'s outcome,
  // and the send is awaited until then.
  void await_send(std::uint64_t id, sim::OneShot<SendOutcome>& done) {
    awaited_.emplace_back(id, &done);
  }
  [[nodiscard]] bool awaited(std::uint64_t id) const {
    return std::ranges::find(awaited_, id, &Awaited::first) != awaited_.end();
  }

 protected:
  // Reports how send `id` ended; once it has been reported, a no-op.
  void settle(std::uint64_t id, SendOutcome outcome) {
    auto it = std::ranges::find(awaited_, id, &Awaited::first);
    if (it == awaited_.end()) return;
    sim::OneShot<SendOutcome>* done = it->second;
    *it = awaited_.back();
    awaited_.pop_back();
    done->fulfill(std::move(outcome));
  }

 private:
  // One entry per sending thread: a flat vector scanned by id, which
  // allocates nothing once warm.
  using Awaited = std::pair<std::uint64_t, sim::OneShot<SendOutcome>*>;
  std::vector<Awaited> awaited_;
};

}  // namespace lynx
