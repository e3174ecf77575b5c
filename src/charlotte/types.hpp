// Charlotte kernel interface types (paper §3.1).
//
// Charlotte provides duplex links with a single process at each end, and
// six kernel calls: MakeLink, Destroy, Send, Receive, Cancel, Wait.  All
// calls return a status; all but Wait complete in bounded time; Wait
// blocks until some activity completes and returns its description.
// The kernel allows ONE outstanding activity per direction per link end,
// and a Send may enclose at most one link end.
#pragma once

#include <cstdint>
#include <vector>

#include "common/strong_id.hpp"
#include "host/process.hpp"
#include "sim/time.hpp"

namespace charlotte {

using host::Pid;

struct EndTag {
  static const char* prefix() { return "end"; }
};
// A link end; EndIds are global and survive moves (the end keeps its
// identity when it changes owner).
using EndId = common::StrongId<EndTag>;

struct LinkTag {
  static const char* prefix() { return "link"; }
};
using LinkId = common::StrongId<LinkTag>;

using Payload = std::vector<std::uint8_t>;

enum class Status : std::uint8_t {
  kOk,
  kNoSuchEnd,        // invalid or foreign end handle
  kNotOwner,         // end exists but belongs to another process
  kActivityPending,  // an activity in that direction is already posted
  kNoActivity,       // Cancel with nothing to cancel
  kCancelTooLate,    // the activity already matched
  kLinkDestroyed,    // other end (or this one) was destroyed
  kEndInTransit,     // end is currently enclosed in an unacked message
  kBadEnclosure,     // enclosure invalid / busy / equal to carrier end
  kCancelled,        // activity revoked by a successful Cancel
  kLinkFailed,       // transport gave up: peer node crashed or unreachable.
                     // Distinct from kLinkDestroyed — nobody destroyed the
                     // link; the kernel is reporting an *absolute* failure
                     // notice, which the paper contrasts with SODA's
                     // out-of-date hints (§2, §3.1).
};

[[nodiscard]] constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNoSuchEnd: return "no-such-end";
    case Status::kNotOwner: return "not-owner";
    case Status::kActivityPending: return "activity-pending";
    case Status::kNoActivity: return "no-activity";
    case Status::kCancelTooLate: return "cancel-too-late";
    case Status::kLinkDestroyed: return "link-destroyed";
    case Status::kEndInTransit: return "end-in-transit";
    case Status::kBadEnclosure: return "bad-enclosure";
    case Status::kCancelled: return "cancelled";
    case Status::kLinkFailed: return "link-failed";
  }
  return "?";
}

enum class Direction : std::uint8_t { kSend, kReceive };

// What Wait returns: "link end, direction, length, enclosure" plus a
// status (completions can report failure, e.g. a destroyed link).
struct Completion {
  EndId end;
  Direction direction = Direction::kSend;
  Status status = Status::kOk;
  std::size_t length = 0;
  EndId enclosure = EndId::invalid();  // received enclosure, if any
  Payload data;                        // delivered bytes (receive side)
  // Causal identity recovered from the message that produced this
  // completion (receive side), so language run-times continue the
  // sender's trace chain.  0 = untraced.
  std::uint64_t trace = 0;
};

struct LinkPair {
  EndId end1;
  EndId end2;
};

// Cost model, nominally a VAX 11/750 running the (deliberately
// unoptimized) Charlotte kernel.  Calibrated so that a null
// kernel-level RPC round trip lands near the paper's 55 ms and a
// 1000-byte-each-way RPC near 60 ms (§3.3).
struct Costs {
  // user->kernel trap, validation, activity bookkeeping (each call)
  sim::Duration call_overhead = sim::msec(9);
  // kernel work to emit / absorb one ring frame
  sim::Duration frame_processing = sim::msec(9);
  // per-byte copy between user buffer and kernel frame (each crossing)
  sim::Duration per_byte_copy = sim::nsec(900);
  // extra kernel work when a frame carries an enclosure (move protocol
  // bookkeeping on each involved kernel)
  sim::Duration enclosure_processing = sim::msec(2);
  // Ack coalescing (DESIGN.md §12): after a delivery the owed ack is
  // withheld for this long, hoping to piggyback on a data frame headed
  // the other way on the same link; if none leaves in time a standalone
  // MsgAck goes out so idle links still ack promptly.  0 = ack
  // immediately with a standalone frame.
  sim::Duration ack_coalesce_delay = sim::msec(3);
  // ---- RPC formation (src/form/, DESIGN.md §14) ----
  // Kernel frames posted to the same destination node within form_delay
  // of each other are packed into one form::Batch wire frame of up to
  // form_max_bytes; the receiver pays frame_processing once for the
  // batch plus form_enclosure_processing to demultiplex each enclosure
  // (much cheaper than a full frame absorption — no interrupt, no
  // header validation, just a length-prefixed walk).  0 = today's
  // frame-per-message wire (the default until gated wins are recorded).
  sim::Duration form_delay = sim::Duration(0);
  std::size_t form_max_bytes = 1024;
  sim::Duration form_enclosure_processing = sim::msec(1);
  // Transport-level send retransmission, for running over an impaired
  // medium.  0 disables the timer entirely (the seed behaviour: the
  // ring never loses frames, so Charlotte never needed one).  When
  // enabled, an unacked Msg is retransmitted until max_send_attempts,
  // then the kernel declares the link failed — Charlotte's absolute
  // failure notice.
  sim::Duration send_retransmit_timeout = sim::Duration(0);
  int max_send_attempts = 5;
  // Retransmission pacing.  The kernel keeps a Jacobson/Karels
  // estimator per link end (srtt + 4*rttvar, Karn's rule for samples)
  // and doubles the timeout on every retransmission, both clamped to
  // [rto_min, rto_max]; send_retransmit_timeout is the initial RTO
  // before the first sample.  rto_min == rto_max ==
  // send_retransmit_timeout paces retransmissions at a fixed timeout.
  sim::Duration rto_min = sim::msec(10);
  sim::Duration rto_max = sim::msec(2000);
  // TESTING ONLY — a deliberately injected semantic bug used by the
  // schedule-exploration checker (src/check/) to prove it can catch and
  // shrink real divergences.  When true, an already-delivered Msg whose
  // ack was lost is deduplicated but never RE-acked, so the sender's
  // retransmit timer can never stand down: it exhausts its attempts and
  // declares the link failed even though the message (and usually the
  // reply) got through.  Never enable outside the checker's self-test.
  bool debug_drop_reacks = false;
};

}  // namespace charlotte
