// SODA interface types (paper §4.1).
//
// SODA — "Simplified Operating system for Distributed Applications" — is
// closer to a communications protocol than an operating system.  Every
// process advertises *names*; communication is a request/accept
// rendezvous addressed by (process id, name): the requester says how
// much it wants to send and how much it is willing to receive (put /
// get / signal / exchange), the target feels a software interrupt, and
// when the target later accepts, data moves in both directions
// simultaneously and the requester feels a completion interrupt.  A
// small amount of out-of-band data rides on both the request and the
// accept.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/strong_id.hpp"
#include "host/process.hpp"
#include "sim/time.hpp"

namespace soda {

using host::Pid;

struct NameTag {
  static const char* prefix() { return "name"; }
};
// Advertised names: unique over space and time (GenerateName).
using Name = common::StrongId<NameTag>;

struct ReqTag {
  static const char* prefix() { return "req"; }
};
using ReqId = common::StrongId<ReqTag>;

using Payload = std::vector<std::uint8_t>;

// "a small amount of out-of-band information": two 32-bit words.  The
// paper (§4.2.1) worries that ~48 bits are needed for LYNX's
// self-descriptive message info; 64 bits is the simulated limit, and the
// LYNX backend packs into it (that packing is itself part of the
// reproduction).
using Oob = std::array<std::uint32_t, 2>;

enum class RequestKind : std::uint8_t { kSignal, kPut, kGet, kExchange };

[[nodiscard]] constexpr RequestKind classify(std::size_t send_bytes,
                                             std::size_t recv_bytes) {
  if (send_bytes == 0 && recv_bytes == 0) return RequestKind::kSignal;
  if (recv_bytes == 0) return RequestKind::kPut;
  if (send_bytes == 0) return RequestKind::kGet;
  return RequestKind::kExchange;
}

enum class Status : std::uint8_t {
  kOk,
  kNoSuchProcess,
  kNotAdvertised,    // accept/unadvertise of a name the caller doesn't hold
  kNoSuchRequest,    // accept of an unknown/already-accepted request
  kTooManyRequests,  // outstanding-per-pair limit hit (paper §4.2.1)
  kProcessDead,
  kHandlerState,     // open/close called redundantly
};

[[nodiscard]] constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNoSuchProcess: return "no-such-process";
    case Status::kNotAdvertised: return "not-advertised";
    case Status::kNoSuchRequest: return "no-such-request";
    case Status::kTooManyRequests: return "too-many-requests";
    case Status::kProcessDead: return "process-dead";
    case Status::kHandlerState: return "handler-state";
  }
  return "?";
}

// ---- software interrupts ---------------------------------------------------

// The target feels this when (its id, one of its advertised names) is
// named in a request.  Data stays parked in the kernel until accept.
struct RequestInterrupt {
  ReqId request;
  Pid from;
  Name name;
  Oob oob{};
  std::size_t send_bytes = 0;  // what the requester wants to send
  std::size_t recv_bytes = 0;  // what the requester is willing to receive
  // Causal identity carried by the request (trace::TraceId, 0 =
  // untraced) — lets the accepter's runtime continue the chain.
  std::uint64_t trace = 0;
};

// The requester feels this when its request is accepted.
struct CompletionInterrupt {
  ReqId request;
  Oob oob{};          // out-of-band from the accepter
  Payload data;       // what the accepter sent back (<= our recv limit)
  std::size_t delivered = 0;  // how much of our send the accepter took
  std::uint64_t trace = 0;    // inherited from the original request
};

// The requester feels this when the target dies before accepting.
struct CrashInterrupt {
  ReqId request;
  Pid target;
};

// The requester feels this when retries exhausted: nobody at that
// (pid, name) — the name was never advertised or has been unadvertised.
struct RejectInterrupt {
  ReqId request;
  Pid target;
  Name name;
};

// Cost model, nominally PDP-11/23 client+kernel processor pairs.  SODA
// was designed for speed: few frames, little kernel bookkeeping.  The
// slow 1 Mbit/s wire (and fragmentation) is charged by the bus model.
struct Costs {
  sim::Duration call_overhead = sim::usec(500);      // client->kernel word
  sim::Duration frame_processing = sim::usec(1800);  // per frame each side
  sim::Duration interrupt_delivery = sim::usec(700);
  sim::Duration per_byte_copy = sim::nsec(400);
  sim::Duration retry_interval = sim::msec(15);      // kernel retry of
                                                     // delayed requests
  sim::Duration discover_timeout = sim::msec(30);
  int max_request_attempts = 8;  // then RejectInterrupt
  std::size_t mtu_bytes = 256;   // fragmentation threshold
  int max_outstanding_per_pair = 8;
  // ---- RPC formation (src/form/, DESIGN.md §14) ----
  // Wire frames posted to the same destination node within form_delay of
  // each other are packed into one form::Batch frame of up to
  // form_max_bytes; the receiver pays frame_processing once plus
  // form_enclosure_processing per enclosure to demultiplex.  0 = today's
  // frame-per-message wire (the default).  Note form_max_bytes is a
  // *batch* budget, distinct from mtu_bytes (which splits user payloads
  // into fragments *before* formation sees them).
  sim::Duration form_delay = sim::Duration(0);
  std::size_t form_max_bytes = 1024;
  sim::Duration form_enclosure_processing = sim::usec(200);
  // Transport-level per-fragment acknowledgement + retransmission, for
  // running over an impaired medium.  0 disables both directions (the
  // seed behaviour: unicast bus frames are reliable, so SODA's only
  // retries are the NACK-driven ones above).  When enabled, unacked
  // fragments are retransmitted at the RTO below; after
  // max_transport_attempts of silence the kernel gives up and raises a
  // CrashInterrupt — SODA's *eventual* timeout, the counterpoint to
  // Charlotte's prompt absolute notice (§2, §4.1).
  sim::Duration ack_timeout = sim::Duration(0);
  int max_transport_attempts = 6;
  // ---- ack protocol (DESIGN.md §12) ----
  // Fragments carry per-peer transport sequence numbers; the receiver
  // acknowledges a cumulative fragment watermark that coalesces for
  // ack_coalesce_delay hoping to ride a reverse-leg fragment (the
  // request's ack on the accept, the accept's ack on the next request),
  // falling back to one standalone TransportAck frame at the deadline.
  // 0 = every ack leaves standalone at once.  Only meaningful when
  // ack_timeout > 0.
  sim::Duration ack_coalesce_delay = sim::msec(3);
  // Jacobson/Karels per-peer RTO (Karn's rule for samples, timeout
  // doubling per retransmission, clamped to [rto_min, rto_max]);
  // ack_timeout is the initial RTO before the first sample.
  // rto_min == rto_max == ack_timeout paces retransmissions at a fixed
  // ack_timeout.
  sim::Duration rto_min = sim::msec(10);
  sim::Duration rto_max = sim::msec(2000);
};

}  // namespace soda
