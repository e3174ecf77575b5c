// The fixed-size structured trace record (modelled on Motr's addb2).
//
// Every observable step of an RPC — runtime phases, kernel frames,
// fault injections — is one 64-byte POD appended to the recorder's one
// ring, in emission order.  Records never hold host pointers or host
// time, only simulated time and small interned indices, so the stream
// for a run is a pure function of (seed, plan, workload) and is
// digested for determinism checks by the same `common::Digest` as
// `fault::digest()`.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace trace {

// A causal identity threaded through one RPC end to end: allocated by
// the client runtime, carried in the wire frames, reused by the server
// for its reply.  0 means "untraced".
using TraceId = std::uint64_t;

// Pairs a kSpanBegin with its kSpanEnd.  0 is never a live span.
using SpanId = std::uint64_t;

// The values are folded into Recorder::digest(): never renumber them.
enum class Kind : std::uint8_t {
  kSpanBegin = 0,  // span = id, a/b = extra args
  kSpanEnd = 1,    // span = id
  kInstant = 2,    // point event
};

[[nodiscard]] const char* to_string(Kind kind);

struct Record {
  sim::Time at = 0;          // simulated time of emission
  Kind kind{};
  std::uint8_t pad8 = 0;
  std::uint16_t label = 0;   // interned label (span/instant name, category)
  std::uint32_t node = 0;    // emitting node
  std::uint32_t track = 0;   // interned track within the node
  std::uint32_t pad = 0;
  SpanId span = 0;           // kSpanBegin/kSpanEnd pairing key
  TraceId trace = 0;         // causal identity, 0 if untraced
  std::uint64_t a = 0;       // event-specific payload (frame id, bytes, ...)
  std::uint64_t b = 0;
  std::uint64_t seq = 0;     // index in the emitted stream
};

static_assert(sizeof(Record) == 64, "records are fixed-size by design");

}  // namespace trace
