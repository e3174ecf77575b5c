// RPC formation: the batch wire format (DESIGN.md §14).
//
// A form::Batch is one physical wire frame carrying several co-destined
// kernel frames as enclosures.  Each enclosure keeps its own body,
// payload_bytes and TraceId, so the receive side can dispatch them in
// order and the trace phase tables still decompose per-RPC.  The batch
// frame's payload_bytes bills a small batch header plus a per-enclosure
// descriptor on top of the enclosed payloads — media charge batched
// traffic honestly, the win comes from amortizing per-frame overheads
// (medium headers, token waits, frame_processing) across enclosures.
// Only form::Packer builds and opens batches.
//
// Loss semantics are deliberately all-or-nothing: the fault layer drops
// whole net::Frames, so one dropped batch loses every enclosure in it.
// Each kernel's existing recovery (Charlotte's retransmit timers,
// SODA's per-fragment transport acks) re-delivers them; the enclosures
// were ordinary retransmittable kernel frames before they were packed.
#pragma once

#include <cstddef>
#include <vector>

#include "net/packet.hpp"

namespace form {

// Nominal wire overheads, charged into the batch frame's payload_bytes.
inline constexpr std::size_t kBatchHeaderBytes = 8;      // count + flags
inline constexpr std::size_t kEnclosureHeaderBytes = 4;  // length + type

// The byte budget of one batch frame: a batch flushes as soon as it
// would reach this size.  Formation's only knob is the delay window.
inline constexpr std::size_t kMaxBatchBytes = 1024;

struct Batch {
  std::vector<net::Frame> frames;  // enclosures, in submission order
};

// Bytes an enclosure occupies inside a batch frame.
[[nodiscard]] inline std::size_t wrapped_bytes(const net::Frame& f) {
  return kEnclosureHeaderBytes + f.payload_bytes;
}

}  // namespace form
