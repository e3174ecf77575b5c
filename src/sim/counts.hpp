// The protocol counts table (DESIGN.md §7): one Counts per node, kept by
// the sim::Engine, bumped at `engine.counts(node)` and summed by
// `engine.total(&Counts::field)`.  Always on; never read back into a
// trace record, a digest or the schedule.  A tally counts at the sender
// for the wire, the receiver for arrivals, the caller for a kernel call,
// unless its comment says otherwise.
#pragma once

#include <cstdint>

namespace sim {

struct Counts {
  // ---- media (net::TokenRing, net::CsmaBus, net::Loopback) ----
  // Frames put on the wire (a broadcast once), and their payload bytes.
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t backoffs = 0;  // CSMA draws, every one (DESIGN.md §17)
  std::uint64_t bus_drops = 0;  // frames the CSMA bus lost on the way here

  // ---- fault::FaultyMedium ----
  // Frames dropped, at the sender by send-side faults (crashed source,
  // cut, loss), at the receiver by delivery-side ones.
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_delays = 0;   // deliveries held back by jitter
  std::uint64_t corrupt_discards = 0;  // rejected by the modelled checksum
  std::uint64_t deliveries = 0;        // frames handed to a receiver

  // ---- form::Packer (E16) ----
  std::uint64_t batches_sent = 0;
  std::uint64_t enclosures_batched = 0;  // frames those batches carried
  std::uint64_t singles_sent = 0;  // one-frame flushes, sent unwrapped

  // ---- kernels (E2/E9/E16) ----
  std::uint64_t frames_emitted = 0;  // Charlotte/SODA frames to the packer
  // Charlotte: frames of the three-party link-move protocol, and Msg
  // resends driven by a NACK or a send timeout.
  std::uint64_t move_protocol_frames = 0;
  std::uint64_t nack_retransmits = 0;
  std::uint64_t retries = 0;  // SODA: transport resends and request retries
  std::uint64_t microcode_ops = 0;  // Chrysalis: primitives called
  // Chrysalis: enqueue dispatches, its frames-per-message (E16).
  std::uint64_t enqueue_calls = 0;
  // Chrysalis, at the queue's home node: pushes into a dual queue's data
  // or waiter queue, the bookkeeping the cheap-flag fast path avoids.
  std::uint64_t queue_allocs = 0;
  // Chrysalis: enqueues an armed 16-bit flag turned into a bare post.
  std::uint64_t fast_deliveries = 0;

  // ---- Charlotte LYNX backend (E2/E4/E9) ----
  std::uint64_t packets_sent = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t retries_sent = 0;
  std::uint64_t forbids_sent = 0;
  std::uint64_t allows_sent = 0;
  std::uint64_t goaheads_sent = 0;
  std::uint64_t enc_packets_sent = 0;
  // Messages nobody wanted; stays 0 on SODA, which screens by accept.
  std::uint64_t unwanted_received = 0;
  std::uint64_t requests_returned = 0;  // our requests bounced back

  // ---- SODA LYNX backend (E10) ----
  std::uint64_t moved_redirects = 0;  // stragglers served from the cache
  std::uint64_t hint_misses = 0;      // sends that needed re-routing
  std::uint64_t discover_searches = 0;
  std::uint64_t discover_failures = 0;
  std::uint64_t freeze_searches = 0;

  // ---- LYNX runtime ----
  // Calls returned, requests received and replies delivered.
  std::uint64_t operations_completed = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

}  // namespace sim
