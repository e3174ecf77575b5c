// Fault taxonomy and the reproducible fault log.
//
// Everything the fault layer does to traffic is recorded as a
// FaultRecord, in the order it happened.  Because the simulation is
// single-threaded and every random draw comes from one seeded stream,
// the record sequence is a pure function of (seed, plan, workload);
// digest() collapses it to one word so tests can assert two runs were
// byte-identical without storing both logs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace fault {

enum class FaultKind : std::uint8_t {
  // -- per-frame impairments ------------------------------------------
  kDrop,            // discarded by window or background loss
  kDuplicate,       // an extra copy injected (same frame id)
  kDelay,           // delivery postponed by jitter
  kCorrupt,         // marked corrupted in flight
  kCorruptDiscard,  // receiver "checksum" rejected a corrupted frame
  kCutDrop,         // lost to a severed link
  kPartitionDrop,   // lost crossing a partition boundary
  kCrashDrop,       // lost because an endpoint is crashed
  // -- topology / lifecycle events ------------------------------------
  kCrash,    // node went down
  kRestart,  // node came back
  kCut,      // link severed
  kHeal,     // link (or whole network) restored
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultRecord {
  sim::Time at = 0;
  FaultKind kind{};
  std::uint64_t frame_id = 0;  // 0 for lifecycle records
  net::NodeId src;             // frame src, or link end / crashed node
  net::NodeId dst;             // frame dst (invalid for broadcast), or link end
  sim::Duration delay = 0;     // kDelay only
};

// common::Digest over the record stream, six words per record.
[[nodiscard]] std::uint64_t digest(const std::vector<FaultRecord>& log);

[[nodiscard]] std::string describe(const FaultRecord& record);

}  // namespace fault
