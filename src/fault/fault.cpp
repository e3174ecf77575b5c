#include "fault/fault.hpp"

#include <sstream>

#include "common/digest.hpp"

namespace fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kCorruptDiscard: return "corrupt-discard";
    case FaultKind::kCutDrop: return "cut-drop";
    case FaultKind::kPartitionDrop: return "partition-drop";
    case FaultKind::kCrashDrop: return "crash-drop";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kCut: return "cut";
    case FaultKind::kHeal: return "heal";
  }
  return "?";
}

std::uint64_t digest(const std::vector<FaultRecord>& log) {
  common::Digest d;
  for (const FaultRecord& r : log) {
    d.add(static_cast<std::uint64_t>(r.at));
    d.add(static_cast<std::uint64_t>(r.kind));
    d.add(r.frame_id);
    d.add(r.src.value());
    d.add(r.dst.value());
    d.add(static_cast<std::uint64_t>(r.delay));
  }
  return d.value();
}

std::string describe(const FaultRecord& record) {
  std::ostringstream os;
  os << "[t=" << sim::to_msec(record.at) << "ms] " << to_string(record.kind);
  if (record.frame_id != 0) os << " frame#" << record.frame_id;
  os << " " << record.src << "->" << record.dst;
  if (record.delay != 0) os << " +" << sim::to_usec(record.delay) << "us";
  return os.str();
}

}  // namespace fault
