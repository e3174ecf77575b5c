#include "fault/invariant_checker.hpp"

#include <sstream>

namespace fault {

InvariantChecker::InvariantChecker(FaultyMedium& medium) : medium_(&medium) {
  medium.observe_faults(
      [this](const FaultRecord& record) { on_fault(record); });
  medium.observe_delivery(
      [this](const net::Frame& frame, net::NodeId receiver) {
        on_delivery(frame, receiver);
      });
}

void InvariantChecker::on_fault(const FaultRecord& record) {
  ++faults_checked_;
  // I5: monotone log.
  if (record.at < last_fault_at_) {
    std::ostringstream os;
    os << "I5: fault log went backwards: " << describe(record) << " after t="
       << sim::to_msec(last_fault_at_) << "ms";
    violate(os.str());
  }
  last_fault_at_ = record.at;
  if (record.kind == FaultKind::kDuplicate) {
    ++dup_budget_[record.frame_id];
  }
}

void InvariantChecker::on_delivery(const net::Frame& frame,
                                   net::NodeId receiver) {
  ++deliveries_checked_;
  if (medium_->crashed(receiver)) {
    std::ostringstream os;
    os << "I1: frame#" << frame.id << " delivered to crashed " << receiver;
    violate(os.str());
    return;
  }
  if (medium_->link_cut(frame.src, receiver)) {
    std::ostringstream os;
    os << "I2: frame#" << frame.id << " delivered across severed link "
       << frame.src << "<->" << receiver;
    violate(os.str());
    return;
  }
  if (frame.corrupted) {
    std::ostringstream os;
    os << "I3: corrupted frame#" << frame.id << " reached " << receiver;
    violate(os.str());
    return;
  }
  const std::uint32_t seen = ++delivered_[{frame.id, receiver}];
  auto it = dup_budget_.find(frame.id);
  const std::uint32_t allowed =
      1 + (it == dup_budget_.end() ? 0 : it->second);
  if (seen > allowed) {
    std::ostringstream os;
    os << "I4: frame#" << frame.id << " delivered " << seen << "x to "
       << receiver << " with only " << (allowed - 1)
       << " duplicate(s) injected";
    violate(os.str());
  }
}

void InvariantChecker::violate(std::string what) {
  violations_.push_back(std::move(what));
}

}  // namespace fault
