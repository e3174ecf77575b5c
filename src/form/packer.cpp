#include "form/packer.hpp"

#include <iterator>
#include <utility>

#include "trace/trace.hpp"

namespace form {

Packer::Packer(sim::Engine& engine, net::Medium& medium, net::NodeId node,
               sim::Duration delay)
    : engine_(&engine), medium_(&medium), node_(node),
      counts_(engine.counts(node.value())), delay_(delay) {}

Packer::~Packer() {
  // Never flush here: teardown runs after the engine stopped, and
  // pending enclosures die with the run exactly like parked frames do.
  for (auto& [dst, q] : queues_) q.deadline.cancel();
}

void Packer::submit(net::Frame frame) {
  if (!enabled()) {
    // Formation off: byte-identical to the frame-per-message wire.
    medium_->send(std::move(frame));
    return;
  }
  const net::NodeId dst = frame.dst;
  Queue& q = queues_[dst];
  const std::size_t wrapped = wrapped_bytes(frame);
  // A frame that would blow the byte budget closes the current batch
  // first; FIFO order to this destination is preserved either way.
  if (!q.pending.empty() &&
      kBatchHeaderBytes + q.bytes + wrapped > kMaxBatchBytes) {
    do_flush(dst, q);
  }
  q.pending.push_back(std::move(frame));
  q.bytes += wrapped;
  if (kBatchHeaderBytes + q.bytes >= kMaxBatchBytes) {
    do_flush(dst, q);
  } else if (q.pending.size() == 1) {
    q.deadline =
        engine_->schedule_cancellable(delay_, [this, dst] { flush(dst); });
  }
}

void Packer::submit_broadcast(net::Frame frame) {
  if (enabled()) flush_all();
  medium_->broadcast(std::move(frame));
}

void Packer::flush(net::NodeId dst) {
  auto it = queues_.find(dst);
  if (it != queues_.end()) do_flush(dst, it->second);
}

void Packer::flush_all() {
  for (auto& [dst, q] : queues_) do_flush(dst, q);
}

void Packer::do_flush(net::NodeId dst, Queue& q) {
  if (q.pending.empty()) return;
  q.deadline.cancel();
  const std::size_t bytes = q.bytes;
  q.bytes = 0;

  if (q.pending.size() == 1) {
    // Sparse traffic: the lone enclosure goes out unwrapped, so the
    // wire format (and every byte the medium charges) is unchanged.
    ++counts_.singles_sent;
    net::Frame lone = std::move(q.pending.front());
    q.pending.clear();
    medium_->send(std::move(lone));
    return;
  }

  // The enclosures move into an exactly sized vector; pending keeps its
  // capacity for the next batch to this destination.
  std::vector<net::Frame> frames(std::make_move_iterator(q.pending.begin()),
                                 std::make_move_iterator(q.pending.end()));
  q.pending.clear();

  // The batch inherits the first traced enclosure's identity so fault
  // observers can still name the operation a dropped batch serves; the
  // per-enclosure TraceIds ride inside for the receive-side records.
  std::uint64_t trace = 0;
  for (const net::Frame& f : frames) {
    if (f.trace_id != 0) {
      trace = f.trace_id;
      break;
    }
  }
  const std::size_t count = frames.size();
  ++counts_.batches_sent;
  counts_.enclosures_batched += count;
  net::Frame out{node_, dst, kBatchHeaderBytes + bytes,
                 Batch{std::move(frames)}};
  out.trace_id = trace;
  if (auto* rec = trace::get(*engine_)) {
    rec->instant(node_.value(), "wire", "batch.tx", trace, count,
                 out.payload_bytes);
  }
  medium_->send(std::move(out));
}

void Packer::record_rx(const net::Frame& frame) const {
  auto* rec = trace::get(*engine_);
  if (rec == nullptr) return;
  if (!frame.holds<Batch>()) {
    rec->instant(node_.value(), "wire", "frame.rx", frame.trace_id, frame.id,
                 frame.payload_bytes);
    return;
  }
  const Batch& batch = frame.as<Batch>();
  rec->instant(node_.value(), "wire", "batch.rx", frame.trace_id, frame.id,
               batch.frames.size());
  // Per-enclosure frame.rx with the enclosure's own TraceId, so the
  // phase tables keep decomposing each RPC even when its frames shared
  // a batch with strangers.
  for (const net::Frame& sub : batch.frames) {
    rec->instant(node_.value(), "wire", "frame.rx", sub.trace_id, frame.id,
                 sub.payload_bytes);
  }
}

}  // namespace form
