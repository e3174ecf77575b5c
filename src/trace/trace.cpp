#include "trace/trace.hpp"

#include <bit>

namespace trace {

namespace {

// The cache slot of `key`: the top bits of a Fibonacci hash, so
// neighbouring addresses spread.
template <std::size_t Slots>
[[nodiscard]] std::size_t slot_of(std::uint64_t key) {
  static_assert(std::has_single_bit(Slots) && Slots > 1);
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                  (64 - std::countr_zero(Slots)));
}
}  // namespace

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kSpanBegin: return "span-begin";
    case Kind::kSpanEnd: return "span-end";
    case Kind::kInstant: return "instant";
  }
  return "?";
}

Recorder::Recorder(sim::Engine& engine, std::size_t capacity)
    : engine_(&engine), capacity_(capacity) {
  if (engine_->recorder() == nullptr) {
    engine_->set_recorder(this);
    attached_ = true;
  }
}

Recorder::~Recorder() {
  if (attached_ && engine_->recorder() == this) {
    engine_->set_recorder(nullptr);
  }
}

std::uint16_t Recorder::intern_label(std::string_view name) {
  auto it = label_ids_.find(name);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(labels_.size());
  labels_.emplace_back(name);
  label_ids_.emplace(labels_.back(), id);
  digest_.add_bytes(name);  // digest covers names, not just indices
  return id;
}

std::uint32_t Recorder::intern_track(std::string_view name) {
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.emplace_back(name);
  track_ids_.emplace(tracks_.back(), id);
  digest_.add_bytes(name);
  return id;
}

std::uint16_t Recorder::label_id(const char* name) {
  NameSlot& slot = label_cache_[slot_of<kLabelSlots>(
      reinterpret_cast<std::uintptr_t>(name))];
  if (slot.name != name) slot = {name, intern_label(name)};
  return static_cast<std::uint16_t>(slot.id);
}

std::uint32_t Recorder::track_id(const char* name) {
  NameSlot& slot = track_cache_[slot_of<kTrackSlots>(
      reinterpret_cast<std::uintptr_t>(name))];
  if (slot.name != name) slot = {name, intern_track(name)};
  return slot.id;
}

void Recorder::emit(Record rec) {
  rec.at = engine_->now();
  rec.seq = emitted_++;
  // kind, label and node share one word: bits 56-63, 32-47 and 0-31
  // (bits 48-55 stay 0).
  digest_.add(static_cast<std::uint64_t>(rec.at));
  digest_.add((static_cast<std::uint64_t>(rec.kind) << 56) |
              (static_cast<std::uint64_t>(rec.label) << 32) | rec.node);
  digest_.add(rec.track);
  digest_.add(rec.span);
  digest_.add(rec.trace);
  digest_.add(rec.a);
  digest_.add(rec.b);
  if (sink_) sink_(rec);
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
    return;
  }
  ++overwritten_;
  if (capacity_ == 0) return;
  ring_[head_] = rec;
  if (++head_ == capacity_) head_ = 0;
}

SpanId Recorder::begin_span(std::uint32_t node, const char* track,
                            const char* label, TraceId trace,
                            std::uint64_t a, std::uint64_t b) {
  const SpanId id = ++next_span_;
  Record rec;
  rec.kind = Kind::kSpanBegin;
  rec.label = label_id(label);
  rec.node = node;
  rec.track = track_id(track);
  rec.span = id;
  rec.trace = trace;
  rec.a = a;
  rec.b = b;
  emit(rec);
  return id;
}

void Recorder::end_span(std::uint32_t node, SpanId span) {
  if (span == 0) return;
  Record rec;
  rec.kind = Kind::kSpanEnd;
  rec.node = node;
  rec.span = span;
  emit(rec);
}

void Recorder::instant(std::uint32_t node, const char* track,
                       const char* label, TraceId trace, std::uint64_t a,
                       std::uint64_t b) {
  Record rec;
  rec.kind = Kind::kInstant;
  rec.label = label_id(label);
  rec.node = node;
  rec.track = track_id(track);
  rec.trace = trace;
  rec.a = a;
  rec.b = b;
  emit(rec);
}

std::vector<Record> Recorder::snapshot() const {
  std::vector<Record> out;
  out.reserve(ring_.size());
  const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  out.insert(out.end(), oldest, ring_.end());
  out.insert(out.end(), ring_.begin(), oldest);
  return out;
}

}  // namespace trace
