#include "trace/trace.hpp"

#include <algorithm>
#include <bit>

namespace trace {

namespace {

// The cache slot of `key`: the top bits of a Fibonacci hash, so
// neighbouring addresses and node numbers spread.
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
    case Kind::kCtxPush: return "ctx-push";
    case Kind::kCtxPop: return "ctx-pop";
  }
  return "?";
}

const char* to_string(Dim dim) {
  switch (dim) {
    case Dim::kNone: return "none";
    case Dim::kNode: return "node";
    case Dim::kProcess: return "process";
    case Dim::kThread: return "thread";
    case Dim::kLink: return "link";
    case Dim::kRpc: return "rpc";
  }
  return "?";
}

Recorder::Recorder(sim::Engine& engine, std::size_t ring_capacity)
    : engine_(&engine), capacity_(std::max<std::size_t>(ring_capacity, 8)) {
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

Recorder::Ring& Recorder::ring_of(std::uint32_t node) {
  RingSlot& slot = ring_cache_[slot_of<kRingSlots>(node)];
  if (slot.ring == nullptr || slot.node != node) slot = {node, &rings_[node]};
  return *slot.ring;
}

std::optional<std::uint16_t> Recorder::find_label(
    std::string_view name) const {
  const auto it = label_ids_.find(name);
  if (it == label_ids_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint32_t> Recorder::find_track(
    std::string_view name) const {
  const auto it = track_ids_.find(name);
  if (it == track_ids_.end()) return std::nullopt;
  return it->second;
}

void Recorder::emit(Record rec) {
  rec.at = engine_->now();
  rec.seq = next_seq_++;
  ++emitted_;
  // kind, dim, label and node share one word: 8 + 8 + 16 + 32 bits.
  digest_.add(static_cast<std::uint64_t>(rec.at));
  digest_.add((static_cast<std::uint64_t>(rec.kind) << 56) |
              (static_cast<std::uint64_t>(rec.dim) << 48) |
              (static_cast<std::uint64_t>(rec.label) << 32) | rec.node);
  digest_.add(rec.track);
  digest_.add(rec.span);
  digest_.add(rec.trace);
  digest_.add(rec.a);
  digest_.add(rec.b);
  Ring& ring = ring_of(rec.node);
  if (ring.slots.size() < capacity_) {
    ring.slots.push_back(rec);
    return;
  }
  ++overwritten_;
  ring.slots[ring.head] = rec;
  ring.head = (ring.head + 1) % capacity_;
}

SpanId Recorder::begin_span(std::uint32_t node, const char* track,
                            const char* label, TraceId trace,
                            std::uint64_t a, std::uint64_t b) {
  if (!enabled_) return 0;
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
  if (!enabled_ || span == 0) return;
  Record rec;
  rec.kind = Kind::kSpanEnd;
  rec.node = node;
  rec.span = span;
  emit(rec);
}

void Recorder::instant(std::uint32_t node, const char* track,
                       const char* label, TraceId trace, std::uint64_t a,
                       std::uint64_t b) {
  if (!enabled_) return;
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

void Recorder::push_context(Dim dim, std::uint64_t value) {
  if (!enabled_) return;
  ctx_.emplace_back(dim, value);
  Record rec;
  rec.kind = Kind::kCtxPush;
  rec.dim = dim;
  rec.a = value;
  emit(rec);
}

void Recorder::pop_context() {
  if (!enabled_) return;
  RELYNX_ASSERT_MSG(!ctx_.empty(), "context pop without push");
  Record rec;
  rec.kind = Kind::kCtxPop;
  rec.dim = ctx_.back().first;
  rec.a = ctx_.back().second;
  ctx_.pop_back();
  emit(rec);
}

std::vector<Record> Recorder::snapshot() const {
  if (overwritten_ == 0) {
    // Every record ever emitted is retained, and seq numbers them.
    std::vector<Record> out(next_seq_);
    for (const auto& [node, ring] : rings_) {
      (void)node;
      for (const Record& r : ring.slots) out[r.seq] = r;
    }
    return out;
  }
  // One cursor per non-empty ring, at its oldest record: slot 0 until
  // the ring wraps, head after (head stays 0 until then).
  struct Cursor {
    const std::vector<Record>* slots;
    std::size_t pos;
    std::size_t left;  // records of this ring not yet merged
    [[nodiscard]] const Record& front() const { return (*slots)[pos]; }
  };
  std::vector<Cursor> heap;
  heap.reserve(rings_.size());
  for (const auto& [node, ring] : rings_) {
    (void)node;
    if (!ring.slots.empty()) {
      heap.push_back({&ring.slots, ring.head, ring.slots.size()});
    }
  }
  const auto later = [](const Cursor& x, const Cursor& y) {
    return x.front().seq > y.front().seq;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<Record> out;
  out.reserve(retained());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    out.push_back(c.front());
    if (--c.left == 0) {
      heap.pop_back();
      continue;
    }
    c.pos = (c.pos + 1) % c.slots->size();
    std::push_heap(heap.begin(), heap.end(), later);
  }
  return out;
}

std::size_t Recorder::retained() const {
  std::size_t n = 0;
  for (const auto& [node, ring] : rings_) {
    (void)node;
    n += ring.slots.size();
  }
  return n;
}

std::size_t Recorder::allocated_slots() const {
  std::size_t n = 0;
  for (const auto& [node, ring] : rings_) {
    (void)node;
    n += ring.slots.capacity();
  }
  return n;
}

}  // namespace trace
