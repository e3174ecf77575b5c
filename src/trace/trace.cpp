#include "trace/trace.hpp"

#include <algorithm>

namespace trace {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
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

void Recorder::fold(std::uint64_t v) {
  // FNV-1a, one byte at a time, little-endian field order — the same
  // discipline as fault::digest() so the two pins compose.
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xFF;
    digest_ *= kFnvPrime;
  }
}

void Recorder::fold_bytes(std::string_view bytes) {
  for (unsigned char c : bytes) {
    digest_ ^= c;
    digest_ *= kFnvPrime;
  }
}

std::uint16_t Recorder::intern_label(std::string_view name) {
  auto it = label_ids_.find(name);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(labels_.size());
  labels_.emplace_back(name);
  label_ids_.emplace(labels_.back(), id);
  fold_bytes(name);  // digest covers names, not just indices
  return id;
}

std::uint32_t Recorder::intern_track(std::string_view name) {
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(tracks_.size());
  tracks_.emplace_back(name);
  track_ids_.emplace(tracks_.back(), id);
  fold_bytes(name);
  return id;
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
  fold(static_cast<std::uint64_t>(rec.at));
  fold((static_cast<std::uint64_t>(rec.kind) << 8) |
       static_cast<std::uint64_t>(rec.dim));
  fold((static_cast<std::uint64_t>(rec.label) << 32) | rec.node);
  fold(rec.track);
  fold(rec.span);
  fold(rec.trace);
  fold(rec.a);
  fold(rec.b);
  Ring& ring = rings_[rec.node];
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
  rec.label = intern_label(label);
  rec.node = node;
  rec.track = intern_track(track);
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
  rec.label = intern_label(label);
  rec.node = node;
  rec.track = intern_track(track);
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
