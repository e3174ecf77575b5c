// The structured event recorder (the repo's "observability before
// scale" subsystem).
//
// One Recorder per Engine.  Instrumentation sites go through the
// trace::get(engine) gate, which costs one pointer load and one branch
// when no recorder is attached:
//
//   if (auto* r = trace::get(engine)) {
//     r->instant(node, "wire", "frame.tx", msg.trace, frame_id, bytes);
//   }
//
// Storage is one fixed-capacity overwriting ring of 64-byte records in
// emission order (allocated lazily — a recorder that has recorded
// nothing allocates nothing; capacity 0 keeps none).  The determinism
// digest (common::Digest, the one fault::digest() uses too) is folded
// record-by-record AT EMISSION TIME, so it covers the full event stream
// even after old records have been overwritten: same (seed, plan,
// workload) => same digest.  An optional sink then sees each record as
// it is emitted, so an oracle can check a run as it runs.
//
// Track and label names passed to begin_span/instant must be static
// strings (literals, or pointers into static tables such as to_string):
// a per-recorder cache finds a name's id by its address, and trusts an
// address to keep its text.  Ids are still assigned in first-use order
// by text, so ids and digests depend neither on addresses nor on which
// names collide in the cache.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/digest.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"

namespace trace {

class Recorder {
 public:
  // Attaches itself to the engine (and detaches on destruction) so
  // instrumentation sites can reach it via trace::get(engine).  The
  // ring keeps the newest `capacity` records of the whole stream; with
  // capacity 0 every record counts as overwritten.
  explicit Recorder(sim::Engine& engine, std::size_t capacity = 1u << 15);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // ---- causal identity ------------------------------------------------
  [[nodiscard]] TraceId new_trace() { return ++next_trace_; }

  // ---- emission -------------------------------------------------------
  // `track` and `label` must be static strings (see the file comment).
  [[nodiscard]] SpanId begin_span(std::uint32_t node, const char* track,
                                  const char* label, TraceId trace,
                                  std::uint64_t a = 0, std::uint64_t b = 0);
  void end_span(std::uint32_t node, SpanId span);
  void instant(std::uint32_t node, const char* track, const char* label,
               TraceId trace, std::uint64_t a = 0, std::uint64_t b = 0);

  // Called with every record once it is folded into the digest; an
  // empty function detaches it.  A sink must not emit.
  void set_sink(std::function<void(const Record&)> sink) {
    sink_ = std::move(sink);
  }

  // ---- interning ------------------------------------------------------
  [[nodiscard]] std::uint16_t intern_label(std::string_view name);
  [[nodiscard]] std::uint32_t intern_track(std::string_view name);
  [[nodiscard]] const std::string& label_name(std::uint16_t id) const {
    return labels_[id];
  }
  [[nodiscard]] const std::string& track_name(std::uint32_t id) const {
    return tracks_[id];
  }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }

  // ---- inspection -----------------------------------------------------
  // All retained records in emission order: the ring from its oldest
  // record.
  [[nodiscard]] std::vector<Record> snapshot() const;

  [[nodiscard]] std::uint64_t total_emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t overwritten() const { return overwritten_; }
  [[nodiscard]] std::size_t retained() const { return ring_.size(); }
  // Ring slots currently allocated (0 until the first record: the
  // zero-allocation contract is tested).
  [[nodiscard]] std::size_t allocated_slots() const {
    return ring_.capacity();
  }

  // common::Digest over every record ever emitted, seven words each,
  // and over each name's text once, when it is first interned.
  // kEmptyDigest until the first record.
  [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }
  static constexpr std::uint64_t kEmptyDigest = common::Digest::kEmpty;

  [[nodiscard]] sim::Engine& engine() { return *engine_; }

 private:
  // Transparent hashing: a name-cache miss looks the name up by
  // string_view, so a known name builds no std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  template <typename Id>
  using NameIds =
      std::unordered_map<std::string, Id, NameHash, std::equal_to<>>;
  // One direct-mapped cache slot: a name's address and its id.  A miss
  // (an empty slot, or another name's address) interns by text.
  struct NameSlot {
    const char* name = nullptr;
    std::uint32_t id = 0;
  };

  [[nodiscard]] std::uint16_t label_id(const char* name);
  [[nodiscard]] std::uint32_t track_id(const char* name);
  void emit(Record rec);

  sim::Engine* engine_;
  std::size_t capacity_;
  bool attached_ = false;

  std::vector<Record> ring_;  // grows to capacity_, then wraps
  std::size_t head_ = 0;      // the oldest record once full (0 until then)
  std::vector<std::string> labels_;
  std::vector<std::string> tracks_;
  NameIds<std::uint16_t> label_ids_;
  NameIds<std::uint32_t> track_ids_;
  static constexpr std::size_t kLabelSlots = 256;
  static constexpr std::size_t kTrackSlots = 16;
  std::array<NameSlot, kLabelSlots> label_cache_{};
  std::array<NameSlot, kTrackSlots> track_cache_{};

  TraceId next_trace_ = 0;
  SpanId next_span_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t overwritten_ = 0;
  common::Digest digest_;
  std::function<void(const Record&)> sink_;
};

// The gate every instrumentation site goes through: the attached
// recorder, or nullptr when there is none.
[[nodiscard]] inline Recorder* get(sim::Engine& engine) {
  return engine.recorder();
}

// RAII span for scopes that may exit by exception or early co_return.
// Safe across co_await (the frame owns it); end() is idempotent.
//
// Holds the Engine, not the Recorder: a frame parked across co_await can
// outlive the Recorder (e.g. an Engine torn down mid-run destroys parked
// frames after a later-declared Recorder is already gone), so end()
// re-resolves through trace::get() — the Recorder detaches from the
// Engine in its destructor, turning a dead recorder into a no-op.
class SpanScope {
 public:
  SpanScope() = default;
  SpanScope(Recorder* rec, std::uint32_t node, const char* track,
            const char* label, TraceId trace, std::uint64_t a = 0,
            std::uint64_t b = 0)
      : node_(node) {
    if (rec != nullptr) {
      engine_ = &rec->engine();
      span_ = rec->begin_span(node, track, label, trace, a, b);
    }
  }
  SpanScope(SpanScope&& other) noexcept { *this = std::move(other); }
  SpanScope& operator=(SpanScope&& other) noexcept {
    end();
    engine_ = other.engine_;
    node_ = other.node_;
    span_ = other.span_;
    other.engine_ = nullptr;
    return *this;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { end(); }

  void end() {
    if (engine_ != nullptr) {
      if (Recorder* rec = get(*engine_)) rec->end_span(node_, span_);
      engine_ = nullptr;
    }
  }

 private:
  sim::Engine* engine_ = nullptr;
  std::uint32_t node_ = 0;
  SpanId span_ = 0;
};

}  // namespace trace
