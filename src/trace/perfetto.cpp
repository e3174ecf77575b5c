#include "trace/perfetto.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <unordered_map>

namespace trace {

namespace {

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class Emitter {
 public:
  explicit Emitter(std::ostream& os) : os_(&os) { *os_ << "[\n"; }
  ~Emitter() { *os_ << "\n]\n"; }

  std::ostream& event() {
    if (!first_) *os_ << ",\n";
    first_ = false;
    return *os_;
  }

 private:
  std::ostream* os_;
  bool first_ = true;
};

void put_ts(std::ostream& os, sim::Time t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", sim::to_usec(t));
  os << buf;
}

}  // namespace

void write_chrome_trace(const Recorder& rec, std::ostream& os) {
  const std::vector<Record> records = rec.snapshot();

  sim::Time max_at = 0;
  std::set<std::uint32_t> nodes;
  std::set<std::pair<std::uint32_t, std::uint32_t>> node_tracks;
  std::unordered_map<SpanId, const Record*> open;
  for (const Record& r : records) {
    max_at = std::max(max_at, r.at);
    nodes.insert(r.node);
    node_tracks.insert({r.node, r.track});
  }

  Emitter out(os);

  for (std::uint32_t node : nodes) {
    out.event() << "{\"ph\":\"M\",\"pid\":" << node
                << ",\"name\":\"process_name\",\"args\":{\"name\":\"node "
                << node << "\"}}";
  }
  for (const auto& [node, track] : node_tracks) {
    out.event() << "{\"ph\":\"M\",\"pid\":" << node << ",\"tid\":" << track
                << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                << escaped(rec.track_name(track)) << "\"}}";
  }

  for (const Record& r : records) {
    switch (r.kind) {
      case Kind::kSpanBegin:
        open.emplace(r.span, &r);
        break;
      case Kind::kSpanEnd: {
        auto it = open.find(r.span);
        if (it == open.end()) break;  // begin record was overwritten
        const Record& b = *it->second;
        auto& ev = out.event();
        ev << "{\"ph\":\"X\",\"name\":\"" << escaped(rec.label_name(b.label))
           << "\",\"cat\":\"span\",\"pid\":" << b.node
           << ",\"tid\":" << b.track << ",\"ts\":";
        put_ts(ev, b.at);
        ev << ",\"dur\":";
        put_ts(ev, r.at - b.at);
        ev << ",\"args\":{\"trace\":" << b.trace << ",\"a\":" << b.a
           << ",\"b\":" << b.b << "}}";
        open.erase(it);
        break;
      }
      case Kind::kInstant: {
        auto& ev = out.event();
        ev << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\""
           << escaped(rec.label_name(r.label)) << "\",\"cat\":\"instant\""
           << ",\"pid\":" << r.node << ",\"tid\":" << r.track << ",\"ts\":";
        put_ts(ev, r.at);
        ev << ",\"args\":{\"trace\":" << r.trace << ",\"a\":" << r.a
           << ",\"b\":" << r.b << "}}";
        break;
      }
    }
  }

  // Spans still open when the run ended (servers parked mid-receive):
  // export what is known, clipped to the end of the recording.
  for (const auto& [id, begin] : open) {
    (void)id;
    const Record& b = *begin;
    auto& ev = out.event();
    ev << "{\"ph\":\"X\",\"name\":\"" << escaped(rec.label_name(b.label))
       << "\",\"cat\":\"span.open\",\"pid\":" << b.node
       << ",\"tid\":" << b.track << ",\"ts\":";
    put_ts(ev, b.at);
    ev << ",\"dur\":";
    put_ts(ev, max_at - b.at);
    ev << ",\"args\":{\"trace\":" << b.trace << ",\"a\":" << b.a
       << ",\"b\":" << b.b << "}}";
  }
}

bool write_chrome_trace_file(const Recorder& rec, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(rec, os);
  return static_cast<bool>(os);
}

}  // namespace trace
