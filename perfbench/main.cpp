// relynx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one benchmark workload for about S host seconds and prints every
// metric by name and unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// See README.md beside this file.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

std::uint64_t g_reference_sink = 0;  // keeps the reference loop's work live

// A small discrete-event loop: pop the earliest event, touch a hashed
// slot that grows and frees heap vectors, schedule a successor.
std::uint64_t reference_loop() {
  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, key)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::vector<std::uint64_t>>>
      table;
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) events.push({i, i});
  for (int i = 0; i < 100000; ++i) {
    const auto [t, key] = events.top();
    events.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto& slot = table[key % 8192];
    if (!slot) slot = std::make_unique<std::vector<std::uint64_t>>();
    slot->push_back(x);
    if (slot->size() > 8) slot.reset();
    sum += x & 7;
    events.push({t + x % 1000, x % 50000});
  }
  return sum;
}

}  // namespace

double reference_seconds(unsigned threads) {
  const auto t0 = Clock::now();
  if (threads <= 1) {
    g_reference_sink += reference_loop();
  } else {
    std::vector<std::uint64_t> sums(threads);
    {
      std::vector<std::jthread> workers;  // joined when the scope ends
      for (unsigned i = 0; i < threads; ++i) {
        workers.emplace_back([&sums, i] { sums[i] = reference_loop(); });
      }
    }
    for (std::uint64_t v : sums) g_reference_sink += v;
  }
  return seconds_since(t0);
}

OpCount ops_of(const load::Report& r) {
  if (r.completed == 0) {
    const std::int64_t held =
        std::max<std::int64_t>(1, std::max(r.scheduled, r.backlog_end));
    return {held, held};
  }
  return {r.scheduled, r.scheduled - r.completed};
}

// VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
// of the forked parent's pages across exec, so it would count the caller.
void report_peak_rss(Result& res) {
  long kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  res.check(kib > 0, "cannot read VmHWM from /proc/self/status");
  res.metric("peak_rss_mb", static_cast<double>(kib) / 1024.0, "MB");
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& detail) {
  if (!std::isfinite(value)) {
    fail(name + " is not a finite number");
    value = 0.0;
  }
  std::printf("%-40s %16.6g %-8s %s\n", name.c_str(), value, unit.c_str(),
              detail.c_str());
  metrics_.push_back({name, value, unit});
}

void Result::host_metric(const std::string& name, const HostTimes& t,
                         double factor, const std::string& unit) {
  char raw[64];
  std::snprintf(raw, sizeof raw, "raw %.6g", median(t.raw) * factor);
  metric(name, median(t.scaled) * factor, unit, raw);
}

void Result::note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

void Result::fail(const std::string& why) {
  std::printf("# CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

void Result::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(attempted_, 1)),
              static_cast<long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: relynx_perfbench --workload "
               "fanin-small|pipeline-bulk|explore-sweep --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(args.seconds > 0.0)) return usage();

  perfbench::Result res;
  try {
    if (args.workload == "fanin-small" || args.workload == "pipeline-bulk") {
      perfbench::run_load_workload(args, res);
    } else if (args.workload == "explore-sweep") {
      perfbench::run_explore_workload(args, res);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "relynx_perfbench: %s\n", e.what());
    return 1;
  }
  res.print();
  return 0;
}
