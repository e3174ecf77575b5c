// Shared pieces of the relynx benchmark: arguments, host timing, and the
// result that every workload fills and main() prints.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "load/report.hpp"
#include "load/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Median of a non-empty sample; the mean of the middle pair when even.
[[nodiscard]] double median(std::vector<double> v);

// Host speed reference.  The benchmark shares its machine, whose speed
// swings by a quarter or more within a minute as other tenants come and
// go.  A SpeedGauge times a fixed loop that runs no relynx code (a
// binary heap, a hash map and heap allocation: the simulator's own mix)
// before and after each measured item.  The item's host durations are
// multiplied by kReferenceNominalS / the mean of those two loop times,
// so they read as on a machine that runs the loop in the nominal time,
// and the swings cancel.
inline constexpr double kReferenceNominalS = 0.016;

// Host seconds of one pass of the reference loop, run on `threads`
// threads at once when the measured item is itself parallel.
[[nodiscard]] double reference_seconds(unsigned threads);

class SpeedGauge {
 public:
  explicit SpeedGauge(unsigned threads = 1)
      : threads_(threads), before_(reference_seconds(threads)) {}
  // Call right after a measured item: its speed scale.
  [[nodiscard]] double scale_after() {
    const double after = reference_seconds(threads_);
    const double scale = 2.0 * kReferenceNominalS / (before_ + after);
    before_ = after;
    return scale;
  }

 private:
  unsigned threads_;
  double before_;
};

// Host durations of one measured item, raw and speed-scaled.
struct HostTimes {
  std::vector<double> raw;
  std::vector<double> scaled;
  void add(double seconds, double scale) {
    raw.push_back(seconds);
    scaled.push_back(seconds * scale);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Metrics, operation counts and the correctness verdict of one run.
// Every metric is also echoed as a human-readable line; the last line
// of standard output is one JSON object holding all of it.
class Result {
 public:
  // `detail` is printed beside the value, e.g. the sample count of a p99.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& detail = "");
  // The median speed-scaled time times `factor`, with the raw median
  // printed beside it.
  void host_metric(const std::string& name, const HostTimes& t, double factor,
                   const std::string& unit);
  // A human-readable line that is not a metric (sample counts, checks).
  void note(const std::string& line);
  // Records a failed self-check: the run's outputs are not to be trusted.
  void fail(const std::string& why);
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  void ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

// In-window operations of one load run, and how many of them failed: an
// in-window arrival that had not completed by the hard end failed, be it
// an error, a drop or a stuck call.  A window that completed nothing
// counts every call it held as failed, so a silent wedge reads 1.0 even
// in a closed loop, where a stuck channel schedules no new arrival.
struct OpCount {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};
[[nodiscard]] OpCount ops_of(const load::Report& r);

// Reports peak_rss_mb: this process's peak resident set so far.
void report_peak_rss(Result& res);

// One load shape on every substrate: the scenarios of the measured
// (untraced) window and of the shorter traced window, indexed by
// load::Substrate.
struct LoadPlan {
  std::array<load::Scenario, 3> measured;
  std::array<load::Scenario, 3> traced;
  // Refuse the config unless every substrate sustains its rate.
  bool below_knee = false;
};

// The explorer's echo universe under light load (load_bench.cpp).
[[nodiscard]] LoadPlan echo_pair_plan(std::uint64_t seed);

// Runs each measured scenario twice, checks that the reports agree and
// pass the plan's guards, and returns them.
[[nodiscard]] std::array<load::Report, 3> sim_reports(const LoadPlan& plan,
                                                      Result& res);
// sim_p50_ms / sim_p99_ms / sim_rps for every substrate.
void emit_sim_metrics(const std::array<load::Report, 3>& reps, Result& res);

// The per-layer figures of the load layers, from traced and untraced
// runs of each substrate's traced window, repeated for `seconds`.
void trace_load(const LoadPlan& plan, double seconds, Result& res);

// The per-layer figures of the check and sweep layers: run_one timed per
// fault plan, and the explorer's 1-thread / N-thread speed-up, over
// `seeds` seeds from a range chosen by `seed` (explore_bench.cpp).
void check_census(std::uint64_t seed, std::uint64_t seeds, Result& res);

// The two workload families.  Each fills `res` with the end-to-end
// metrics (args.trace false) or the per-layer metrics (args.trace true).
void run_load_workload(const Args& args, Result& res);
void run_explore_workload(const Args& args, Result& res);

}  // namespace perfbench
