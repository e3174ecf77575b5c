// The explore-sweep workload: check::explore over echo and replica
// universes under every fault plan, across fifo and permuted schedules,
// plus the check/sweep layer census every traced run reports.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check/explorer.hpp"

namespace perfbench {
namespace {

// Fixed, so host figures compare across machines with enough cores; one
// below a 4-core host's count, so the system's own work does not stall
// the pool (on a shared 4-vCPU host: 2-4 % run-to-run spread at 3
// threads, 4-8 % at 4).
constexpr unsigned kThreads = 3;
constexpr std::uint64_t kSweepSeeds = 100;
// Client operations per universe: 2 channels x 4 calls (echo), or 2
// clients x 4 ops (replica), the explorer's defaults.
constexpr double kCallsPerUniverse = 8.0;

struct Sweep {
  check::Workload workload;
  std::vector<check::PlanSpec> plans;
};

// Replica universes run with formation off: formation on reaches a
// Charlotte teardown use-after-free that the explorer reports as ok.
const std::array<Sweep, 2>& sweeps() {
  static const std::array<Sweep, 2> kSweeps = {
      Sweep{check::Workload::kEcho,
            {check::PlanSpec::kNone, check::PlanSpec::kAckStorm,
             check::PlanSpec::kBatchStorm}},
      Sweep{check::Workload::kReplica,
            {check::PlanSpec::kPrimaryCrash, check::PlanSpec::kBackupBounce}}};
  return kSweeps;
}

// Disjoint explorer seed ranges for distinct benchmark seeds.
[[nodiscard]] std::uint64_t first_seed_for(std::uint64_t seed,
                                           std::uint64_t seeds) {
  return 1 + (seed % (std::uint64_t{1} << 20)) * seeds;
}

// Host seconds are speed-scaled (bench.hpp); `raw_seconds` is not.
struct SweepPass {
  double seconds = 0.0;
  double raw_seconds = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::vector<std::uint64_t> digests;  // per (substrate, sweep), in order
  std::array<double, 3> sub_seconds{};
  std::array<double, 3> sub_raw_seconds{};
  std::array<std::uint64_t, 3> sub_runs{};
};

// One explore() per substrate and workload, so host time splits by
// substrate; every universe's verdict must be ok.
SweepPass run_sweep(std::uint64_t first_seed, std::uint64_t seeds,
                    unsigned threads, Result& res) {
  SweepPass pass;
  SpeedGauge gauge(threads);
  for (load::Substrate sub : load::all_substrates()) {
    const auto i = static_cast<std::size_t>(sub);
    for (const Sweep& s : sweeps()) {
      check::ExploreOptions o;
      o.substrates = {sub};
      o.workload = s.workload;
      o.plans = s.plans;
      o.seeds = seeds;
      o.first_seed = first_seed;
      o.threads = threads;
      o.shrink_failures = false;
      const auto t0 = Clock::now();
      const check::ExploreResult r = check::explore(o);
      const double dt = seconds_since(t0);
      const double scale = gauge.scale_after();
      pass.raw_seconds += dt;
      pass.seconds += dt * scale;
      pass.sub_raw_seconds[i] += dt;
      pass.sub_seconds[i] += dt * scale;
      pass.runs += r.runs;
      pass.sub_runs[i] += r.runs;
      pass.failures += r.failures.size();
      pass.digests.push_back(r.sweep_digest);
      res.ops(static_cast<std::int64_t>(r.runs),
              static_cast<std::int64_t>(r.failures.size()));
      for (const check::FailureReport& f : r.failures) {
        res.note("failing universe: " + f.token() + " -- " +
                 f.verdict.failure);
      }
    }
  }
  return pass;
}

// Host seconds of one echo universe per substrate, built, run and
// checked: what a sweep pays before its first verdict.
HostTimes universe_setup(std::uint64_t first_seed, Result& res) {
  HostTimes total{{0.0}, {0.0}};
  SpeedGauge gauge;
  for (load::Substrate sub : load::all_substrates()) {
    check::RunConfig cfg;
    cfg.substrate = sub;
    cfg.seed = first_seed;
    HostTimes times;
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<double> batch_s;
      for (int rep = 0; rep < 7; ++rep) {
        const auto t0 = Clock::now();
        const check::RunVerdict v = check::run_one(cfg);
        batch_s.push_back(seconds_since(t0));
        res.check(v.ok, "set-up universe failed: " + v.failure);
      }
      const double scale = gauge.scale_after();
      for (double t : batch_s) times.add(t, scale);
    }
    total.raw[0] += median(times.raw);
    total.scaled[0] += median(times.scaled);
  }
  return total;
}

void measure_explore(const Args& args, Result& res) {
  const std::uint64_t first = first_seed_for(args.seed, kSweepSeeds);
  const auto start = Clock::now();
  const HostTimes setup = universe_setup(first, res);
  const std::array<load::Report, 3> echo =
      sim_reports(echo_pair_plan(args.seed), res);

  std::vector<SweepPass> passes;
  constexpr std::size_t kMinPasses = 3;
  while (passes.size() < kMinPasses || seconds_since(start) < args.seconds) {
    passes.push_back(run_sweep(first, kSweepSeeds, kThreads, res));
    res.check(passes.back().digests == passes.front().digests,
              "a repeated sweep changed its digests");
  }
  res.note("passes: " + std::to_string(passes.size()) + ", universes per pass: " +
           std::to_string(passes.front().runs));

  res.host_metric("setup_s", setup, 1.0, "s");
  for (load::Substrate sub : load::all_substrates()) {
    const auto i = static_cast<std::size_t>(sub);
    HostTimes per_call;
    for (const SweepPass& p : passes) {
      const double calls =
          static_cast<double>(p.sub_runs[i]) * kCallsPerUniverse;
      per_call.raw.push_back(p.sub_raw_seconds[i] / calls);
      per_call.scaled.push_back(p.sub_seconds[i] / calls);
    }
    res.host_metric(std::string("host_ns_per_rpc.") + load::to_string(sub),
                    per_call, 1e9, "ns");
  }
  HostTimes per_run;
  for (const SweepPass& p : passes) {
    per_run.raw.push_back(p.raw_seconds / static_cast<double>(p.runs));
    per_run.scaled.push_back(p.seconds / static_cast<double>(p.runs));
  }
  res.host_metric("host_ms_per_run", per_run, 1e3, "ms");
  report_peak_rss(res);
  const SweepPass& p = passes.front();
  const double failed_ratio =
      static_cast<double>(p.failures) / static_cast<double>(p.runs);
  res.note("failed_op_ratio = " + std::to_string(failed_ratio));
  res.metric("ok_op_ratio", 1.0 - failed_ratio, "ratio");
  emit_sim_metrics(echo, res);
}

}  // namespace

void check_census(std::uint64_t seed, std::uint64_t seeds, Result& res) {
  const std::uint64_t first = first_seed_for(seed, seeds);
  // run_one timed per plan: the fault and replica layers' share of a
  // universe, over every substrate and schedule policy the plan applies to.
  const std::uint64_t plan_seeds = std::min<std::uint64_t>(seeds, 20);
  for (const Sweep& s : sweeps()) {
    for (check::PlanSpec plan : s.plans) {
      double total_s = 0.0;
      int runs = 0;
      SpeedGauge gauge;
      for (load::Substrate sub : load::all_substrates()) {
        if (s.workload == check::Workload::kEcho &&
            plan != check::PlanSpec::kNone &&
            sub == load::Substrate::kChrysalis) {
          continue;  // the storms impair a medium; Chrysalis has none
        }
        for (sim::TieBreak tie :
             {sim::TieBreak::kFifo, sim::TieBreak::kSeededPermutation}) {
          for (std::uint64_t k = 0; k < plan_seeds; ++k) {
            check::RunConfig cfg;
            cfg.substrate = sub;
            cfg.tie = tie;
            cfg.seed = first + k;
            cfg.plan = plan;
            cfg.workload = s.workload;
            const auto t0 = Clock::now();
            const check::RunVerdict v = check::run_one(cfg);
            total_s += seconds_since(t0);
            ++runs;
            res.ops(1, v.ok ? 0 : 1);
            res.check(v.ok, check::to_json(cfg) + " failed: " + v.failure);
          }
        }
      }
      HostTimes total;
      total.add(total_s, gauge.scale_after());
      res.host_metric(std::string("check.ms_per_run.") + check::to_string(plan),
                      total, 1e3 / runs, "ms");
    }
  }
  const SweepPass one = run_sweep(first, seeds, 1, res);
  const SweepPass many = run_sweep(first, seeds, kThreads, res);
  res.check(one.digests == many.digests,
            "sweep digests differ between 1 and " + std::to_string(kThreads) +
                " threads");
  res.check(one.failures == 0, "the census sweep found failing universes");
  res.metric("sweep.speedup", one.raw_seconds / many.raw_seconds, "x");
}

void run_explore_workload(const Args& args, Result& res) {
  if (args.trace) {
    // The census below sweeps 100 seeds twice; it takes most of the time.
    trace_load(echo_pair_plan(args.seed), args.seconds * 0.3, res);
    check_census(args.seed, kSweepSeeds, res);
  } else {
    measure_explore(args, res);
  }
}

}  // namespace perfbench
