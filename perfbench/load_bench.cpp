// The load workloads (fanin-small, pipeline-bulk) and the load pieces the
// explore-sweep workload shares: the echo-pair probe and the traced
// per-layer census of one load plan.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check/reference_model.hpp"
#include "load/load.hpp"
#include "lynx/message.hpp"
#include "trace/phases.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSubstrates = 3;

[[nodiscard]] std::size_t index_of(load::Substrate s) {
  return static_cast<std::size_t>(s);
}

[[nodiscard]] std::string name_of(load::Substrate s) {
  return load::to_string(s);
}

// The below-knee guard: bench_capacity's knee bound on p99, and
// load::find_capacity's slack on backlog growth across the window.
constexpr double kKneeP99Ms = 250.0;
[[nodiscard]] std::int64_t backlog_slack(const load::Scenario& sc) {
  return static_cast<std::int64_t>(2 * sc.clients * sc.channels_per_client + 2);
}

// A p99 is reported only when at least this many samples back it, so
// ten or more lie beyond it.
constexpr std::int64_t kMinP99Samples = 1000;

// Per-node trace ring.  Rings grow on demand, so this only bounds them;
// a run that still wraps one fails the overwritten() == 0 check.
constexpr std::size_t kRingPerNode = std::size_t{1} << 22;

// ---- the workload shapes ---------------------------------------------------

// Open-loop Poisson fan-in, 64 clients into 16 servers, 64 B each way,
// formation off, at a per-substrate rate below each kernel's knee
// (Charlotte, SODA, Chrysalis).
constexpr std::array<double, kSubstrates> kFaninRate = {320.0, 200.0, 3584.0};

load::Scenario fanin_small(load::Substrate sub, std::uint64_t seed,
                           sim::Duration measure) {
  load::Scenario sc;
  sc.name = "fanin-small";
  sc.clients = 64;
  sc.servers = 16;
  sc.arrival = load::Arrival::kOpenPoisson;
  sc.offered_rate = kFaninRate[index_of(sub)];
  sc.mix = {{64, 64, 1.0}};
  sc.warmup = sim::msec(500);
  sc.measure = measure;
  sc.drain = sim::sec(2);
  sc.seed = seed;
  return sc;
}

// Saturated closed loop through a 2-stage pipeline: 16 clients with 2
// channels each, 7 worker threads per stage (8 wedges SODA, see
// wedge_selfcheck), a 64 B / 1 KB / 1.8 KB mix that stays under
// Chrysalis's 2048 B link buffer, and formation on at E16's delays.
constexpr std::array<sim::Duration, kSubstrates> kPipelineFormDelay = {
    sim::msec(20), sim::msec(5), sim::msec(10)};

load::Scenario pipeline_bulk(load::Substrate sub, std::uint64_t seed,
                             sim::Duration measure) {
  load::Scenario sc;
  sc.name = "pipeline-bulk";
  sc.topology = load::Topology::kPipeline;
  sc.clients = 16;
  sc.servers = 2;
  sc.server_threads = 7;
  sc.channels_per_client = 2;
  sc.arrival = load::Arrival::kClosed;
  sc.think = 0;
  sc.mix = {{64, 64, 1.0}, {1024, 1024, 1.0}, {1800, 1800, 1.0}};
  sc.form_delay = kPipelineFormDelay[index_of(sub)];
  sc.warmup = sim::sec(1);
  sc.measure = measure;
  // Saturated SODA replies take up to ~3 s; leave every in-window call
  // room to land.
  sc.drain = sim::sec(10);
  sc.seed = seed;
  return sc;
}

// The explorer's echo universe (one client, one server, 2 channels,
// 32 B) at a light Poisson rate: each substrate's unloaded per-RPC
// latency, the paper's own comparison.
load::Scenario echo_pair(load::Substrate /*sub*/, std::uint64_t seed,
                         sim::Duration measure) {
  load::Scenario sc;
  sc.name = "echo-pair";
  sc.clients = 1;
  sc.servers = 1;
  sc.channels_per_client = 2;
  sc.arrival = load::Arrival::kOpenPoisson;
  sc.offered_rate = 10.0;
  sc.mix = {{32, 32, 1.0}};
  sc.warmup = sim::sec(1);
  sc.measure = measure;
  sc.drain = sim::sec(2);
  sc.seed = seed;
  return sc;
}

using ShapeFn = load::Scenario (*)(load::Substrate, std::uint64_t,
                                   sim::Duration);

LoadPlan make_plan(ShapeFn shape, std::uint64_t seed, sim::Duration measured,
                   sim::Duration traced) {
  LoadPlan plan;
  for (load::Substrate sub : load::all_substrates()) {
    plan.measured[index_of(sub)] = shape(sub, seed, measured);
    plan.traced[index_of(sub)] = shape(sub, seed, traced);
  }
  return plan;
}

// ---- checks -----------------------------------------------------------------

void check_reports(const LoadPlan& plan, const std::array<load::Report, 3>& reps,
                   Result& res) {
  for (load::Substrate sub : load::all_substrates()) {
    const load::Report& r = reps[index_of(sub)];
    const load::Scenario& sc = plan.measured[index_of(sub)];
    const std::string name = name_of(sub);
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: scheduled %ld, completed %ld, errors %ld, dropped %ld, "
                  "backlog %ld -> %ld (peak %ld)",
                  name.c_str(), static_cast<long>(r.scheduled),
                  static_cast<long>(r.completed), static_cast<long>(r.errors),
                  static_cast<long>(r.dropped),
                  static_cast<long>(r.backlog_start),
                  static_cast<long>(r.backlog_end),
                  static_cast<long>(r.backlog_peak));
    res.note(line);
    res.check(r.errors == 0 && r.dropped == 0 && !r.backlog_capped,
              name + " reported errors or shed arrivals");
    res.check(r.samples >= kMinP99Samples,
              name + " p99 is backed by " + std::to_string(r.samples) +
                  " samples, fewer than " + std::to_string(kMinP99Samples));
    if (plan.below_knee) {
      res.check(r.sustainable(kKneeP99Ms, backlog_slack(sc)),
                name + " does not sustain " +
                    std::to_string(static_cast<int>(sc.offered_rate)) +
                    " req/s below the knee (p99 bound " +
                    std::to_string(static_cast<int>(kKneeP99Ms)) +
                    " ms, backlog slack " +
                    std::to_string(backlog_slack(sc)) +
                    "): refusing this config");
    }
  }
}

// The guard must refuse a config that measures queue divergence rather
// than service: SODA fan-in at bench_sim's 1024 req/s is overloaded.
void overload_selfcheck(std::uint64_t seed, Result& res) {
  const load::Substrate sub = load::Substrate::kSoda;
  load::Scenario sc = fanin_small(sub, seed, sim::sec(4));
  sc.offered_rate = 1024.0;
  const load::Report r = load::run_scenario(sub, sc);
  const bool refused = !r.sustainable(kKneeP99Ms, backlog_slack(sc));
  char line[256];
  std::snprintf(line, sizeof line,
                "self-check below-knee guard: soda fan-in at 1024 req/s "
                "delivers %.1f/s, backlog %ld -> %ld, p99 %.1f ms: %s",
                r.throughput, static_cast<long>(r.backlog_start),
                static_cast<long>(r.backlog_end), r.p99_ms,
                refused ? "refused" : "ACCEPTED");
  res.note(line);
  res.check(refused, "the below-knee guard accepted an overloaded config");
}

// A 2-stage SODA pipeline with 8 server threads completes nothing and
// reports no error: the forward links' standing status signals fill the
// per-pair admission budget.  The failure accounting must read 1.0.
void wedge_selfcheck(std::uint64_t seed, Result& res) {
  const load::Substrate sub = load::Substrate::kSoda;
  load::Scenario sc = pipeline_bulk(sub, seed, sim::sec(10));
  sc.server_threads = 8;
  const load::Report r = load::run_scenario(sub, sc);
  const OpCount ops = ops_of(r);
  const double ratio =
      static_cast<double>(ops.failed) / static_cast<double>(ops.attempted);
  char line[256];
  std::snprintf(line, sizeof line,
                "self-check wedge: soda 2-stage pipeline, 8 server threads: "
                "completed %ld, errors %ld, failed_op_ratio %.3f (expect 1)",
                static_cast<long>(r.completed), static_cast<long>(r.errors),
                ratio);
  res.note(line);
  res.check(ratio == 1.0, "a silent wedge was not counted as failure");
}

// ---- untraced measurement ---------------------------------------------------

// Every repetition rebuilds and reruns the same universes; the reports
// and engine event counts must repeat exactly.
constexpr int kMinPasses = 3;

void measure_load(const LoadPlan& plan, double seconds, Result& res) {
  std::array<load::Report, 3> first{};
  std::array<std::uint64_t, 3> first_events{};
  std::array<HostTimes, 3> setup, run;
  HostTimes universe;  // per pass: mean time of one universe, end to end
  bool deterministic = true;
  const auto start = Clock::now();
  SpeedGauge gauge;
  for (int pass = 0; pass < kMinPasses || seconds_since(start) < seconds;
       ++pass) {
    double pass_raw = 0.0;
    double pass_scaled = 0.0;
    for (load::Substrate sub : load::all_substrates()) {
      const std::size_t i = index_of(sub);
      const auto t0 = Clock::now();
      load::Report rep;
      std::uint64_t events = 0;
      double setup_s = 0.0;
      double run_s = 0.0;
      {
        load::Runner runner(sub, plan.measured[i]);
        setup_s = seconds_since(t0);
        const std::uint64_t e0 = runner.engine().events_fired();
        const auto t1 = Clock::now();
        rep = runner.run();
        run_s = seconds_since(t1);
        events = runner.engine().events_fired() - e0;
      }
      const double whole = seconds_since(t0);
      const double scale = gauge.scale_after();
      setup[i].add(setup_s, scale);
      run[i].add(run_s, scale);
      pass_raw += whole;
      pass_scaled += whole * scale;
      if (pass == 0) {
        first[i] = rep;
        first_events[i] = events;
      } else if (rep != first[i] || events != first_events[i]) {
        deterministic = false;
      }
      const OpCount ops = ops_of(rep);
      res.ops(ops.attempted, ops.failed);
    }
    universe.raw.push_back(pass_raw / kSubstrates);
    universe.scaled.push_back(pass_scaled / kSubstrates);
  }
  res.note("passes: " + std::to_string(universe.raw.size()));
  res.check(deterministic,
            "a repeated run changed its report or engine event count");
  check_reports(plan, first, res);

  // One universe of each substrate: the set-up a pass pays.
  HostTimes setup_total{{0.0}, {0.0}};
  for (const HostTimes& t : setup) {
    setup_total.raw[0] += median(t.raw);
    setup_total.scaled[0] += median(t.scaled);
  }
  res.host_metric("setup_s", setup_total, 1.0, "s");
  for (load::Substrate sub : load::all_substrates()) {
    const std::size_t i = index_of(sub);
    res.host_metric("host_ns_per_rpc." + name_of(sub), run[i],
                    1e9 / static_cast<double>(std::max<std::int64_t>(
                              first[i].completed, 1)),
                    "ns");
  }
  res.host_metric("host_ms_per_run", universe, 1e3, "ms");
  report_peak_rss(res);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const load::Report& r : first) {
    const OpCount ops = ops_of(r);
    attempted += ops.attempted;
    failed += ops.failed;
  }
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  res.note("failed_op_ratio = " + std::to_string(failed_ratio));
  res.metric("ok_op_ratio", 1.0 - failed_ratio, "ratio");
  emit_sim_metrics(first, res);
}

// ---- traced measurement -----------------------------------------------------

struct LabelStats {
  std::uint64_t count = 0;
  std::uint64_t sum_a = 0;
  std::uint64_t sum_b = 0;
};

// Instants and span begins of one traced run, by label, plus the calls
// issued by client processes (nodes past the servers): the RPC count
// every per-RPC layer figure divides by.
struct TraceCensus {
  std::vector<LabelStats> by_label;
  std::vector<std::string> names;
  std::uint64_t client_calls = 0;

  [[nodiscard]] LabelStats of(const std::string& label) const {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == label) return by_label[i];
    }
    return {};
  }
  [[nodiscard]] std::uint64_t count(const std::string& label) const {
    return of(label).count;
  }
};

TraceCensus census_of(const trace::Recorder& rec, std::size_t servers) {
  TraceCensus c;
  c.by_label.resize(rec.label_count());
  for (std::size_t i = 0; i < rec.label_count(); ++i) {
    c.names.push_back(rec.label_name(static_cast<std::uint16_t>(i)));
  }
  for (const trace::Record& r : rec.snapshot()) {
    if (r.kind != trace::Kind::kInstant && r.kind != trace::Kind::kSpanBegin) {
      continue;
    }
    LabelStats& s = c.by_label[r.label];
    ++s.count;
    s.sum_a += r.a;
    s.sum_b += r.b;
    if (r.kind == trace::Kind::kSpanBegin && r.node >= servers &&
        c.names[r.label] == "call") {
      ++c.client_calls;
    }
  }
  return c;
}

// The layer figures of one substrate's traced run.
void emit_layers(load::Substrate sub, const load::Report& rep,
                 std::uint64_t events, const trace::Recorder& rec,
                 std::size_t servers, Result& res) {
  const std::string n = name_of(sub);
  const TraceCensus c = census_of(rec, servers);
  res.check(c.client_calls > 0, n + " traced run issued no client call");
  const double rpcs =
      static_cast<double>(std::max<std::uint64_t>(c.client_calls, 1));
  auto per_rpc = [rpcs](double v) { return v / rpcs; };

  res.metric("sim.events_per_rpc." + n, per_rpc(static_cast<double>(events)),
             "events");
  res.metric("net.frames_per_rpc." + n, rep.frames_per_op, "frames");
  // Bytes the kernels hand the medium; Chrysalis has no wire, so its
  // figure is the bytes written into dual-queue link buffers.
  const LabelStats bytes = sub == load::Substrate::kChrysalis
                               ? c.of("slot.fill")
                               : c.of("frame.tx");
  res.metric("net.bytes_per_rpc." + n, per_rpc(static_cast<double>(bytes.sum_b)),
             "B");
  if (sub == load::Substrate::kCharlotte) {
    res.metric("charlotte.retransmits_per_krpc",
               per_rpc(1e3 * static_cast<double>(c.count("msg.retransmit"))),
               "count");
  } else if (sub == load::Substrate::kSoda) {
    res.metric("soda.retransmits_per_krpc",
               per_rpc(1e3 * static_cast<double>(c.count("req.retransmit") +
                                                 c.count("accept.retransmit") +
                                                 c.count("req.retry"))),
               "count");
  }
  const std::uint64_t piggyback = sub == load::Substrate::kChrysalis
                                      ? c.count("notice.piggyback")
                                      : c.count("ack.piggyback");
  res.metric(n + ".piggyback_acks_per_rpc",
             per_rpc(static_cast<double>(piggyback)), "count");
  const LabelStats batches = c.of("batch.tx");
  res.metric("form.frames_per_batch." + n,
             batches.count == 0 ? 0.0
                                : static_cast<double>(batches.sum_a) /
                                      static_cast<double>(batches.count),
             "frames");

  const trace::PhaseTable phases(rec);
  res.metric("lynx.call_send_ms." + n, phases.mean_ms("call.send"), "sim_ms");
  res.metric("lynx.call_wait_ms." + n, phases.mean_ms("call.wait"), "sim_ms");
  res.metric("lynx.reply_send_ms." + n, phases.mean_ms("reply.send"), "sim_ms");
  res.metric("lynx.gather_scatter_ms." + n,
             phases.mean_ms("call.gather") + phases.mean_ms("call.scatter") +
                 phases.mean_ms("recv.scatter") +
                 phases.mean_ms("reply.gather"),
             "sim_ms");
  if (sub == load::Substrate::kCharlotte) {
    // The paper's screening cost: packets the Charlotte package sends
    // only because the kernel cannot refuse an unwanted message.
    res.metric("lynx.charlotte.unwanted_pkts_per_krpc",
               per_rpc(1e3 * static_cast<double>(c.count("pkt.retry") +
                                                 c.count("pkt.forbid") +
                                                 c.count("pkt.allow"))),
               "count");
  }
  res.metric("load.backlog_peak." + n, static_cast<double>(rep.backlog_peak),
             "count");
  res.metric("load.samples." + n, static_cast<double>(rep.samples), "count");
  res.metric("trace.records_per_rpc." + n,
             per_rpc(static_cast<double>(rec.total_emitted())), "records");
}

// Host ns of serialize + deserialize per message over the plan's size
// mix: each point's request and its reply, as load::Runner shapes them.
void serialize_cost(const load::Scenario& sc, double seconds, Result& res) {
  std::vector<lynx::Message> msgs;
  for (const load::SizePoint& p : sc.mix) {
    msgs.push_back(lynx::make_message(
        "load", {static_cast<std::int64_t>(p.reply_bytes),
                 lynx::Bytes(p.request_bytes, 0xab)}));
    lynx::Message reply;
    reply.args.emplace_back(lynx::Bytes(p.reply_bytes, 0xcd));
    msgs.push_back(std::move(reply));
  }
  for (const lynx::Message& m : msgs) {
    const lynx::Serialized s = lynx::serialize(m);
    const lynx::Serialized again =
        lynx::serialize(lynx::deserialize(s.body, s.enclosures));
    res.check(again.body == s.body, "serialize/deserialize round trip differs");
  }
  std::uint64_t n = 0;
  std::size_t sink = 0;
  SpeedGauge gauge;
  const auto t0 = Clock::now();
  while (n < 1000 || seconds_since(t0) < seconds) {
    for (int k = 0; k < 64; ++k, ++n) {
      const lynx::Message& m = msgs[n % msgs.size()];
      const lynx::Serialized s = lynx::serialize(m);
      sink += lynx::deserialize(s.body, s.enclosures).args.size();
    }
  }
  HostTimes elapsed;
  const double dt = seconds_since(t0);
  elapsed.add(dt, gauge.scale_after());
  res.check(sink > 0, "deserialized messages carried no arguments");
  res.host_metric("lynx.serialize_ns_per_msg", elapsed,
                  1e9 / static_cast<double>(n), "ns");
}

LoadPlan fanin_small_plan(std::uint64_t seed) {
  // Windows of about equal host cost, each giving its p99 some 20 000
  // samples or more: Charlotte and SODA run at a tenth of Chrysalis's
  // rate.  Short host items also let the speed gauge bracket them tightly.
  LoadPlan plan = make_plan(fanin_small, seed, sim::sec(10), sim::sec(4));
  plan.measured[index_of(load::Substrate::kCharlotte)].measure = sim::sec(60);
  plan.measured[index_of(load::Substrate::kSoda)].measure = sim::sec(90);
  plan.below_knee = true;
  return plan;
}

LoadPlan pipeline_bulk_plan(std::uint64_t seed) {
  return make_plan(pipeline_bulk, seed, sim::sec(80), sim::sec(20));
}

}  // namespace

LoadPlan echo_pair_plan(std::uint64_t seed) {
  return make_plan(echo_pair, seed, sim::sec(400), sim::sec(100));
}

void emit_sim_metrics(const std::array<load::Report, 3>& reps, Result& res) {
  for (load::Substrate sub : load::all_substrates()) {
    res.metric("sim_p50_ms." + name_of(sub), reps[index_of(sub)].p50_ms,
               "sim_ms");
  }
  for (load::Substrate sub : load::all_substrates()) {
    const load::Report& r = reps[index_of(sub)];
    res.metric("sim_p99_ms." + name_of(sub), r.p99_ms, "sim_ms",
               "n = " + std::to_string(r.samples));
  }
  for (load::Substrate sub : load::all_substrates()) {
    res.metric("sim_rps." + name_of(sub), reps[index_of(sub)].throughput,
               "1/sim_s");
  }
}

std::array<load::Report, 3> sim_reports(const LoadPlan& plan, Result& res) {
  std::array<load::Report, 3> out{};
  for (load::Substrate sub : load::all_substrates()) {
    const std::size_t i = index_of(sub);
    out[i] = load::run_scenario(sub, plan.measured[i]);
    res.check(load::run_scenario(sub, plan.measured[i]) == out[i],
              name_of(sub) + " report changed between two identical runs");
  }
  check_reports(plan, out, res);
  return out;
}

void trace_load(const LoadPlan& plan, double seconds, Result& res) {
  std::array<HostTimes, 3> plain, traced;  // traced: raw only
  std::array<std::uint64_t, 3> events{};
  HostTimes replay;  // per record
  std::array<std::uint64_t, 3> digest{};
  bool deterministic = true;
  const auto start = Clock::now();
  SpeedGauge gauge;
  for (int pass = 0; pass == 0 || seconds_since(start) < seconds; ++pass) {
    for (load::Substrate sub : load::all_substrates()) {
      const std::size_t i = index_of(sub);
      const load::Scenario& sc = plan.traced[i];
      const std::string n = name_of(sub);

      load::Report plain_rep;
      double plain_s = 0.0;
      {
        load::Runner runner(sub, sc);
        const std::uint64_t e0 = runner.engine().events_fired();
        const auto t0 = Clock::now();
        plain_rep = runner.run();
        plain_s = seconds_since(t0);
        events[i] = runner.engine().events_fired() - e0;
      }
      plain[i].add(plain_s, gauge.scale_after());

      load::Runner runner(sub, sc);
      trace::Recorder rec(runner.engine(), kRingPerNode);
      const std::uint64_t e0 = runner.engine().events_fired();
      const auto t0 = Clock::now();
      const load::Report traced_rep = runner.run();
      traced[i].raw.push_back(seconds_since(t0));
      const std::uint64_t traced_events = runner.engine().events_fired() - e0;
      const OpCount ops = ops_of(traced_rep);
      res.ops(ops.attempted, ops.failed);

      // Tracing must not move simulated time.
      deterministic = deterministic && traced_rep == plain_rep &&
                      traced_events == events[i] &&
                      (pass == 0 || rec.digest() == digest[i]);
      digest[i] = rec.digest();
      res.check(rec.overwritten() == 0,
                n + " trace ring overflowed: " +
                    std::to_string(rec.overwritten()) + " records lost");

      check::Expectation expect;
      expect.require_completion = false;  // the hard end cuts calls off
      expect.allowed_errors = {lynx::ErrorKind::kLinkDestroyed};
      check::ReferenceModel model(expect);
      const auto t1 = Clock::now();
      const bool conforms = model.replay(rec);
      const double replay_s = seconds_since(t1);
      replay.add(replay_s / static_cast<double>(std::max<std::uint64_t>(
                                model.records_checked(), 1)),
                 gauge.scale_after());
      if (!conforms) {
        res.fail(n + " diverges from the reference model: " +
                 (model.divergence() ? model.divergence()->render() : ""));
      }
      if (pass == 0) {
        emit_layers(sub, traced_rep, traced_events, rec, sc.servers, res);
      }
    }
  }
  res.check(deterministic,
            "traced and untraced runs of one window differ, or a repeated "
            "traced run changed its trace digest");
  double plain_total = 0.0;
  double traced_total = 0.0;
  for (load::Substrate sub : load::all_substrates()) {
    const std::size_t i = index_of(sub);
    res.host_metric("sim.host_ns_per_event." + name_of(sub), plain[i],
                    1e9 / static_cast<double>(events[i]), "ns");
    plain_total += median(plain[i].raw);
    traced_total += median(traced[i].raw);
  }
  res.metric("trace.overhead_ratio", traced_total / plain_total, "ratio");
  res.host_metric("check.replay_ns_per_record", replay, 1e9, "ns");
  serialize_cost(plan.measured[0], 0.2, res);
}

void run_load_workload(const Args& args, Result& res) {
  const bool fanin = args.workload == "fanin-small";
  const LoadPlan plan =
      fanin ? fanin_small_plan(args.seed) : pipeline_bulk_plan(args.seed);
  if (fanin) {
    overload_selfcheck(args.seed, res);
  } else {
    wedge_selfcheck(args.seed, res);
  }
  if (args.trace) {
    // Leave time for the check/sweep census after the traced passes.
    trace_load(plan, args.seconds * 0.6, res);
    check_census(args.seed, 10, res);
  } else {
    measure_load(plan, args.seconds, res);
  }
}

}  // namespace perfbench
