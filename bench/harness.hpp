// Shared infrastructure for the experiment benches.
//
// Every bench binary regenerates one of the paper's tables or figures
// (see DESIGN.md §4).  Each prints a paper-vs-measured table on stdout.
// The simulator's own wall-clock cost is measured by bench_sim (E17) and
// by perfbench, not here.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "load/universe.hpp"
#include "lynx/lynx.hpp"
#include "net/butterfly_switch.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sweep/sweep.hpp"
#include "trace/perfetto.hpp"
#include "trace/phases.hpp"
#include "trace/trace.hpp"

namespace bench {

// ---- unified entry ---------------------------------------------------------
//
// Every bench main starts with
//     bench::init(&argc, argv, "<bench-name>");
// which reads the harness's own flags:
//     --json-out=FILE    append every JSON-lines record to FILE as well
//                        as stdout
//     --trace-out=FILE   benches that support causal tracing write a
//                        Chrome-trace/Perfetto JSON of one traced run
//                        (ignored by benches that don't)
//     --seed=N           master seed for every seeded world/scenario in
//                        the bench (default 2026), so a specific run —
//                        one JSON record, one capacity curve — can be
//                        reproduced without recompiling
//     --baseline=PATH    a checked-in baseline to gate against
//                        (repeatable; ignored by benches without a gate)

inline std::FILE*& json_file() {
  static std::FILE* f = nullptr;
  return f;
}
inline std::string& bench_name() {
  static std::string name;
  return name;
}
inline std::string& trace_out_path() {
  static std::string path;
  return path;
}
inline std::uint64_t& seed() {
  static std::uint64_t s = 2026;
  return s;
}
inline std::vector<std::string>& baseline_paths() {
  static std::vector<std::string> paths;
  return paths;
}

inline void init(int* argc, char** argv, const char* name) {
  bench_name() = name;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    const std::string json_flag = "--json-out=";
    const std::string trace_flag = "--trace-out=";
    const std::string seed_flag = "--seed=";
    const std::string baseline_flag = "--baseline=";
    if (arg.rfind(json_flag, 0) == 0) {
      const std::string path = arg.substr(json_flag.size());
      json_file() = std::fopen(path.c_str(), "w");
      if (json_file() == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
      }
    } else if (arg.rfind(trace_flag, 0) == 0) {
      trace_out_path() = arg.substr(trace_flag.size());
    } else if (arg.rfind(seed_flag, 0) == 0) {
      seed() = std::strtoull(arg.substr(seed_flag.size()).c_str(), nullptr, 10);
    } else if (arg.rfind(baseline_flag, 0) == 0) {
      baseline_paths().push_back(arg.substr(baseline_flag.size()));
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  std::atexit([] {
    if (json_file() != nullptr) {
      std::fclose(json_file());
      json_file() = nullptr;
    }
  });
}

// ---- baseline gates --------------------------------------------------------
//
// A checked-in baseline (bench/baselines/) is one flat JSON object.  Its
// fields are read with the same hand-rolled idiom as the explorer's
// repro-token parsing: find the quoted key, skip the colon, read the
// value.
struct Baseline {
  std::string path;
  std::string text;

  // One numeric field; NaN if absent.
  [[nodiscard]] double number_field(const std::string& key) const {
    const std::size_t p = value_at(key);
    if (p == std::string::npos) return std::nan("");
    return std::strtod(text.c_str() + p, nullptr);
  }
  // One string field; "" if absent or not a quoted string.
  [[nodiscard]] std::string string_field(const std::string& key) const {
    std::size_t p = value_at(key);
    if (p == std::string::npos) return "";
    p = text.find('"', p);
    if (p == std::string::npos) return "";
    const std::size_t end = text.find('"', p + 1);
    if (end == std::string::npos) return "";
    return text.substr(p + 1, end - p - 1);
  }

 private:
  // Offset just past the colon that follows `key`, or npos.
  [[nodiscard]] std::size_t value_at(const std::string& key) const {
    const std::string needle = "\"" + key + "\"";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return std::string::npos;
    const std::size_t p = text.find(':', at + needle.size());
    return p == std::string::npos ? p : p + 1;
  }
};

// Reads one baseline file.  On failure prints "<gate>: cannot read
// <path>" to stderr and returns nothing.
inline std::optional<Baseline> read_baseline(const std::string& path,
                                             const char* gate) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read %s\n", gate, path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return Baseline{path, buf.str()};
}

// ---- the client/server pair every RPC experiment measures ------------------

// Each substrate's pair at its historical size: a 4-node Charlotte
// cluster, a 6-node SODA bus seeded by --seed, and the default 16-node
// Butterfly.
inline load::UniverseSpec pair_spec(load::Substrate substrate) {
  load::UniverseSpec spec;
  spec.substrate = substrate;
  switch (substrate) {
    case load::Substrate::kCharlotte:
      spec.nodes = 4;
      break;
    case load::Substrate::kSoda:
      spec.nodes = 6;
      spec.seed = seed();
      break;
    case load::Substrate::kChrysalis:
      spec.nodes = net::ButterflyParams{}.nodes;
      break;
  }
  return spec;
}

// Server on node 0, client on node 1, and one link between them, wired
// before the constructor returns.
struct Pair {
  explicit Pair(load::Substrate substrate) : Pair(pair_spec(substrate)) {}
  explicit Pair(const load::UniverseSpec& spec)
      : universe(engine, spec),
        server(universe.spawn("server", 0)),
        client(universe.spawn("client", 1)) {
    engine.spawn("wire", wire(this));
    engine.run();
  }
  static sim::Task<> wire(Pair* p) {
    auto [se, ce] = co_await p->universe.connect(p->server, p->client);
    p->server_end = se;
    p->client_end = ce;
  }

  sim::Engine engine;
  load::Universe universe;
  lynx::Process& server;
  lynx::Process& client;
  lynx::LinkHandle server_end;
  lynx::LinkHandle client_end;
};

// ---- the standard workload: N echo RPCs with a given payload ---------------

inline sim::Task<> echo_server(lynx::ThreadCtx& ctx, lynx::LinkHandle link,
                               int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    try {
      lynx::Incoming in = co_await ctx.receive();
      lynx::Message rep;
      rep.args = in.msg.args;
      co_await ctx.reply(in, std::move(rep));
    } catch (const lynx::LynxError& e) {
      // The client finished and hung up; under loss its teardown can
      // race our last reply's delivery ack.  End of service, not error.
      if (e.kind() == lynx::ErrorKind::kLinkDestroyed) break;
      throw;
    }
  }
}

inline sim::Task<> echo_client(lynx::ThreadCtx& ctx, lynx::LinkHandle link,
                               int n, std::size_t bytes, sim::Time* t0,
                               sim::Time* t1, sim::Engine* engine) {
  {  // warm-up op excluded from timing
    lynx::Message m = lynx::make_message("op", {lynx::Bytes(1, 0)});
    (void)co_await ctx.call(link, std::move(m));
  }
  *t0 = engine->now();
  for (int i = 0; i < n; ++i) {
    lynx::Message m = lynx::make_message("op", {lynx::Bytes(bytes, 0)});
    (void)co_await ctx.call(link, std::move(m));
  }
  *t1 = engine->now();
}

// Runs N echo RPCs on a pair; returns mean simulated ms per operation.
inline double lynx_rpc_ms(Pair& w, std::size_t bytes, int reps = 10) {
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("srv", [&](lynx::ThreadCtx& ctx) {
    return echo_server(ctx, w.server_end, reps + 1);
  });
  w.client.spawn_thread("cli", [&](lynx::ThreadCtx& ctx) {
    return echo_client(ctx, w.client_end, reps, bytes, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT_MSG(w.engine.process_failures().empty(),
                    "bench workload failed");
  return sim::to_msec(t1 - t0) / reps;
}

// ---- machine-readable output ----------------------------------------------

// One JSON object per line ("JSON lines"): benches emit a record per
// measured configuration so curves can be re-plotted without parsing
// the human tables.  Records go to stdout and, under --json-out=FILE,
// to that file too.
class JsonLine {
 public:
  JsonLine& field(const std::string& key, const std::string& value) {
    sep();
    buf_ += '"' + key + "\":\"" + value + '"';
    return *this;
  }
  JsonLine& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonLine& field(const std::string& key, double value) {
    char num[64];
    std::snprintf(num, sizeof num, "%.6g", value);
    sep();
    buf_ += '"' + key + "\":" + num;
    return *this;
  }
  JsonLine& field(const std::string& key, std::int64_t value) {
    sep();
    buf_ += '"' + key + "\":" + std::to_string(value);
    return *this;
  }
  void emit() {
    std::printf("%s}\n", buf_.c_str());
    if (json_file() != nullptr) {
      std::fprintf(json_file(), "%s}\n", buf_.c_str());
    }
  }

 private:
  void sep() {
    if (buf_.size() > 1) buf_ += ',';
  }
  std::string buf_ = "{";
};

// A JsonLine pre-tagged with the bench name given to init().
inline JsonLine json() {
  JsonLine j;
  if (!bench_name().empty()) j.field("bench", bench_name());
  return j;
}

// ---- traced runs -----------------------------------------------------------

// Runs the echo workload once with a live trace recorder and prints the
// per-phase RPC decomposition derived from the spans.  Under
// --trace-out=FILE the run is also exported as Chrome-trace/Perfetto
// JSON.  Coverage compares the mean "call" span against the measured
// per-op end-to-end latency (the warm-up op is traced but untimed, so
// the comparison is per-op, not total).
inline void traced_phase_report(Pair& w, const char* title,
                                std::size_t bytes = 0, int reps = 10) {
  trace::Recorder rec(w.engine, 1u << 18);
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("srv", [&](lynx::ThreadCtx& ctx) {
    return echo_server(ctx, w.server_end, reps + 1);
  });
  w.client.spawn_thread("cli", [&](lynx::ThreadCtx& ctx) {
    return echo_client(ctx, w.client_end, reps, bytes, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT_MSG(w.engine.process_failures().empty(),
                    "traced workload failed");

  std::printf("\n--- %s: per-phase decomposition (from trace spans) ---\n",
              title);
  trace::PhaseTable table(rec);
  table.print();

  const double e2e_ms = sim::to_msec(t1 - t0) / reps;
  const double span_ms = table.mean_ms("call");
  const double coverage = e2e_ms > 0 ? 100.0 * span_ms / e2e_ms : 0.0;
  std::printf("  \"call\" spans cover %.1f%% of measured end-to-end latency"
              " (%.3f / %.3f ms per op)\n",
              coverage, span_ms, e2e_ms);
  json()
      .field("phase_span_ms", span_ms)
      .field("e2e_ms", e2e_ms)
      .field("span_coverage_pct", coverage)
      .emit();
  if (!trace_out_path().empty()) {
    if (trace::write_chrome_trace_file(rec, trace_out_path())) {
      std::printf("  trace written to %s (load in ui.perfetto.dev)\n",
                  trace_out_path().c_str());
    } else {
      std::fprintf(stderr, "  cannot write %s\n", trace_out_path().c_str());
    }
  }
}

// ---- table printing ----------------------------------------------------------

inline void table_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

struct Row {
  std::string label;
  double paper;
  double measured;
  std::string unit;
};


inline void print_note(const std::string& s) {
  std::printf("  %s\n", s.c_str());
}

// Human table plus one JSON-lines record per row.
inline void print_rows(const std::vector<Row>& rows) {
  std::printf("%-44s %12s %12s  %s\n", "quantity", "paper", "measured",
              "unit");
  for (const Row& r : rows) {
    std::printf("%-44s %12.2f %12.2f  %s\n", r.label.c_str(), r.paper,
                r.measured, r.unit.c_str());
  }
  for (const Row& r : rows) {
    json()
        .field("label", r.label)
        .field("paper", r.paper)
        .field("measured", r.measured)
        .field("unit", r.unit)
        .emit();
  }
}

}  // namespace bench
