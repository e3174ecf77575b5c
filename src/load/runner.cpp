#include "load/runner.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/assert.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace load {
namespace {

// One scheduled open-loop request, queued client-side until a sender
// channel is free.  scheduled < 0 is the shutdown sentinel.
struct OpenArrival {
  sim::Time scheduled = -1;
  std::uint32_t size_idx = 0;
};

// Weighted draw from the size mix; a single-point mix consumes no
// randomness so deterministic scenarios stay byte-stable when the mix
// is trivial.
[[nodiscard]] std::uint32_t draw_size(const Scenario& sc, sim::Rng& rng) {
  if (sc.mix.size() <= 1) return 0;
  double total = 0.0;
  for (const auto& m : sc.mix) total += m.weight;
  double x = rng.next_double() * total;
  for (std::uint32_t i = 0; i < sc.mix.size(); ++i) {
    x -= sc.mix[i].weight;
    if (x < 0.0) return i;
  }
  return static_cast<std::uint32_t>(sc.mix.size() - 1);
}

[[nodiscard]] lynx::Message make_request(const SizePoint& sz) {
  return lynx::make_message(
      "load", {static_cast<std::int64_t>(sz.reply_bytes),
               lynx::Bytes(sz.request_bytes, 0xab)});
}

}  // namespace

struct Runner::Impl {
  Impl(Substrate substrate, Scenario scenario);

  Scenario sc;
  sim::Engine engine;
  Universe universe;  // declared after engine: shuts it down first
  // Node layout: servers (or pipeline stages) occupy nodes 0..M-1,
  // clients M..M+N-1.
  std::vector<lynx::Process*> servers;
  std::vector<lynx::Process*> clients;
  // Link ends, filled by the wiring coroutine during construction.
  std::vector<std::vector<lynx::LinkHandle>> server_inbound;
  std::vector<std::vector<lynx::LinkHandle>> client_channels;
  // Pipeline only: stage s's calling ends toward stage s+1, one per
  // worker thread; empty for the last stage and for fan-in.
  std::vector<std::vector<lynx::LinkHandle>> forward_links;

  struct Window {
    sim::Time start = 0;
    sim::Time meas_start = 0;
    sim::Time meas_end = 0;
    sim::Time hard_end = 0;
    sim::Time stall_at = 0;
  } win;

  sim::Histogram latency_ms;
  std::int64_t scheduled = 0;   // in-window arrivals
  std::int64_t completed = 0;   // in-window completions
  std::int64_t dropped = 0;     // in-window cap sheds
  std::int64_t op_errors = 0;   // in-window LynxError outcomes
  std::int64_t in_flight = 0;   // scheduled-but-unfinished, any window
  std::int64_t backlog_start = 0;
  std::int64_t backlog_end = 0;
  std::int64_t backlog_peak = 0;
  std::uint64_t wire_ops_start = 0;  // Universe::wire_ops at the window edges
  std::uint64_t wire_ops_end = 0;
  bool capped = false;
  bool stall_done = false;
  bool ran = false;

  struct ClientState {
    std::unique_ptr<sim::Mailbox<OpenArrival>> box;  // open loop only
    sim::Rng rng{0};                                 // dispatcher stream
  };
  std::vector<ClientState> cstate;

  [[nodiscard]] bool in_window(sim::Time t) const {
    return t >= win.meas_start && t < win.meas_end;
  }
  void arrive(sim::Time t) {
    if (in_window(t)) ++scheduled;
    ++in_flight;
    backlog_peak = std::max(backlog_peak, in_flight);
  }
  void drop(sim::Time t) {
    capped = true;
    if (in_window(t)) ++dropped;
  }
  void complete(sim::Time t_sched, sim::Time t_done) {
    --in_flight;
    if (in_window(t_sched)) {
      ++completed;
      latency_ms.add(sim::to_msec(t_done - t_sched));
    }
  }
  void note_error(sim::Time t_sched) {
    --in_flight;
    if (in_window(t_sched)) ++op_errors;
  }
};

namespace {

UniverseSpec spec_of(Substrate substrate, const Scenario& sc) {
  UniverseSpec spec;
  spec.substrate = substrate;
  spec.nodes = sc.servers + sc.clients;
  spec.seed = sc.seed ^ 0x50da50daULL;
  spec.with_formation(sc.form_delay);
  // Each LYNX link end parks one standing status signal at its peer
  // (SodaBackend::post_signal), so a client pipelining across N channels
  // holds N signal slots PLUS up to N data requests against the §4.2.1
  // per-pair admission budget — at N == the default budget of 8 the
  // signals alone fill it and every data request bounces with
  // kTooManyRequests forever.  Scale the budget with the wiring so
  // deep-pipeline scenarios saturate on the wire, not on the admission
  // limit.
  spec.soda.max_outstanding_per_pair =
      std::max(spec.soda.max_outstanding_per_pair,
               static_cast<int>(2 * sc.channels_per_client + 2));
  return spec;
}

// Fan-in wires every channel of client i to server i mod M; a pipeline
// wires its clients to stage 0 and additionally `server_threads` forward
// links from each stage to the next, one per worker thread, so
// concurrent forwards never serialize on a link's one-outstanding-call
// rule.
sim::Task<> wire(Runner::Impl* st) {
  const Scenario& sc = st->sc;
  for (std::size_t i = 0; i < sc.clients; ++i) {
    const std::size_t target =
        sc.topology == Topology::kFanIn ? i % sc.servers : 0;
    for (std::size_t c = 0; c < sc.channels_per_client; ++c) {
      auto [srv_end, cli_end] = co_await st->universe.connect(
          *st->servers[target], *st->clients[i]);
      st->server_inbound[target].push_back(srv_end);
      st->client_channels[i].push_back(cli_end);
    }
  }
  if (sc.topology == Topology::kPipeline) {
    for (std::size_t s = 0; s + 1 < sc.servers; ++s) {
      for (std::size_t w = 0; w < sc.server_threads; ++w) {
        auto [next_end, stage_end] = co_await st->universe.connect(
            *st->servers[s + 1], *st->servers[s]);
        st->server_inbound[s + 1].push_back(next_end);
        st->forward_links[s].push_back(stage_end);
      }
    }
  }
}

}  // namespace

Runner::Impl::Impl(Substrate substrate, Scenario scenario)
    : sc(std::move(scenario)), universe(engine, spec_of(substrate, sc)) {
  RELYNX_ASSERT(sc.servers >= 1 && sc.clients >= 1);
  RELYNX_ASSERT(sc.channels_per_client >= 1 && sc.server_threads >= 1);
  for (std::size_t s = 0; s < sc.servers; ++s) {
    servers.push_back(&universe.spawn("server" + std::to_string(s), s));
  }
  for (std::size_t i = 0; i < sc.clients; ++i) {
    clients.push_back(
        &universe.spawn("client" + std::to_string(i), sc.servers + i));
  }
  server_inbound.resize(sc.servers);
  client_channels.resize(sc.clients);
  forward_links.resize(sc.servers);
  engine.spawn("wire", wire(this));
  engine.run();  // only bootstrap traffic exists yet
  for (const auto& channels : client_channels) {
    RELYNX_ASSERT_MSG(channels.size() == sc.channels_per_client,
                      "bootstrap wiring incomplete");
  }
}

namespace {

// Server worker: serve requests forever; the Runner cuts the run off at
// the hard end, and link teardown surfaces here as LynxError.  Requests
// carry [reply_bytes, payload]; a pipeline stage with a forward link
// relays the request downstream and unwinds the downstream reply.
sim::Task<> server_worker(lynx::ThreadCtx& ctx, Runner::Impl* st,
                          std::size_t server_idx,
                          std::vector<lynx::LinkHandle> inbound,
                          lynx::LinkHandle forward) {
  for (lynx::LinkHandle l : inbound) ctx.enable_requests(l);
  for (;;) {
    try {
      lynx::Incoming in = co_await ctx.receive();
      if (server_idx == 0 && !st->stall_done && st->sc.stall_for > 0 &&
          ctx.engine().now() >= st->win.stall_at) {
        st->stall_done = true;  // one-shot fault, front stage only
        co_await ctx.delay(st->sc.stall_for);
      }
      lynx::Message reply;
      if (forward.valid()) {
        lynx::Message fwd = in.msg;
        reply = co_await ctx.call(forward, std::move(fwd));
      } else {
        const auto reply_bytes = static_cast<std::size_t>(
            std::get<std::int64_t>(in.msg.args.at(0)));
        reply.args.emplace_back(lynx::Bytes(reply_bytes, 0xcd));
      }
      co_await ctx.reply(in, std::move(reply));
    } catch (const lynx::LynxError&) {
      co_return;
    }
  }
}

// Closed-loop generator: one thread per channel, latency measured from
// the moment the call is issued — the generator slows down with the
// server, which is exactly the coordinated omission the open loop
// corrects for.
sim::Task<> closed_client(lynx::ThreadCtx& ctx, Runner::Impl* st,
                          lynx::LinkHandle link, sim::Rng rng) {
  while (ctx.engine().now() < st->win.meas_end) {
    const sim::Time t0 = ctx.engine().now();
    const SizePoint sz = st->sc.mix[draw_size(st->sc, rng)];
    st->arrive(t0);
    try {
      (void)co_await ctx.call(link, make_request(sz));
      st->complete(t0, ctx.engine().now());
    } catch (const lynx::LynxError&) {
      st->note_error(t0);
      co_return;
    }
    if (st->sc.think > 0) co_await ctx.delay(st->sc.think);
  }
}

// Open-loop arrival process, one per client, spawned directly on the
// engine: it only sleeps and enqueues, so slow replies can never
// back-pressure it.  Arrivals past the client's backlog cap are shed
// (and the run marked capped) rather than silently deferred.
sim::Task<> open_dispatcher(sim::Engine* eng, Runner::Impl* st,
                            std::size_t client_idx) {
  auto& cs = st->cstate[client_idx];
  const double per_client =
      st->sc.offered_rate / static_cast<double>(st->sc.clients);
  RELYNX_ASSERT(per_client > 0.0);
  const double mean_gap_ns = 1e9 / per_client;
  sim::Time next = st->win.start;
  for (;;) {
    const double gap = st->sc.arrival == Arrival::kOpenDeterministic
                           ? mean_gap_ns
                           : cs.rng.next_exponential(mean_gap_ns);
    next += std::max<sim::Time>(1, static_cast<sim::Time>(gap));
    if (next >= st->win.meas_end) break;
    co_await eng->sleep(next - eng->now());
    const std::uint32_t idx = draw_size(st->sc, cs.rng);
    if (st->sc.max_backlog_per_client != 0 &&
        cs.box->size() >= st->sc.max_backlog_per_client) {
      st->drop(next);
      continue;
    }
    st->arrive(next);
    cs.box->put(OpenArrival{next, idx});
  }
  for (std::size_t c = 0; c < st->sc.channels_per_client; ++c) {
    cs.box->put(OpenArrival{-1, 0});  // one sentinel per sender
  }
}

// Open-loop sender: drains the client's arrival queue over one channel.
// Latency runs from the scheduled arrival, so time spent waiting in the
// queue — the time a coordinated generator would omit — is charged.
sim::Task<> open_sender(lynx::ThreadCtx& ctx, Runner::Impl* st,
                        std::size_t client_idx, lynx::LinkHandle link) {
  auto& cs = st->cstate[client_idx];
  for (;;) {
    OpenArrival a = co_await cs.box->get();
    if (a.scheduled < 0) co_return;
    const SizePoint sz = st->sc.mix[a.size_idx];
    try {
      (void)co_await ctx.call(link, make_request(sz));
      st->complete(a.scheduled, ctx.engine().now());
    } catch (const lynx::LynxError&) {
      st->note_error(a.scheduled);
      co_return;
    }
  }
}

}  // namespace

Runner::Runner(Substrate substrate, Scenario scenario)
    : impl_(std::make_unique<Impl>(substrate, std::move(scenario))) {
  RELYNX_ASSERT(!impl_->sc.mix.empty());
  RELYNX_ASSERT(impl_->sc.measure > 0);
}

Runner::~Runner() = default;

sim::Engine& Runner::engine() { return impl_->engine; }

Report Runner::run() {
  auto& st = *impl_;
  RELYNX_ASSERT_MSG(!st.ran, "Runner::run is single-shot");
  st.ran = true;
  auto& eng = st.engine;

  const sim::Time t0 = eng.now();
  st.win.start = t0;
  st.win.meas_start = t0 + st.sc.warmup;
  st.win.meas_end = st.win.meas_start + st.sc.measure;
  st.win.hard_end = st.win.meas_end + st.sc.drain;
  st.win.stall_at = t0 + st.sc.stall_at;

  eng.schedule_at(st.win.meas_start, [&st] {
    st.backlog_start = st.in_flight;
    st.wire_ops_start = st.universe.wire_ops();
  });
  eng.schedule_at(st.win.meas_end, [&st] {
    st.backlog_end = st.in_flight;
    st.wire_ops_end = st.universe.wire_ops();
  });

  for (std::size_t s = 0; s < st.servers.size(); ++s) {
    const auto& fwd = st.forward_links[s];
    for (std::size_t w = 0; w < st.sc.server_threads; ++w) {
      const lynx::LinkHandle f =
          w < fwd.size() ? fwd[w] : lynx::LinkHandle();
      st.servers[s]->spawn_thread(
          "worker" + std::to_string(w), [&st, s, f](lynx::ThreadCtx& ctx) {
            return server_worker(ctx, &st, s, st.server_inbound[s], f);
          });
    }
  }

  // Per-client streams are forked from the master seed in index order,
  // so the whole run is a pure function of (substrate, scenario).
  sim::Rng master(st.sc.seed);
  st.cstate.resize(st.sc.clients);
  for (std::size_t i = 0; i < st.sc.clients; ++i) {
    auto& cs = st.cstate[i];
    const auto& channels = st.client_channels[i];
    if (st.sc.arrival == Arrival::kClosed) {
      for (lynx::LinkHandle ch : channels) {
        const sim::Rng rng = master.fork();
        st.clients[i]->spawn_thread(
            "gen", [&st, ch, rng](lynx::ThreadCtx& ctx) {
              return closed_client(ctx, &st, ch, rng);
            });
      }
    } else {
      cs.rng = master.fork();
      cs.box = std::make_unique<sim::Mailbox<OpenArrival>>(eng);
      for (lynx::LinkHandle ch : channels) {
        st.clients[i]->spawn_thread(
            "send", [&st, i, ch](lynx::ThreadCtx& ctx) {
              return open_sender(ctx, &st, i, ch);
            });
      }
      eng.spawn("dispatch", open_dispatcher(&eng, &st, i));
    }
  }

  (void)eng.run_until(st.win.hard_end);

  Report r;
  r.backend = to_string(st.universe.substrate());
  r.scenario = st.sc.name;
  r.offered_rate =
      st.sc.arrival == Arrival::kClosed ? 0.0 : st.sc.offered_rate;
  r.scheduled = st.scheduled;
  r.completed = st.completed;
  r.dropped = st.dropped;
  std::int64_t failures =
      static_cast<std::int64_t>(eng.process_failures().size());
  for (const lynx::Process* p : st.universe.processes()) {
    failures += static_cast<std::int64_t>(p->thread_failures().size());
  }
  r.errors = st.op_errors + failures;
  r.samples = st.latency_ms.summary().count();
  r.throughput = static_cast<double>(st.completed) /
                 (static_cast<double>(st.sc.measure) / 1e9);
  r.mean_ms = st.latency_ms.summary().mean();
  r.p50_ms = st.latency_ms.quantile(0.5);
  r.p99_ms = st.latency_ms.quantile(0.99);
  r.max_ms = st.latency_ms.summary().max();
  r.backlog_start = st.backlog_start;
  r.backlog_end = st.backlog_end;
  r.backlog_peak = st.backlog_peak;
  r.backlog_capped = st.capped;
  r.sim_end_ms = sim::to_msec(eng.now());
  r.wire_ops = static_cast<std::int64_t>(st.wire_ops_end - st.wire_ops_start);
  r.frames_per_op = st.completed > 0 ? static_cast<double>(r.wire_ops) /
                                           static_cast<double>(st.completed)
                                     : 0.0;
  return r;
}

Report run_scenario(Substrate substrate, Scenario scenario) {
  Runner runner(substrate, std::move(scenario));
  return runner.run();
}

}  // namespace load
