// A reconfigurable processing pipeline over SODA.
//
// LYNX's selling point (paper §2): "LYNX extends the advantages of
// high-level communication facilities to processes designed in
// isolation" — processes can be rewired at run time by moving link
// ends.  Here a coordinator builds a 3-stage pipeline by creating links
// and shipping their ends to independently-written stage processes,
// pushes work through, then REVERSES the pipeline order at run time by
// moving the same ends again.
//
// The run is recorded: each pushed item gets one TraceId, every stage
// joins the item's causal chain via ThreadCtx::set_trace_context before
// forwarding, and at the end the example prints job0's chain — one
// message followed across all four processes, hop by hop, down to the
// wire frames.
#include <cstdio>
#include <string>

#include "lynx/lynx.hpp"
#include "net/csma_bus.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace {

using lynx::Incoming;
using lynx::LinkHandle;
using lynx::Message;
using lynx::ThreadCtx;

// A stage transforms a string and forwards it downstream.  It learns its
// input and output links at run time via "configure" operations on the
// control link, processes until "drain", and then can be reconfigured.
sim::Task<> stage(ThreadCtx& ctx, LinkHandle control, std::string tag,
                  int rounds_per_config, int configs) {
  ctx.enable_requests(control);
  for (int cfg = 0; cfg < configs; ++cfg) {
    Incoming conf = co_await ctx.receive();
    RELYNX_ASSERT(conf.msg.op == "configure");
    LinkHandle in_link = std::get<LinkHandle>(conf.msg.args.at(0));
    LinkHandle out_link = std::get<LinkHandle>(conf.msg.args.at(1));
    Message ok;
    co_await ctx.reply(conf, std::move(ok));

    ctx.enable_requests(in_link);
    for (int i = 0; i < rounds_per_config; ++i) {
      Incoming item = co_await ctx.receive();
      std::string payload = std::get<std::string>(item.msg.args.at(0));
      Message ack;
      co_await ctx.reply(item, std::move(ack));
      payload += ">" + tag;
      Message fwd = lynx::make_message("item", {payload});
      // Join the item's causal chain so the forwarding call — and its
      // wire frames — carry the same TraceId the coordinator minted.
      ctx.set_trace_context(item.trace);
      (void)co_await ctx.call(out_link, std::move(fwd));
      ctx.set_trace_context(0);
    }
    ctx.disable_requests(in_link);
    // hand the stage links back to the coordinator for rewiring
    Message give = lynx::make_message("links", {in_link, out_link});
    (void)co_await ctx.call(control, std::move(give));
  }
}

struct Coordinator {
  ThreadCtx* ctx = nullptr;
  std::vector<LinkHandle> controls;  // to each stage
};

sim::Task<> coordinator(ThreadCtx& ctx, std::vector<LinkHandle> controls,
                        int rounds, std::uint64_t* job0_chain) {
  const int n = static_cast<int>(controls.size());
  // Build the forward pipeline: source -> s0 -> s1 -> s2 -> sink.
  // The coordinator is both source and sink.
  for (int config = 0; config < 2; ++config) {
    // links between coordinator/stages: n+1 links
    std::vector<lynx::LocalLinkPair> hops;
    for (int i = 0; i <= n; ++i) hops.push_back(co_await ctx.new_link());

    // stage order: forward on config 0, reversed on config 1
    for (int slot = 0; slot < n; ++slot) {
      const int stage_idx = (config == 0) ? slot : (n - 1 - slot);
      Message conf = lynx::make_message(
          "configure", {hops[static_cast<std::size_t>(slot)].end2,
                        hops[static_cast<std::size_t>(slot) + 1].end1});
      (void)co_await ctx.call(controls[static_cast<std::size_t>(stage_idx)],
                              std::move(conf));
    }

    // push items in at hop 0, collect at hop n
    LinkHandle source = hops[0].end1;
    LinkHandle sink = hops[static_cast<std::size_t>(n)].end2;
    ctx.enable_requests(sink);
    for (int i = 0; i < rounds; ++i) {
      Message item = lynx::make_message(
          "item", {std::string("job") + std::to_string(i)});
      // One TraceId per pushed item; stages propagate it downstream.
      std::uint64_t chain = 0;
      if (auto* rec = trace::get(ctx.engine())) chain = rec->new_trace();
      if (config == 0 && i == 0) *job0_chain = chain;
      ctx.set_trace_context(chain);
      (void)co_await ctx.call(source, std::move(item));
      ctx.set_trace_context(0);
      Incoming out = co_await ctx.receive();
      std::printf("[%9.1f ms] config %d delivered: %s\n",
                  sim::to_msec(ctx.engine().now()), config,
                  std::get<std::string>(out.msg.args.at(0)).c_str());
      Message ack;
      co_await ctx.reply(out, std::move(ack));
    }
    ctx.disable_requests(sink);

    // collect the stage ends back (each stage returns its two ends)
    for (int slot = 0; slot < n; ++slot) {
      const int stage_idx = (config == 0) ? slot : (n - 1 - slot);
      ctx.enable_requests(controls[static_cast<std::size_t>(stage_idx)]);
      Incoming links = co_await ctx.receive();
      Message ok;
      co_await ctx.reply(links, std::move(ok));
      ctx.disable_requests(controls[static_cast<std::size_t>(stage_idx)]);
    }
    co_await ctx.destroy(source);
    co_await ctx.destroy(sink);
  }
}

}  // namespace

int main() {
  sim::Engine engine;
  trace::Recorder recorder(engine);
  lynx::SodaDirectory directory;
  net::CsmaBus bus(engine, sim::Rng(7), {.broadcast_drop_prob = 0.0});
  soda::Network network(engine, 8, bus);

  lynx::Process coord(
      engine, "coord",
      std::make_unique<lynx::SodaBackend>(network, directory, net::NodeId(0)),
      lynx::pdp11_runtime_costs());
  std::vector<std::unique_ptr<lynx::Process>> stages;
  const char* tags[3] = {"parse", "transform", "render"};
  for (int i = 0; i < 3; ++i) {
    stages.push_back(std::make_unique<lynx::Process>(
        engine, tags[i],
        std::make_unique<lynx::SodaBackend>(
            network, directory, net::NodeId(static_cast<std::uint32_t>(i) + 1)),
        lynx::pdp11_runtime_costs()));
  }
  coord.start();
  for (auto& s : stages) s->start();

  std::vector<LinkHandle> controls(3);
  std::vector<LinkHandle> stage_controls(3);
  engine.spawn("wire", [](lynx::Process* c,
                          std::vector<std::unique_ptr<lynx::Process>>* ss,
                          std::vector<LinkHandle>* cc,
                          std::vector<LinkHandle>* sc) -> sim::Task<> {
    for (std::size_t i = 0; i < ss->size(); ++i) {
      auto [a, b] = co_await lynx::SodaBackend::connect(*c, *(*ss)[i]);
      (*cc)[i] = a;
      (*sc)[i] = b;
    }
  }(&coord, &stages, &controls, &stage_controls));
  engine.run();

  for (int i = 0; i < 3; ++i) {
    stages[static_cast<std::size_t>(i)]->spawn_thread(
        "stage", [&, i](ThreadCtx& ctx) {
          return stage(ctx, stage_controls[static_cast<std::size_t>(i)],
                       tags[i], 3, 2);
        });
  }
  std::uint64_t job0_chain = 0;
  coord.spawn_thread("coordinator", [&](ThreadCtx& ctx) {
    return coordinator(ctx, controls, 3, &job0_chain);
  });
  engine.run();

  std::printf("\npipeline ran two configurations (forward and reversed) in "
              "%.1f simulated ms\n",
              sim::to_msec(engine.now()));

  // Follow job0 across the three stage processes and back: every record
  // below carries the single TraceId minted when the item was pushed.
  std::printf("\ncausal chain of job0 (trace %llu):\n",
              static_cast<unsigned long long>(job0_chain));
  for (const trace::Record& r : recorder.snapshot()) {
    const bool labelled = r.kind == trace::Kind::kSpanBegin ||
                          r.kind == trace::Kind::kInstant;
    if (!labelled || r.trace != job0_chain) continue;
    std::printf("  [%9.3f ms] node %u  %-8s %s\n", sim::to_msec(r.at),
                r.node, recorder.track_name(r.track).c_str(),
                recorder.label_name(r.label).c_str());
  }
  bool clean = coord.thread_failures().empty();
  for (const auto& st : stages) clean = clean && st->thread_failures().empty();
  return clean ? 0 : 1;
}
