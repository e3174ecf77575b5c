// Quickstart: two LYNX processes exchanging remote operations over the
// simulated Chrysalis substrate (BBN Butterfly).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --trace-out=FILE to record the run and export it in Chrome
// trace-event format — open the file at https://ui.perfetto.dev to see
// every operation decomposed into gather / send / wait / scatter spans.
//
// The structure mirrors a minimal LYNX program: a server process with an
// open request queue serving "add" operations, and a client process
// connecting to it.  Swap the backend construction (and the connect
// call) to run the same program on Charlotte or SODA.
#include <cstdio>
#include <string>

#include "lynx/lynx.hpp"
#include "sim/engine.hpp"
#include "trace/perfetto.hpp"
#include "trace/trace.hpp"

namespace {

using lynx::Incoming;
using lynx::LinkHandle;
using lynx::Message;
using lynx::ThreadCtx;

// The server thread: open the request queue, serve five "add"
// operations, reply with the sum.
sim::Task<> server_thread(ThreadCtx& ctx, LinkHandle link) {
  ctx.enable_requests(link);
  for (int i = 0; i < 5; ++i) {
    Incoming in = co_await ctx.receive();
    const auto a = std::get<std::int64_t>(in.msg.args.at(0));
    const auto b = std::get<std::int64_t>(in.msg.args.at(1));
    std::printf("[%8.3f ms] server: %s(%lld, %lld)\n",
                sim::to_msec(ctx.engine().now()), in.msg.op.c_str(),
                static_cast<long long>(a), static_cast<long long>(b));
    Message reply;
    reply.args.emplace_back(a + b);
    co_await ctx.reply(in, std::move(reply));
  }
}

// The client thread: five remote "add" calls.
sim::Task<> client_thread(ThreadCtx& ctx, LinkHandle link) {
  for (std::int64_t i = 0; i < 5; ++i) {
    Message request = lynx::make_message("add", {i, i * 10});
    Message reply = co_await ctx.call(link, std::move(request));
    std::printf("[%8.3f ms] client: add(%lld, %lld) = %lld\n",
                sim::to_msec(ctx.engine().now()), static_cast<long long>(i),
                static_cast<long long>(i * 10),
                static_cast<long long>(std::get<std::int64_t>(reply.args.at(0))));
  }
}

sim::Task<> wire(lynx::Process* s, lynx::Process* c, LinkHandle* se,
                 LinkHandle* ce) {
  auto [a, b] = co_await lynx::ChrysalisBackend::connect(*s, *c);
  *se = a;
  *ce = b;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string flag = "--trace-out=";
    if (arg.rfind(flag, 0) == 0) trace_out = arg.substr(flag.size());
  }

  sim::Engine engine;
  trace::Recorder recorder(engine);
  chrysalis::Kernel butterfly(engine);

  lynx::Process server(
      engine, "server",
      std::make_unique<lynx::ChrysalisBackend>(butterfly, net::NodeId(0)),
      lynx::mc68000_runtime_costs());
  lynx::Process client(
      engine, "client",
      std::make_unique<lynx::ChrysalisBackend>(butterfly, net::NodeId(1)),
      lynx::mc68000_runtime_costs());
  server.start();
  client.start();

  LinkHandle server_end, client_end;
  engine.spawn("wire", wire(&server, &client, &server_end, &client_end));
  engine.run();

  server.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return server_thread(ctx, server_end);
  });
  client.spawn_thread("drive", [&](ThreadCtx& ctx) {
    return client_thread(ctx, client_end);
  });
  engine.run();

  const std::size_t failures =
      server.thread_failures().size() + client.thread_failures().size();
  std::printf("done at %.3f simulated ms; thread failures: %zu\n",
              sim::to_msec(engine.now()), failures);

  if (!trace_out.empty()) {
    if (trace::write_chrome_trace_file(recorder, trace_out)) {
      std::printf("trace: %llu events -> %s (digest %016llx)\n",
                  static_cast<unsigned long long>(recorder.total_emitted()),
                  trace_out.c_str(),
                  static_cast<unsigned long long>(recorder.digest()));
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_out.c_str());
      return 1;
    }
  }
  return failures == 0 ? 0 : 1;
}
