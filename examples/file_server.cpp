// A long-lived file server with multiple clients — the paper's
// motivating workload ("interaction ... between user programs and
// long-lived system servers", §2).
//
// The server keeps an in-memory file system and serves open / read /
// write / close.  Each "open" mints a fresh link and ENCLOSES one end
// in the reply: the per-file connection travels back to the client as a
// moved link end, after which the client talks to the file directly —
// link movement as an access-control/capability mechanism.
//
// Runs on the Charlotte substrate to show the whole retry/forbid-era
// machinery carrying a real workload.
#include <cstdio>
#include <map>
#include <string>

#include "lynx/lynx.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"

namespace {

using lynx::Incoming;
using lynx::LinkHandle;
using lynx::Message;
using lynx::ThreadCtx;

struct FileSystem {
  std::map<std::string, std::string> files;
  int opens = 0;
  int reads = 0;
  int writes = 0;
};

// Serves one opened file over a dedicated link until the client
// destroys it.
sim::Task<> file_session(ThreadCtx& ctx, LinkHandle link, std::string name,
                         FileSystem* fs) {
  ctx.enable_requests(link);
  for (;;) {
    Incoming in;
    try {
      in = co_await ctx.receive();
    } catch (const lynx::LynxError&) {
      co_return;  // client closed (destroyed) the file link
    }
    if (in.msg.op == "read") {
      ++fs->reads;
      Message reply;
      reply.args.emplace_back(fs->files[name]);
      co_await ctx.reply(in, std::move(reply));
    } else if (in.msg.op == "write") {
      ++fs->writes;
      fs->files[name] = std::get<std::string>(in.msg.args.at(0));
      Message reply;
      reply.args.emplace_back(std::int64_t(fs->files[name].size()));
      co_await ctx.reply(in, std::move(reply));
    } else if (in.msg.op == "close") {
      Message reply;
      co_await ctx.reply(in, std::move(reply));
      co_return;
    }
  }
}

// The dispatch thread: serves "open" on the well-known link, minting a
// per-file link and handing one end to the client.
sim::Task<> server_main(ThreadCtx& ctx, LinkHandle front, int expected_opens,
                        FileSystem* fs) {
  ctx.enable_requests(front);
  for (int i = 0; i < expected_opens; ++i) {
    Incoming in = co_await ctx.receive();
    RELYNX_ASSERT(in.msg.op == "open");
    const auto name = std::get<std::string>(in.msg.args.at(0));
    ++fs->opens;

    lynx::LocalLinkPair session = co_await ctx.new_link();
    // serve the file on a fresh thread; the client gets the other end
    ctx.process().spawn_thread(
        "file:" + name, [link = session.end1, name, fs](ThreadCtx& c) {
          return file_session(c, link, name, fs);
        });
    Message reply;
    reply.args.emplace_back(session.end2);  // the moved capability
    co_await ctx.reply(in, std::move(reply));
  }
}

sim::Task<> client_main(ThreadCtx& ctx, LinkHandle server, std::string who,
                        std::string file) {
  // open
  Message open_req = lynx::make_message("open", {file});
  Message opened = co_await ctx.call(server, std::move(open_req));
  LinkHandle f = std::get<LinkHandle>(opened.args.at(0));
  std::printf("[%8.1f ms] %s: opened '%s'\n",
              sim::to_msec(ctx.engine().now()), who.c_str(), file.c_str());

  // write then read back
  Message write_req =
      lynx::make_message("write", {who + " was here (" + file + ")"});
  Message wrote = co_await ctx.call(f, std::move(write_req));
  std::printf("[%8.1f ms] %s: wrote %lld bytes\n",
              sim::to_msec(ctx.engine().now()), who.c_str(),
              static_cast<long long>(std::get<std::int64_t>(wrote.args.at(0))));

  Message read_req = lynx::make_message("read", {});
  Message content = co_await ctx.call(f, std::move(read_req));
  std::printf("[%8.1f ms] %s: read back \"%s\"\n",
              sim::to_msec(ctx.engine().now()), who.c_str(),
              std::get<std::string>(content.args.at(0)).c_str());

  Message close_req = lynx::make_message("close", {});
  (void)co_await ctx.call(f, std::move(close_req));
  co_await ctx.destroy(f);
}

}  // namespace

int main() {
  sim::Engine engine;
  net::TokenRing ring(engine);
  charlotte::Cluster crystal(engine, 4, ring);

  lynx::Process server(
      engine, "fileserver",
      std::make_unique<lynx::CharlotteBackend>(crystal, net::NodeId(0)),
      lynx::vax_runtime_costs());
  lynx::Process alice(
      engine, "alice",
      std::make_unique<lynx::CharlotteBackend>(crystal, net::NodeId(1)),
      lynx::vax_runtime_costs());
  lynx::Process bob(
      engine, "bob",
      std::make_unique<lynx::CharlotteBackend>(crystal, net::NodeId(2)),
      lynx::vax_runtime_costs());
  server.start();
  alice.start();
  bob.start();

  LinkHandle s_alice, c_alice, s_bob, c_bob;
  engine.spawn("wire", [](lynx::Process* s, lynx::Process* a,
                          lynx::Process* b, LinkHandle* o1, LinkHandle* o2,
                          LinkHandle* o3, LinkHandle* o4) -> sim::Task<> {
    auto [x1, y1] = co_await lynx::CharlotteBackend::connect(*s, *a);
    *o1 = x1;
    *o2 = y1;
    auto [x2, y2] = co_await lynx::CharlotteBackend::connect(*s, *b);
    *o3 = x2;
    *o4 = y2;
  }(&server, &alice, &bob, &s_alice, &c_alice, &s_bob, &c_bob));
  engine.run();

  FileSystem fs;
  // two front doors, one dispatcher thread each
  server.spawn_thread("front-alice", [&](ThreadCtx& ctx) {
    return server_main(ctx, s_alice, 1, &fs);
  });
  server.spawn_thread("front-bob", [&](ThreadCtx& ctx) {
    return server_main(ctx, s_bob, 1, &fs);
  });
  alice.spawn_thread("alice", [&](ThreadCtx& ctx) {
    return client_main(ctx, c_alice, "alice", "notes.txt");
  });
  bob.spawn_thread("bob", [&](ThreadCtx& ctx) {
    return client_main(ctx, c_bob, "bob", "todo.txt");
  });
  engine.run();

  std::printf(
      "\nfile server handled %d opens, %d reads, %d writes in %.1f "
      "simulated ms\n",
      fs.opens, fs.reads, fs.writes, sim::to_msec(engine.now()));
  const bool clean = server.thread_failures().empty() &&
                     alice.thread_failures().empty() &&
                     bob.thread_failures().empty();
  return clean ? 0 : 1;
}
