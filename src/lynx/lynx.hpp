// relynx public API umbrella.
//
// A downstream user writes LYNX-style distributed programs against
// lynx::Process / lynx::ThreadCtx, picks a kernel substrate by
// constructing the matching backend, and runs everything on a
// sim::Engine:
//
//   sim::Engine engine;
//   net::TokenRing ring(engine);
//   charlotte::Cluster crystal(engine, 8, ring);
//   lynx::Process server(engine, "server",
//       std::make_unique<lynx::CharlotteBackend>(crystal, net::NodeId(0)));
//   lynx::Process client(engine, "client",
//       std::make_unique<lynx::CharlotteBackend>(crystal, net::NodeId(1)));
//   ... CharlotteBackend::connect(server, client) ...
//   server.spawn_thread("serve", ...); client.spawn_thread("drive", ...);
//   engine.run();
//
// See examples/ for complete programs.
#pragma once

#include "lynx/backend.hpp"
#include "lynx/charlotte_backend.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "lynx/errors.hpp"
#include "lynx/message.hpp"
#include "lynx/runtime.hpp"
#include "lynx/soda_backend.hpp"
