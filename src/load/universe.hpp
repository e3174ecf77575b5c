// A Universe is one simulated world on one kernel substrate: the medium
// (wrapped in a fault::FaultyMedium when the spec asks for faults), the
// kernel or kernels, the LYNX processes with their calibrated run-time
// costs, and the bootstrap links between them.  Every per-substrate
// decision a caller would otherwise make for itself lives here: which
// medium, which host cost model (VAX / PDP-11 / 68000), how a node crash
// is announced, and which backend's loader-fiat connect wires two
// processes.  Callers (load::Runner, check::run_one, replica::Group, the
// benches) describe a world with a UniverseSpec and never name a kernel.
//
// The engine belongs to the caller.  Attach its tie policy and any
// trace::Recorder before constructing the Universe: keys and records are
// assigned from the first thing construction schedules.  Destruction
// shuts the engine down first, so coroutine frames parked mid-RPC are
// destroyed while the processes and kernels they reference still exist.
// Every protocol tally of the world lands in the engine's counts table
// (sim/counts.hpp); one universe per engine keeps those tallies its own.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "charlotte/types.hpp"
#include "chrysalis/types.hpp"
#include "fault/plan.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "lynx/runtime.hpp"
#include "lynx/soda_backend.hpp"
#include "net/csma_bus.hpp"
#include "net/packet.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "soda/types.hpp"

namespace charlotte {
class Cluster;
}
namespace soda {
class Network;
}
namespace chrysalis {
class Kernel;
}
namespace fault {
class FaultyMedium;
class InvariantChecker;
}

namespace load {

enum class Substrate : std::uint8_t { kCharlotte = 0, kSoda = 1, kChrysalis = 2 };

[[nodiscard]] const char* to_string(Substrate s);
[[nodiscard]] std::array<Substrate, 3> all_substrates();

struct UniverseSpec {
  Substrate substrate = Substrate::kCharlotte;
  // Kernel nodes on Charlotte and SODA.  On Chrysalis, the Butterfly's
  // processor count, which sets its switch-stage count (16 is the
  // machine's default fabric).
  std::size_t nodes = 2;
  net::TokenRingParams ring;  // Charlotte's wire
  // SODA's wire.  Quiet by default: loss comes from the fault plan, not
  // from the bus's own broadcast drops.
  net::CsmaBusParams bus{.broadcast_drop_prob = 0.0};
  std::uint64_t seed = 1;  // SODA bus randomness (backoff, drops)
  // Present: the medium runs under a fault::FaultyMedium executing this
  // plan and watched by a fault::InvariantChecker, and a node crash is
  // announced the substrate's way.  Chrysalis has no medium to impair.
  std::optional<fault::Plan> faults;
  std::uint64_t fault_seed = 1;  // the FaultyMedium's stochastic faults
  charlotte::Costs charlotte;
  soda::Costs soda;
  chrysalis::Costs chrysalis;
  lynx::SodaBackendParams soda_backend;
  lynx::ChrysalisBackendParams chrysalis_backend;
  // Replaces the substrate's calibrated host cost model when set.
  std::optional<lynx::RuntimeCosts> runtime;

  // RPC formation (DESIGN.md §14) on every substrate: frames to one node
  // within `delay` share a wire frame of up to form::kMaxBatchBytes;
  // Chrysalis batches up to 64 notices per enqueue dispatch.
  UniverseSpec& with_formation(sim::Duration delay);
};

class Universe {
 public:
  Universe(sim::Engine& engine, UniverseSpec spec);
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;
  ~Universe();

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] Substrate substrate() const { return spec_.substrate; }

  // Creates and starts a process on `node`.  The universe owns it, and
  // keeps it after it terminates so its thread-failure log survives.
  lynx::Process& spawn(std::string name, std::size_t node);
  // Every process spawned so far, in spawn order.
  [[nodiscard]] std::vector<lynx::Process*> processes() const;

  // Wires a <-> b with a fresh link and returns (a_end, b_end).  Run it
  // on the engine.  A shut-down engine or a terminated process throws
  // LynxError(kLinkDestroyed).  Connecting the same pair again is legal
  // and yields a second, independent link.
  [[nodiscard]] sim::Task<std::pair<lynx::LinkHandle, lynx::LinkHandle>>
  connect(lynx::Process& a, lynx::Process& b);

  // A node crash: the medium goes dark for `node` first, so the frames
  // its teardown would send die on the wire, then every process on the
  // node terminates.  Charlotte peers get the kernel's absolute
  // node-down notice; SODA peers learn nothing until restart().
  void crash(std::size_t node);
  // The node returns empty.  On SODA it announces its reboot, failing
  // the requests peers had parked there.
  void restart(std::size_t node);

  // Physical wire operations so far: frames on the medium for Charlotte
  // and SODA, dual-queue enqueue dispatches for Chrysalis (no wire).
  // Each substrate leaves the other tally at zero.
  [[nodiscard]] std::uint64_t wire_ops() const {
    return engine_->total(&sim::Counts::frames_sent) +
           engine_->total(&sim::Counts::enqueue_calls);
  }

  // Null unless the spec asked for faults on a substrate with a medium.
  [[nodiscard]] fault::FaultyMedium* faulty_medium() { return faulty_.get(); }
  // First medium-invariant violation, if any.
  [[nodiscard]] std::optional<std::string> invariant_violation() const;

 private:
  struct Member {
    std::size_t node;
    std::unique_ptr<lynx::Process> process;
  };

  sim::Engine* engine_;
  UniverseSpec spec_;
  // Declared in build order, so teardown runs processes -> kernels ->
  // medium.
  std::unique_ptr<net::Medium> medium_;
  std::unique_ptr<fault::FaultyMedium> faulty_;
  std::unique_ptr<fault::InvariantChecker> invariants_;
  std::unique_ptr<charlotte::Cluster> cluster_;
  lynx::SodaDirectory directory_;
  std::unique_ptr<soda::Network> network_;
  std::unique_ptr<chrysalis::Kernel> kernel_;
  std::vector<Member> members_;
};

}  // namespace load
