#include "load/universe.hpp"

#include <utility>

#include "charlotte/kernel.hpp"
#include "chrysalis/kernel.hpp"
#include "fault/faulty_medium.hpp"
#include "fault/invariant_checker.hpp"
#include "lynx/charlotte_backend.hpp"
#include "lynx/errors.hpp"
#include "net/butterfly_switch.hpp"
#include "sim/random.hpp"
#include "soda/kernel.hpp"

namespace load {

const char* to_string(Substrate s) {
  switch (s) {
    case Substrate::kCharlotte: return "charlotte";
    case Substrate::kSoda: return "soda";
    case Substrate::kChrysalis: return "chrysalis";
  }
  return "?";
}

std::array<Substrate, 3> all_substrates() {
  return {Substrate::kCharlotte, Substrate::kSoda, Substrate::kChrysalis};
}

UniverseSpec& UniverseSpec::with_formation(sim::Duration delay) {
  charlotte.form_delay = delay;
  soda.form_delay = delay;
  chrysalis_backend.form_delay = delay;
  return *this;
}

Universe::Universe(sim::Engine& engine, UniverseSpec spec)
    : engine_(&engine), spec_(std::move(spec)) {
  switch (spec_.substrate) {
    case Substrate::kCharlotte:
      medium_ = std::make_unique<net::TokenRing>(engine, spec_.ring);
      break;
    case Substrate::kSoda:
      medium_ = std::make_unique<net::CsmaBus>(engine, sim::Rng(spec_.seed),
                                               spec_.bus);
      break;
    case Substrate::kChrysalis:
      break;  // shared-memory Butterfly: no medium
  }
  if (medium_ != nullptr && spec_.faults.has_value()) {
    faulty_ = std::make_unique<fault::FaultyMedium>(engine, *medium_,
                                                    spec_.fault_seed,
                                                    *spec_.faults);
    invariants_ = std::make_unique<fault::InvariantChecker>(*faulty_);
  }
  net::Medium* wire =
      faulty_ != nullptr ? static_cast<net::Medium*>(faulty_.get())
                         : medium_.get();
  switch (spec_.substrate) {
    case Substrate::kCharlotte:
      cluster_ = std::make_unique<charlotte::Cluster>(engine, spec_.nodes,
                                                      *wire, spec_.charlotte);
      // Charlotte's distributed kernel knows the state of every link: a
      // crash becomes an absolute node-down notice at every peer.
      if (faulty_ != nullptr) {
        faulty_->on_crash(
            [this](net::NodeId n) { cluster_->notify_node_down(n); });
      }
      break;
    case Substrate::kSoda:
      network_ = std::make_unique<soda::Network>(engine, spec_.nodes, *wire,
                                                 spec_.soda);
      // SODA peers get no crash notice.  The reboot announcement is the
      // lazy resolution: when the node returns, peers learn that their
      // requests parked there died (calls into the *down* node die
      // earlier, by transport-ack exhaustion).
      if (faulty_ != nullptr) {
        faulty_->on_restart(
            [this](net::NodeId n) { network_->kernel(n).announce_reboot(); });
      }
      break;
    case Substrate::kChrysalis: {
      net::ButterflyParams fabric;
      fabric.nodes = static_cast<std::uint32_t>(spec_.nodes);
      kernel_ =
          std::make_unique<chrysalis::Kernel>(engine, fabric, spec_.chrysalis);
      break;
    }
  }
}

Universe::~Universe() {
  // Parked coroutine frames' local destructors (claim guards, spans)
  // touch process and kernel state: destroy them while it all exists.
  engine_->shutdown();
}

lynx::Process& Universe::spawn(std::string name, std::size_t node) {
  const net::NodeId nid(static_cast<std::uint32_t>(node));
  std::unique_ptr<lynx::Backend> backend;
  lynx::RuntimeCosts host;
  switch (spec_.substrate) {
    case Substrate::kCharlotte:
      backend = std::make_unique<lynx::CharlotteBackend>(*cluster_, nid);
      host = lynx::vax_runtime_costs();
      break;
    case Substrate::kSoda:
      backend = std::make_unique<lynx::SodaBackend>(*network_, directory_, nid,
                                                    spec_.soda_backend);
      host = lynx::pdp11_runtime_costs();
      break;
    case Substrate::kChrysalis:
      backend = std::make_unique<lynx::ChrysalisBackend>(
          *kernel_, nid, spec_.chrysalis_backend);
      host = lynx::mc68000_runtime_costs();
      break;
  }
  auto process = std::make_unique<lynx::Process>(
      *engine_, std::move(name), std::move(backend),
      spec_.runtime.value_or(host));
  process->start();
  members_.push_back({node, std::move(process)});
  return *members_.back().process;
}

std::vector<lynx::Process*> Universe::processes() const {
  std::vector<lynx::Process*> out;
  out.reserve(members_.size());
  for (const Member& m : members_) out.push_back(m.process.get());
  return out;
}

sim::Task<std::pair<lynx::LinkHandle, lynx::LinkHandle>> Universe::connect(
    lynx::Process& a, lynx::Process& b) {
  if (engine_->is_shut_down()) {
    throw lynx::LynxError(lynx::ErrorKind::kLinkDestroyed,
                          "connect: engine already shut down");
  }
  if (a.terminated() || b.terminated()) {
    throw lynx::LynxError(lynx::ErrorKind::kLinkDestroyed,
                          "connect: process already terminated");
  }
  switch (spec_.substrate) {
    case Substrate::kCharlotte:
      co_return co_await lynx::CharlotteBackend::connect(a, b);
    case Substrate::kSoda:
      co_return co_await lynx::SodaBackend::connect(a, b);
    case Substrate::kChrysalis:
      break;
  }
  co_return co_await lynx::ChrysalisBackend::connect(a, b);
}

void Universe::crash(std::size_t node) {
  if (faulty_ != nullptr) {
    faulty_->crash(net::NodeId(static_cast<std::uint32_t>(node)));
  }
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].node == node) members_[i].process->terminate();
  }
}

void Universe::restart(std::size_t node) {
  if (faulty_ != nullptr) {
    faulty_->restart(net::NodeId(static_cast<std::uint32_t>(node)));
  }
}

std::optional<std::string> Universe::invariant_violation() const {
  if (invariants_ == nullptr || invariants_->ok()) return std::nullopt;
  return invariants_->violations().front();
}

}  // namespace load
