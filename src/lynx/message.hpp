// LYNX messages: typed operation invocations.
//
// A LYNX remote operation carries an operation name and a list of typed
// parameters; parameters may include *link ends*, whose receipt moves
// the end to the receiving process (paper §2.1).  The runtime serializes
// non-link parameters to bytes (so the kernels charge honest per-byte
// costs) and hands enclosures to the backend, which moves them by
// whatever mechanism its kernel affords.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/body.hpp"
#include "common/strong_id.hpp"

namespace lynx {

struct LinkTag {
  static const char* prefix() { return "L"; }
};
// Runtime-local handle to a link end owned by this process.  Handles are
// process-scoped: a moved end gets a fresh handle in the receiver.
using LinkHandle = common::StrongId<LinkTag>;

using Bytes = std::vector<std::uint8_t>;

// The LYNX parameter types we model (the real language had records and
// arrays; scalars + strings + byte blocks + links exercise everything
// the kernels care about).
using Value = std::variant<std::int64_t, double, std::string, Bytes,
                           LinkHandle>;

enum class ValueType : std::uint8_t {
  kInt = 0,
  kReal = 1,
  kString = 2,
  kBytes = 3,
  kLink = 4,
};

[[nodiscard]] ValueType type_of(const Value& v);
[[nodiscard]] const char* to_string(ValueType t);

struct Message {
  std::string op;            // operation name
  std::vector<Value> args;

  [[nodiscard]] std::vector<ValueType> signature() const;
  [[nodiscard]] std::size_t count_links() const;
};

// Convenience builders.
[[nodiscard]] Message make_message(std::string op, std::vector<Value> args);

// ---- serialization ---------------------------------------------------------
//
// Wire form: op name, then each arg as [tag][payload].  Link args are
// encoded as an index into the side-channel enclosure list; the backend
// substitutes its own representation for each enclosure.
//
// serialize writes the body into one buffer, the only one the message
// gets (DESIGN.md "Message body ownership"); deserialize reads a body in
// place and copies out only string and byte-block arguments.

struct Serialized {
  common::Body body;                     // everything but the links
  std::vector<LinkHandle> enclosures;    // in arg order
};

// `headroom` bytes are left free in front of the body for a backend's
// packet header (common::Body::prepend).
[[nodiscard]] Serialized serialize(const Message& m,
                                   std::size_t headroom = 0);
// `enclosures` supplies the (receiver-side) handles for link args.
// Asserts on a malformed body: truncated, or with an unknown value tag.
[[nodiscard]] Message deserialize(std::span<const std::uint8_t> body,
                                  const std::vector<LinkHandle>& enclosures);

}  // namespace lynx
