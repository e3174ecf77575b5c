// Strongly-typed integral identifiers.
//
// The simulator traffics in many kinds of small integer ids (nodes,
// processes, links, link ends, names, memory objects...).  Mixing them up
// is the classic source of silent simulation bugs, so each id is a
// distinct type: StrongId<struct NodeTag> cannot be passed where a
// StrongId<struct PidTag> is expected.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>

// Salt mixed into std::hash<StrongId> (CMake option RELYNX_HASH_SALT).
// 0, the default, hashes the raw value as before.  No simulated outcome
// may depend on a hashed table's layout, so a salted build must
// reproduce every pinned digest; CI builds one to check that.
#ifndef RELYNX_HASH_SALT
#define RELYNX_HASH_SALT 0
#endif

namespace common {

template <typename Tag, typename Rep = std::uint64_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep v) : value_(v) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != invalid_rep; }

  static constexpr Rep invalid_rep = static_cast<Rep>(-1);
  [[nodiscard]] static constexpr StrongId invalid() {
    return StrongId(invalid_rep);
  }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    if (!id.valid()) return os << Tag::prefix() << "<invalid>";
    return os << Tag::prefix() << id.value_;
  }

 private:
  Rep value_ = invalid_rep;
};

// Monotonic id generator; one per id space.
template <typename Id>
class IdAllocator {
 public:
  [[nodiscard]] Id next() { return Id(next_++); }
  [[nodiscard]] typename Id::rep_type issued() const { return next_; }

 private:
  typename Id::rep_type next_ = 0;
};

}  // namespace common

namespace std {
template <typename Tag, typename Rep>
struct hash<common::StrongId<Tag, Rep>> {
  size_t operator()(common::StrongId<Tag, Rep> id) const noexcept {
    constexpr std::uint64_t salt = RELYNX_HASH_SALT;
    if constexpr (salt == 0) {
      return std::hash<Rep>{}(id.value());
    } else {
      // splitmix64 finaliser over the salted value
      std::uint64_t z = static_cast<std::uint64_t>(id.value()) +
                        salt * 0x9e3779b97f4a7c15ull;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return static_cast<size_t>(z ^ (z >> 31));
    }
  }
};
}  // namespace std
