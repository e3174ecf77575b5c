// The repo's one determinism digest.
//
// An order-sensitive fold of 64-bit words: each step mixes one word
// into the state through splitmix64, a bijection, so changing any one
// word of a stream always changes the digest.  The trace recorder, the
// fault log, the explorer's sweep and the tests that fold digests of
// digests all use it, so their pins compose.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sim/random.hpp"

namespace common {

class Digest {
 public:
  // The digest of an empty stream.
  static constexpr std::uint64_t kEmpty = 0;

  void add(std::uint64_t word) { value_ = sim::splitmix64(value_ ^ word); }

  // Text folds as its length, then eight bytes per word, little-endian,
  // the last word zero-padded.
  void add_bytes(std::string_view bytes) {
    add(bytes.size());
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
      std::uint64_t word = 0;
      for (std::size_t j = 0; j < 8 && i + j < bytes.size(); ++j) {
        word |= std::uint64_t{static_cast<unsigned char>(bytes[i + j])}
                << (8 * j);
      }
      add(word);
    }
  }

  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = kEmpty;
};

}  // namespace common
