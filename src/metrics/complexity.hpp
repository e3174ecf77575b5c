// Protocol-complexity metrics: the reproduction's analog of the paper's
// code-size measurements (§3.3, §4.3, §5.3 and experiment E4/E6).
//
// The paper reports object-code bytes of the three run-time packages and
// attributes the Charlotte package's extra ~5K to unwanted-message and
// multiple-enclosure handling.  We cannot reproduce VAX object bytes,
// but we can measure the same *shape* three ways:
//   1. static protocol structure (how many message types, how many
//      screening states, how many parties agree on a move);
//   2. source lines of each backend (measured from this repository at
//      bench run time);
//   3. dynamic counts (packets per operation, bounce traffic) from the
//      engine's counts table (sim::Counts).
#pragma once

#include <cstddef>
#include <vector>
#include <string>

namespace metrics {

struct BackendProfile {
  std::string name;
  // run-time-package protocol message types layered over the kernel
  // (Charlotte: request, reply, retry, forbid, allow, goahead, enc)
  int protocol_message_types = 0;
  // per-link screening state bits the package must track
  int screening_states = 0;
  // parties that must agree to move a link end
  int move_agreement_parties = 0;
  // kernel packets for a simple remote op (request+reply, no enclosures)
  int packets_per_simple_op = 0;
  // extra packets to move k>=2 enclosures in one LYNX request
  // (Charlotte: goahead + (k-1) enc packets)
  int extra_packets_multi_move(int k) const {
    return needs_goahead_enc ? 1 + (k - 1) : 0;
  }
  bool needs_goahead_enc = false;
  bool needs_retry_forbid = false;
  // measured source size of the backend implementation
  std::size_t source_lines = 0;
  std::size_t special_case_lines = 0;  // screening + packetization code
};

// Profiles for the three backends; source_lines are measured from the
// repository (source_root defaults to the build-time source dir).
[[nodiscard]] BackendProfile profile_charlotte(
    const std::string& source_root = {});
[[nodiscard]] BackendProfile profile_soda(
    const std::string& source_root = {});
[[nodiscard]] BackendProfile profile_chrysalis(
    const std::string& source_root = {});

// Counts non-empty lines in a file; returns 0 if unreadable.
[[nodiscard]] std::size_t count_source_lines(const std::string& path);

// Counts non-empty lines in the given function-level regions, located by
// substring markers (start inclusive, ends at the next line equal to
// "}" at column 0).  Used for the special-case accounting.
[[nodiscard]] std::size_t count_region_lines(
    const std::string& path, const std::vector<std::string>& markers);

}  // namespace metrics
