#include "metrics/complexity.hpp"

#include <fstream>
#include <vector>

#ifndef RELYNX_SOURCE_DIR
#define RELYNX_SOURCE_DIR "."
#endif

namespace metrics {

namespace {

std::string root_or_default(const std::string& source_root) {
  return source_root.empty() ? std::string(RELYNX_SOURCE_DIR) : source_root;
}

bool is_code_line(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return true;
  }
  return false;
}

}  // namespace

std::size_t count_source_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (is_code_line(line)) ++n;
  }
  return n;
}

std::size_t count_region_lines(const std::string& path,
                               const std::vector<std::string>& markers) {
  std::ifstream in(path);
  if (!in) return 0;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  std::size_t total = 0;
  for (const std::string& marker : markers) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find(marker) == std::string::npos) continue;
      // count to the next top-level closing brace
      for (std::size_t j = i; j < lines.size(); ++j) {
        if (is_code_line(lines[j])) ++total;
        if (lines[j] == "}") break;
      }
      break;
    }
  }
  return total;
}

BackendProfile profile_charlotte(const std::string& source_root) {
  const std::string root = root_or_default(source_root);
  BackendProfile p;
  p.name = "charlotte";
  // REQUEST, REPLY, RETRY, FORBID, ALLOW, GOAHEAD, ENC  (§3.2)
  p.protocol_message_types = 7;
  // want_requests, want_replies, recv_posted, forbade_peer, forbidden,
  // awaiting_goahead, assembly-in-progress
  p.screening_states = 7;
  p.move_agreement_parties = 3;  // mover, recipient, far end (via home)
  p.packets_per_simple_op = 2;   // request + reply (plus kernel acks)
  p.needs_goahead_enc = true;
  p.needs_retry_forbid = true;
  const std::string src = root + "/src/lynx/charlotte_backend.cpp";
  p.source_lines = count_source_lines(src) +
                   count_source_lines(root + "/src/lynx/charlotte_backend.hpp");
  // control_packet builds every RETRY/FORBID/ALLOW/GOAHEAD/ENC packet,
  // and send_next_enc holds the ENC stream that on_incoming's GOAHEAD
  // case and dispatch_send_done share.
  p.special_case_lines = count_region_lines(
      src, {"void CharlotteBackend::on_incoming",
            "CharlotteBackend::KSend CharlotteBackend::control_packet",
            "bool CharlotteBackend::send_next_enc",
            "void CharlotteBackend::maybe_send_allow",
            "void CharlotteBackend::update_receive_posting",
            "sim::Task<> CharlotteBackend::cancel_receive"});
  return p;
}

BackendProfile profile_soda(const std::string& source_root) {
  const std::string root = root_or_default(source_root);
  BackendProfile p;
  p.name = "soda";
  p.protocol_message_types = 2;  // LYNX request / reply kinds in oob
  // want_requests, want_replies, reply_unwanted (screening is the
  // accept decision itself)
  p.screening_states = 3;
  p.move_agreement_parties = 1;  // hints; nobody must agree
  p.packets_per_simple_op = 2;   // request put + reply put
  p.needs_goahead_enc = false;
  p.needs_retry_forbid = false;
  const std::string src = root + "/src/lynx/soda_backend.cpp";
  p.source_lines = count_source_lines(src) +
                   count_source_lines(root + "/src/lynx/soda_backend.hpp");
  p.special_case_lines = 0;  // no unwanted-message / packetization code
  return p;
}

BackendProfile profile_chrysalis(const std::string& source_root) {
  const std::string root = root_or_default(source_root);
  BackendProfile p;
  p.name = "chrysalis";
  p.protocol_message_types = 0;  // no messages at all, only notices
  p.screening_states = 2;        // want_requests, want_replies
  p.move_agreement_parties = 1;  // remap + rewrite a hint
  p.packets_per_simple_op = 0;   // shared memory; notices are hints
  p.needs_goahead_enc = false;
  p.needs_retry_forbid = false;
  const std::string src = root + "/src/lynx/chrysalis_backend.cpp";
  p.source_lines =
      count_source_lines(src) +
      count_source_lines(root + "/src/lynx/chrysalis_backend.hpp");
  p.special_case_lines = 0;
  return p;
}

}  // namespace metrics
