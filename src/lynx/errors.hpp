// LYNX run-time exceptions.
//
// The paper requires that kernel-level failures "fail in a way that can
// be reflected back into the user program as a run-time exception"
// (§2.2).  These propagate into thread coroutines through co_await.
#pragma once

#include <stdexcept>
#include <string>

namespace lynx {

enum class ErrorKind : std::uint8_t {
  kLinkDestroyed,   // send/receive on a destroyed (or dead-peer) link
  kInvalidLink,     // handle does not name an end this process owns
  kLinkBusy,        // moving an end with unreceived sends / owed replies
  kTypeClash,       // reply/operation signature mismatch
  kOperationRejected,  // server does not serve this operation
  kAborted,         // the thread was aborted at a block point
  kReplyUnwanted,   // server replied but the caller aborted
                    // (detectable on SODA/Chrysalis; NOT on Charlotte)
  kEnclosureLost,   // an enclosed link end is unrecoverable (Charlotte
                    // deviation, paper §3.2.2)
  kMessageTooLarge,  // the packet exceeds the backend's buffer
                     // (Backend::max_packet_bytes); nothing was sent
};

[[nodiscard]] constexpr const char* to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::kLinkDestroyed: return "link-destroyed";
    case ErrorKind::kInvalidLink: return "invalid-link";
    case ErrorKind::kLinkBusy: return "link-busy";
    case ErrorKind::kTypeClash: return "type-clash";
    case ErrorKind::kOperationRejected: return "operation-rejected";
    case ErrorKind::kAborted: return "aborted";
    case ErrorKind::kReplyUnwanted: return "reply-unwanted";
    case ErrorKind::kEnclosureLost: return "enclosure-lost";
    case ErrorKind::kMessageTooLarge: return "message-too-large";
  }
  return "?";
}

class LynxError : public std::runtime_error {
 public:
  LynxError(ErrorKind kind, const std::string& detail)
      : std::runtime_error(std::string(to_string(kind)) +
                           (detail.empty() ? "" : ": " + detail)),
        kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

}  // namespace lynx
