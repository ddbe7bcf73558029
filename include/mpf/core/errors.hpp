// Status codes and exceptions for the MPF public API.
//
// The paper's C interface reports failures through return values; the
// status enum below is that contract.  The C++ convenience layer
// (ports.hpp) converts non-ok statuses into MpfError exceptions.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

namespace mpf {

enum class Status : int {
  ok = 0,
  invalid_argument,   ///< bad pid / length / name
  table_full,         ///< max_lnvcs or descriptor pool exceeded
  no_such_lnvc,       ///< id does not name a live LNVC
  not_connected,      ///< pid holds no matching connection on the LNVC
  already_connected,  ///< pid already holds this kind of connection
  protocol_conflict,  ///< FCFS and BROADCAST receive on one LNVC (paper fn.3)
  out_of_blocks,      ///< free list empty and policy is fail-fast
  truncated,          ///< receive buffer smaller than the message
  closed,             ///< LNVC deleted while blocked on it
  timed_out,          ///< a wait's timeout expired (or a poll found nothing)
  peer_failed,        ///< blocked op abandoned: the peer(s) it needed died
  lnvc_orphaned,      ///< receive on a circuit whose last sender died
  rejected,           ///< send refused by admission control (quota exceeded)
  busy,               ///< resource already in exclusive use (pollset waiter)
};

/// Human-readable name of a status code.
[[nodiscard]] const char* to_string(Status s) noexcept;
/// Streams the enumerator's own name ("timed_out"), so assertion failures
/// (gtest prints through this) read as the code that compared unequal.
std::ostream& operator<<(std::ostream& os, Status s);

/// Exception carrying a Status; thrown by the C++ RAII layer only.
class MpfError : public std::runtime_error {
 public:
  MpfError(Status status, const std::string& context)
      : std::runtime_error(context + ": " + to_string(status)),
        status_(status) {}
  [[nodiscard]] Status status() const noexcept { return status_; }

 private:
  Status status_;
};

/// Throw MpfError unless `s` is ok.
inline void throw_if_error(Status s, const char* context) {
  if (s != Status::ok) throw MpfError(s, context);
}

}  // namespace mpf
