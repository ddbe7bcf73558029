// RAII convenience layer over Facility.
//
// The paper's API is C with explicit process ids and integer LNVC handles;
// this layer gives C++ users scoped connections that close themselves, and
// exceptions instead of status codes.  Everything here is a thin veneer —
// no additional synchronization or semantics.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpf/core/facility.hpp"

namespace mpf {

/// Result of a receive: the full message length and whether the caller's
/// buffer captured all of it.
struct Received {
  std::size_t length = 0;
  bool truncated = false;
};

/// A process's identity within a facility.  Cheap to copy.
class Participant {
 public:
  Participant() = default;
  Participant(Facility facility, ProcessId pid)
      : facility_(std::move(facility)), pid_(pid) {}

  [[nodiscard]] ProcessId pid() const noexcept { return pid_; }
  [[nodiscard]] Facility& facility() noexcept { return facility_; }

  /// open_send / open_receive with exceptions; see port classes below.
  [[nodiscard]] class SendPort open_send(std::string_view name);
  [[nodiscard]] class ReceivePort open_receive(std::string_view name,
                                               Protocol protocol);
  /// Create a scoped poll set (epoll-like multi-circuit wait object).
  [[nodiscard]] class PollSet create_pollset();

 private:
  Facility facility_;
  ProcessId pid_ = 0;
};

/// Scoped send connection; closes on destruction.
class SendPort {
 public:
  SendPort() = default;
  SendPort(Facility facility, ProcessId pid, LnvcId id)
      : facility_(std::move(facility)), pid_(pid), id_(id) {}
  SendPort(SendPort&& other) noexcept { swap(other); }
  SendPort& operator=(SendPort&& other) noexcept {
    if (this != &other) {
      close();
      swap(other);
    }
    return *this;
  }
  SendPort(const SendPort&) = delete;
  SendPort& operator=(const SendPort&) = delete;
  ~SendPort() { close(); }

  /// Asynchronous message send (paper: message_send).
  void send(std::span<const std::byte> payload) {
    throw_if_error(
        facility_.send(pid_, id_, payload.data(), payload.size()),
        "SendPort::send");
  }
  void send(std::string_view text) {
    throw_if_error(facility_.send(pid_, id_, text.data(), text.size()),
                   "SendPort::send");
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(const T& value) {
    throw_if_error(facility_.send(pid_, id_, &value, sizeof(T)),
                   "SendPort::send_value");
  }
  /// Send a pulse: a tiny no-reply notification carrying just `code`
  /// (paper-adjacent; see DESIGN.md §14).  Repeats of a pending code
  /// coalesce on the receiver side instead of queueing.
  void send_pulse(std::uint32_t code) {
    throw_if_error(facility_.send_pulse(pid_, id_, code),
                   "SendPort::send_pulse");
  }
  /// Send with a timeout (Facility's contract: 0 polls, kNoTimeout waits
  /// forever): false if the circuit's admission quota or the buffer pool
  /// kept the message out that long.  A rejection under a fail-fast
  /// admission policy also reports false — both mean "not accepted, try
  /// later".  Other failures still throw.
  bool send_for(std::span<const std::byte> payload,
                std::uint64_t timeout_ns) {
    const Status s = facility_.send(pid_, id_, payload.data(),
                                    payload.size(), timeout_ns);
    if (s == Status::timed_out || s == Status::rejected) return false;
    throw_if_error(s, "SendPort::send_for");
    return true;
  }
  bool send_for(std::string_view text, std::uint64_t timeout_ns) {
    return send_for(
        std::span<const std::byte>(
            reinterpret_cast<const std::byte*>(text.data()), text.size()),
        timeout_ns);
  }

  void close() {
    if (id_ != kInvalidLnvc) {
      facility_.close_send(pid_, id_);
      id_ = kInvalidLnvc;
    }
  }
  [[nodiscard]] LnvcId id() const noexcept { return id_; }
  [[nodiscard]] bool open() const noexcept { return id_ != kInvalidLnvc; }

 private:
  void swap(SendPort& o) noexcept {
    std::swap(facility_, o.facility_);
    std::swap(pid_, o.pid_);
    std::swap(id_, o.id_);
  }
  Facility facility_;
  ProcessId pid_ = 0;
  LnvcId id_ = kInvalidLnvc;
};

/// RAII holder of a zero-copy message view: unpins on destruction.
/// Obtained from ReceivePort::receive_view().  The underlying record is
/// offset-based (valid in any process mapping the region); spans() lazily
/// materializes pointer spans against THIS process's mapping, and they
/// stay valid for the lifetime of this object (even across close_receive
/// — a detached message is freed by its last pinner).
class MessageView {
 public:
  MessageView() = default;
  MessageView(Facility facility, ProcessId pid, MsgView view)
      : facility_(std::move(facility)), pid_(pid), view_(std::move(view)) {}
  MessageView(MessageView&& other) noexcept { swap(other); }
  MessageView& operator=(MessageView&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  MessageView(const MessageView&) = delete;
  MessageView& operator=(const MessageView&) = delete;
  ~MessageView() { release(); }

  [[nodiscard]] bool valid() const noexcept { return view_.valid(); }
  [[nodiscard]] std::size_t length() const noexcept { return view_.length; }
  /// iovec-style pointer spans over the pinned message (one per block, or
  /// a single span for slab-built messages), materialized against this
  /// process's mapping on first use.
  [[nodiscard]] std::span<const ConstBuffer> spans() const {
    if (resolved_.size() != view_.spans.size()) {
      resolved_ = facility_.materialize(view_);
    }
    return resolved_;
  }
  /// The raw offset spans — the only form safe to hand to another process
  /// mapping the same region.
  [[nodiscard]] std::span<const ViewSpan> offset_spans() const noexcept {
    return view_.spans;
  }
  /// Copy the payload out (convenience; bounded by `buffer.size()`).
  std::size_t copy_to(std::span<std::byte> buffer) const {
    return facility_.copy_view(view_, buffer.data(), buffer.size());
  }

  /// Unpin now (idempotent; also run by the destructor).
  void release() {
    if (view_.valid()) {
      facility_.release_view(pid_, &view_);
      resolved_.clear();
    }
  }

 private:
  void swap(MessageView& o) noexcept {
    std::swap(facility_, o.facility_);
    std::swap(pid_, o.pid_);
    std::swap(view_, o.view_);
    std::swap(resolved_, o.resolved_);
  }
  Facility facility_;
  ProcessId pid_ = 0;
  MsgView view_;
  /// Pointer spans for this mapping, derived from view_.spans on demand.
  mutable std::vector<ConstBuffer> resolved_;
};

/// Scoped receive connection; closes on destruction.
class ReceivePort {
 public:
  ReceivePort() = default;
  ReceivePort(Facility facility, ProcessId pid, LnvcId id, Protocol protocol)
      : facility_(std::move(facility)),
        pid_(pid),
        id_(id),
        protocol_(protocol) {}
  ReceivePort(ReceivePort&& other) noexcept { swap(other); }
  ReceivePort& operator=(ReceivePort&& other) noexcept {
    if (this != &other) {
      close();
      swap(other);
    }
    return *this;
  }
  ReceivePort(const ReceivePort&) = delete;
  ReceivePort& operator=(const ReceivePort&) = delete;
  ~ReceivePort() { close(); }

  /// Blocking receive into `buffer`; returns length and truncation flag.
  Received receive(std::span<std::byte> buffer) {
    Received r;
    receive_for(buffer, Facility::kNoTimeout, &r);
    return r;
  }
  /// Blocking receive of the whole message as a byte vector.
  std::vector<std::byte> receive_bytes(std::size_t max_bytes = 1 << 20) {
    std::vector<std::byte> buf(max_bytes);
    const Received r = receive(buf);
    buf.resize(r.length);
    return buf;
  }
  /// Blocking receive of a trivially copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T receive_value() {
    T value{};
    std::size_t len = 0;
    throw_if_error(facility_.receive(pid_, id_, &value, sizeof(T), &len),
                   "ReceivePort::receive_value");
    if (len != sizeof(T)) {
      throw MpfError(Status::invalid_argument,
                     "ReceivePort::receive_value: size mismatch");
    }
    return value;
  }
  /// Receive with a timeout (Facility's contract: 0 polls, kNoTimeout
  /// waits forever); false if it expired with no message (virtual time
  /// under the simulator, wall time natively).
  bool receive_for(std::span<std::byte> buffer, std::uint64_t timeout_ns,
                   Received* out) {
    std::size_t len = 0;
    const Status s = facility_.receive(pid_, id_, buffer.data(),
                                       buffer.size(), &len, timeout_ns);
    if (s == Status::timed_out) return false;
    if (s == Status::truncated) {
      if (out != nullptr) *out = {len, true};
      return true;
    }
    throw_if_error(s, "ReceivePort::receive");
    if (out != nullptr) *out = {len, false};
    return true;
  }
  /// Zero-copy receive: the next message stays pinned in shared memory
  /// and is read through the returned view's spans; it unpins when the
  /// view is destroyed (or release()d).  Same timeout contract as
  /// receive_for; an invalid view means it expired with no message.
  [[nodiscard]] MessageView receive_view(
      std::uint64_t timeout_ns = Facility::kNoTimeout) {
    MsgView view;
    const Status s = facility_.receive_view(pid_, id_, &view, timeout_ns);
    if (s == Status::timed_out) return {};
    throw_if_error(s, "ReceivePort::receive_view");
    return MessageView(facility_, pid_, std::move(view));
  }

  /// Drain one pending pulse: false if none are pending.  `*out_code`
  /// receives the pulse code and `*out_count` how many sends coalesced
  /// into it (>= 1).  Non-blocking; combine with a PollSet to sleep.
  bool receive_pulse(std::uint32_t* out_code, std::uint32_t* out_count) {
    std::uint32_t code = 0;
    std::uint32_t count = 0;
    throw_if_error(facility_.receive_pulse(pid_, id_, &code, &count),
                   "ReceivePort::receive_pulse");
    if (count == 0) return false;
    if (out_code != nullptr) *out_code = code;
    if (out_count != nullptr) *out_count = count;
    return true;
  }

  /// Paper's check_receive (advisory for FCFS).
  [[nodiscard]] bool check() {
    bool has = false;
    throw_if_error(facility_.check(pid_, id_, &has), "ReceivePort::check");
    return has;
  }

  void close() {
    if (id_ != kInvalidLnvc) {
      facility_.close_receive(pid_, id_);
      id_ = kInvalidLnvc;
    }
  }
  [[nodiscard]] LnvcId id() const noexcept { return id_; }
  [[nodiscard]] bool open() const noexcept { return id_ != kInvalidLnvc; }
  [[nodiscard]] Protocol protocol() const noexcept { return protocol_; }

 private:
  void swap(ReceivePort& o) noexcept {
    std::swap(facility_, o.facility_);
    std::swap(pid_, o.pid_);
    std::swap(id_, o.id_);
    std::swap(protocol_, o.protocol_);
  }
  Facility facility_;
  ProcessId pid_ = 0;
  LnvcId id_ = kInvalidLnvc;
  Protocol protocol_ = Protocol::fcfs;
};

/// Scoped poll set: an epoll-like wait object over many receive circuits.
/// Senders on member circuits wake it exactly once per arming through a
/// lock-free ready push, so one server can wait on thousands of circuits
/// without receive_any's rotation scan.  Destroys the underlying set on
/// destruction (detaching members and waking any waiter).
class PollSet {
 public:
  PollSet() = default;
  PollSet(Facility facility, ProcessId pid, PollSetId id)
      : facility_(std::move(facility)), pid_(pid), id_(id) {}
  PollSet(PollSet&& other) noexcept { swap(other); }
  PollSet& operator=(PollSet&& other) noexcept {
    if (this != &other) {
      destroy();
      swap(other);
    }
    return *this;
  }
  PollSet(const PollSet&) = delete;
  PollSet& operator=(const PollSet&) = delete;
  ~PollSet() { destroy(); }

  /// Add a receive port's circuit to the set.  A circuit belongs to at
  /// most one poll set; the port stays usable for ordinary receives.
  void add(const ReceivePort& port) {
    throw_if_error(facility_.pollset_add(pid_, id_, port.id()),
                   "PollSet::add");
  }
  void remove(const ReceivePort& port) {
    throw_if_error(facility_.pollset_remove(pid_, id_, port.id()),
                   "PollSet::remove");
  }

  /// Block until a member circuit is ready (deliverable message or
  /// pending pulse) and return its LnvcId.  Level-triggered: a circuit
  /// left undrained is returned again by the next wait.
  [[nodiscard]] LnvcId wait() {
    LnvcId id = kInvalidLnvc;
    throw_if_error(facility_.pollset_wait(pid_, id_, &id), "PollSet::wait");
    return id;
  }
  /// Timed wait: false if nothing became ready within `timeout_ns`
  /// (Facility's contract: 0 polls, kNoTimeout waits forever).
  bool wait_for(std::uint64_t timeout_ns, LnvcId* out) {
    LnvcId id = kInvalidLnvc;
    const Status s = facility_.pollset_wait(pid_, id_, &id, timeout_ns);
    if (s == Status::timed_out) return false;
    throw_if_error(s, "PollSet::wait_for");
    if (out != nullptr) *out = id;
    return true;
  }

  /// Destroy now (idempotent; also run by the destructor).
  void destroy() {
    if (id_ != kInvalidPollSet) {
      facility_.pollset_destroy(pid_, id_);
      id_ = kInvalidPollSet;
    }
  }
  [[nodiscard]] PollSetId id() const noexcept { return id_; }
  [[nodiscard]] bool valid() const noexcept { return id_ != kInvalidPollSet; }

 private:
  void swap(PollSet& o) noexcept {
    std::swap(facility_, o.facility_);
    std::swap(pid_, o.pid_);
    std::swap(id_, o.id_);
  }
  Facility facility_;
  ProcessId pid_ = 0;
  PollSetId id_ = kInvalidPollSet;
};

/// Result of a multi-circuit receive: which port won, plus the usual
/// length/truncation information.
struct ReceivedAny {
  std::size_t index = 0;
  std::size_t length = 0;
  bool truncated = false;
};

/// Receive from whichever of `ports` delivers first; false if none
/// delivered within `timeout_ns` (Facility's contract: 0 polls, kNoTimeout
/// waits forever).  All ports must belong to the same participant (same
/// facility and pid).  The facility's rotation cursor persists across
/// timed-out calls, so fairness is preserved when the caller retries.
inline bool receive_any_for(Facility& facility, ProcessId pid,
                            std::span<ReceivePort* const> ports,
                            std::span<std::byte> buffer,
                            std::uint64_t timeout_ns, ReceivedAny* out) {
  // The id list lives on the stack for up to kInlineIds ports (no heap
  // allocation per call); only larger sets pay for a vector.
  constexpr std::size_t kInlineIds = 64;
  std::array<LnvcId, kInlineIds> inline_ids{};
  std::vector<LnvcId> heap_ids;
  std::span<LnvcId> ids(inline_ids.data(),
                        std::min(ports.size(), kInlineIds));
  if (ports.size() > kInlineIds) {
    heap_ids.resize(ports.size());
    ids = heap_ids;
  }
  for (std::size_t i = 0; i < ports.size(); ++i) ids[i] = ports[i]->id();
  std::size_t len = 0;
  std::size_t index = 0;
  const Status s = facility.receive_any(pid, ids, buffer.data(),
                                        buffer.size(), &len, &index,
                                        timeout_ns);
  if (s == Status::timed_out) return false;
  if (s == Status::truncated) {
    if (out != nullptr) *out = {index, len, true};
    return true;
  }
  throw_if_error(s, "receive_any");
  if (out != nullptr) *out = {index, len, false};
  return true;
}

/// Blocking receive_any_for.
inline ReceivedAny receive_any(Facility& facility, ProcessId pid,
                               std::span<ReceivePort* const> ports,
                               std::span<std::byte> buffer) {
  ReceivedAny out;
  receive_any_for(facility, pid, ports, buffer, Facility::kNoTimeout, &out);
  return out;
}

inline SendPort Participant::open_send(std::string_view name) {
  LnvcId id = kInvalidLnvc;
  throw_if_error(facility_.open_send(pid_, name, &id),
                 "Participant::open_send");
  return SendPort(facility_, pid_, id);
}

inline ReceivePort Participant::open_receive(std::string_view name,
                                             Protocol protocol) {
  LnvcId id = kInvalidLnvc;
  throw_if_error(facility_.open_receive(pid_, name, protocol, &id),
                 "Participant::open_receive");
  return ReceivePort(facility_, pid_, id, protocol);
}

inline PollSet Participant::create_pollset() {
  PollSetId id = kInvalidPollSet;
  throw_if_error(facility_.pollset_create(pid_, &id),
                 "Participant::create_pollset");
  return PollSet(facility_, pid_, id);
}

}  // namespace mpf
