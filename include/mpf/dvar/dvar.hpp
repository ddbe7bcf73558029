// Distributed variables over MPF — the paper's second motivating model.
//
// Paper §1: "a distributed variable exists in a name space that is global
// to the processes but accessible only by a message passing protocol with
// associated read and write operations ... Like LNVC's, a distributed
// variable permits multiple readers and writers."  (DeBenedictis 1986.)
//
// This layer realizes that model on LNVCs, which is the paper's own
// argument for the LNVC design's generality:
//
//   * DVar<T>        — a replicated register.  Writers broadcast the full
//     value on the circuit "dv.<name>"; every participant holds a
//     BROADCAST receive connection and applies updates in the circuit's
//     global time order, so all replicas converge through the identical
//     update sequence (last-writer-wins, totally ordered by the LNVC).
//   * Accumulator<T> — a commutative reduction variable.  Participants
//     broadcast deltas; every replica applies all deltas, so any
//     interleaving yields the same total.
//
// Consistency notes (tested):
//   * read() is "read your writes" and monotone per replica; replicas see
//     updates in the same order (LNVC time order).
//   * read-modify-write through a DVar is NOT atomic across processes —
//     use an Accumulator for commutative updates or coordinate externally.
//   * BROADCAST receivers only see messages sent after they join: create
//     all participants before the first write (e.g. under
//     apps::startup_barrier) or accept that late joiners start from
//     `initial` until the next write.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mpf/core/ports.hpp"

namespace mpf::dvar {

/// Replicated last-writer-wins register.
template <typename T>
  requires std::is_trivially_copyable_v<T>
class DVar {
 public:
  enum class Mode { read_only, read_write };

  DVar(Facility facility, ProcessId pid, std::string_view name, T initial,
       Mode mode = Mode::read_write)
      : value_(initial) {
    Participant self(facility, pid);
    const std::string circuit = "dv." + std::string(name);
    // Join as a reader first so our own writes are observed in global
    // order relative to everyone else's.
    rx_ = self.open_receive(circuit, Protocol::broadcast);
    if (mode == Mode::read_write) tx_ = self.open_send(circuit);
  }

  /// Apply all pending updates, then return the replica value.
  [[nodiscard]] T read() {
    refresh();
    return value_;
  }

  /// Publish a new value to every replica (including our own).
  void write(const T& v) {
    if (!tx_.open()) {
      throw MpfError(Status::not_connected, "DVar::write on read-only var");
    }
    tx_.send_value(v);
  }

  /// Drain pending updates; true if the replica changed.
  bool refresh() {
    if constexpr (sizeof(T) >= kViewThreshold) {
      try {
        return refresh_view();
      } catch (const MpfError& e) {
        // View table exhausted by the caller's own held views: fall back
        // to the copying drain rather than fail a read.
        if (e.status() != Status::table_full) throw;
      }
    }
    return refresh_copy();
  }

  /// True if an update is pending (stable: broadcast check_receive).
  [[nodiscard]] bool pending() { return rx_.check(); }

 private:
  /// Updates at or above this size are drained through zero-copy views:
  /// the value is read in place, and superseded updates (one or more
  /// newer ones already queued) are released unread — last-writer-wins
  /// means only the newest copy has to move at all.
  static constexpr std::size_t kViewThreshold = 256;

  bool refresh_copy() {
    bool changed = false;
    T incoming{};
    Received r{};
    std::vector<std::byte> buf(sizeof(T));
    while (rx_.receive_for(buf, 0, &r)) {
      if (r.length != sizeof(T)) continue;  // foreign traffic: ignore
      std::memcpy(&incoming, buf.data(), sizeof(T));
      value_ = incoming;
      changed = true;
    }
    return changed;
  }

  bool refresh_view() {
    bool changed = false;
    while (true) {
      MessageView v = rx_.receive_view(0);
      if (!v.valid()) break;
      if (v.length() != sizeof(T)) continue;  // foreign traffic: ignore
      if (rx_.check()) continue;  // superseded: a newer update is queued
      v.copy_to(std::as_writable_bytes(std::span<T, 1>(&value_, 1)));
      changed = true;
    }
    return changed;
  }

  T value_;
  SendPort tx_;
  ReceivePort rx_;
};

/// Commutative reduction variable: every participant's deltas reach every
/// replica exactly once, so all replicas converge to the same total.
template <typename T>
  requires std::is_trivially_copyable_v<T>
class Accumulator {
 public:
  Accumulator(Facility facility, ProcessId pid, std::string_view name,
              T zero = T{})
      : value_(zero) {
    Participant self(facility, pid);
    const std::string circuit = "dvacc." + std::string(name);
    rx_ = self.open_receive(circuit, Protocol::broadcast);
    tx_ = self.open_send(circuit);
  }

  /// Publish a delta; it will be folded into every replica.
  void add(const T& delta) { tx_.send_value(delta); }

  /// Fold pending deltas, then return the replica total.
  [[nodiscard]] T value() {
    T delta{};
    Received r{};
    std::vector<std::byte> buf(sizeof(T));
    while (rx_.receive_for(buf, 0, &r)) {
      if (r.length != sizeof(T)) continue;
      std::memcpy(&delta, buf.data(), sizeof(T));
      value_ += delta;
      ++folded_;
    }
    return value_;
  }

  /// Block until at least `count` deltas (from anyone) have been folded
  /// since construction; returns the total.  Handy for reductions with a
  /// known contribution count.
  [[nodiscard]] T value_after(std::size_t count) {
    while (folded_ < count) {
      T delta{};
      std::vector<std::byte> buf(sizeof(T));
      const Received r = rx_.receive(buf);
      if (r.length != sizeof(T)) continue;
      std::memcpy(&delta, buf.data(), sizeof(T));
      value_ += delta;
      ++folded_;
    }
    return value_;
  }

 private:
  T value_;
  std::size_t folded_ = 0;
  SendPort tx_;
  ReceivePort rx_;
};

}  // namespace mpf::dvar
