// Time-ordered event queue with stable FIFO tie-breaking, O(log n)
// cancellation and O(log n) in-place rescheduling.
//
// Events live in a slot array reused through a free list; an indexed binary
// heap orders the live slots by (time, seq). Each slot records its heap
// position, so cancel() removes the entry at once and reschedule() moves it
// without allocating a new event. An EventId packs (generation, slot index):
// releasing a slot bumps its generation, so a stale id (fired, cancelled, or
// naming a slot reused since) never touches a newer event.
//
// Events scheduled for the same instant fire in scheduling order, which makes
// simulations deterministic regardless of heap internals. reschedule() hands
// the event a fresh seq, so equal-time order is exactly what cancel() followed
// by push() would give.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace elastisim::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Enqueues a callback at absolute time `when`. Returns a handle usable
  /// with cancel() and reschedule(). `when` may equal the current simulation
  /// time; NaN throws util::CheckError (it would corrupt the heap order).
  EventId push(SimTime when, Callback callback);

  /// Cancels a pending event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op. Returns true if the event was
  /// still pending. The callback is released at once.
  bool cancel(EventId id);

  /// Moves a pending event to `when`, keeping its callback, and orders it
  /// after every event already scheduled for that instant (the order
  /// cancel() + push() gives). Returns false, changing nothing, if the event
  /// already fired or was cancelled. NaN throws util::CheckError.
  bool reschedule(EventId id, SimTime when);

  /// True if no live events remain.
  bool empty() const { return heap_.empty(); }

  /// Number of live (non-cancelled, non-fired) events.
  std::size_t size() const { return heap_.size(); }

  // Lifetime tallies for the profiler and the perf-trajectory benches; kept
  // always-on (one increment / compare per operation, negligible next to the
  // heap work they count).

  /// Total new events ever enqueued by push(); reschedule() moves an
  /// existing event and is not counted.
  std::uint64_t pushes() const { return pushes_; }

  /// Total live events ever popped (cancellations excluded).
  std::uint64_t pops() const { return pops_; }

  /// High-water mark of the live event count.
  std::size_t peak_size() const { return peak_size_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  SimTime next_time() const { return heap_.empty() ? kTimeInfinity : heap_.front().time; }

  /// Scheduled time of a pending event; nullopt once it fired or was
  /// cancelled.
  std::optional<SimTime> pending_time(EventId id) const;

  /// Removes and returns the earliest live event's callback, along with its
  /// time. Requires !empty().
  std::pair<SimTime, Callback> pop();

  /// Validates the heap order, that every live slot's heap position points
  /// back at it, and that live plus free slots account for every slot.
  /// Returns a description of the first broken invariant, or nullopt
  /// (core::InvariantChecker under --validate).
  std::optional<std::string> check_invariants() const;

 private:
  /// Heap entry: the ordering key travels with the slot index, so sifting
  /// compares without an indirection through the slot array.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Kept apart from the callbacks so every heap move writes into a dense
  /// 8-byte array.
  struct Slot {
    std::uint32_t generation = 1;  // never 0, so no id equals kInvalidEventId
    std::uint32_t heap_pos = kNotQueued;
  };

  static constexpr std::uint32_t kNotQueued = ~std::uint32_t{0};

  static bool before(const Entry& a, const Entry& b) {
    // elsim-lint: allow(float-equality) -- heap ordering wants exact times
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// The live slot `id` names, or nullptr for a stale/unknown id.
  const Slot* live_slot(EventId id) const;
  /// Writes `entry` at heap position `pos` and records the position.
  void place(std::size_t pos, const Entry& entry);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Removes the heap entry at `pos` and returns its slot to the free list.
  void remove_at(std::size_t pos);

  std::vector<Slot> slots_;
  std::vector<Callback> callbacks_;  // parallel to slots_
  std::vector<Entry> heap_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t pushes_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t pops_ = 0;
};

}  // namespace elastisim::sim
