#include "sim/event_queue.h"

#include <cassert>
#include <cmath>

#include "util/check.h"
#include "util/fmt.h"

namespace elastisim::sim {

namespace {
std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id); }
std::uint32_t generation_of(EventId id) { return static_cast<std::uint32_t>(id >> 32); }
}  // namespace

const EventQueue::Slot* EventQueue::live_slot(EventId id) const {
  const std::uint32_t index = slot_of(id);
  if (index >= slots_.size()) return nullptr;
  const Slot& slot = slots_[index];
  if (slot.generation != generation_of(id) || slot.heap_pos == kNotQueued) return nullptr;
  return &slot;
}

void EventQueue::place(std::size_t pos, const Entry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos) {
  const Entry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

// Bottom-up: walk the hole down to a leaf along the smaller children, then
// sift the entry back up from there. A sifted-down entry usually belongs near
// the bottom, so this saves about half the comparisons of the textbook loop.
// Callers only sift down an entry that does not order before its parent.
void EventQueue::sift_down(std::size_t pos) {
  const Entry entry = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    place(pos, heap_[child]);
    pos = child;
  }
  heap_[pos] = entry;
  sift_up(pos);
}

void EventQueue::remove_at(std::size_t pos) {
  const std::uint32_t index = heap_[pos].slot;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }
  Slot& slot = slots_[index];
  callbacks_[index] = nullptr;  // free captured resources promptly
  slot.heap_pos = kNotQueued;
  if (++slot.generation == 0) slot.generation = 1;
  // elsim-lint: allow(hot-container-growth) -- amortized; bounded by the peak live count
  free_slots_.push_back(index);
}

// elsim-hot: every new event passes through here.
EventId EventQueue::push(SimTime when, Callback callback) {
  ELSIM_CHECK(!std::isnan(when), "event time is NaN");
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[index] = std::move(callback);
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    // elsim-lint: allow(hot-container-growth) -- amortized; the slot array only grows to the peak live count
    slots_.emplace_back();
    // elsim-lint: allow(hot-container-growth) -- grows with slots_
    callbacks_.push_back(std::move(callback));
  }
  // elsim-lint: allow(hot-container-growth) -- amortized; the heap only grows to the peak live count
  heap_.push_back(Entry{when, next_seq_++, index});
  sift_up(heap_.size() - 1);
  ++pushes_;
  if (heap_.size() > peak_size_) peak_size_ = heap_.size();
  return (static_cast<EventId>(slots_[index].generation) << 32) | index;
}

bool EventQueue::cancel(EventId id) {
  const Slot* slot = live_slot(id);
  if (slot == nullptr) return false;
  remove_at(slot->heap_pos);
  return true;
}

// elsim-hot: every activity's completion event moves through here per solve.
bool EventQueue::reschedule(EventId id, SimTime when) {
  ELSIM_CHECK(!std::isnan(when), "event time is NaN");
  const Slot* slot = live_slot(id);
  if (slot == nullptr) return false;
  const std::size_t pos = slot->heap_pos;
  Entry& entry = heap_[pos];
  entry.time = when;
  entry.seq = next_seq_++;
  if (pos > 0 && before(entry, heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
  return true;
}

std::optional<SimTime> EventQueue::pending_time(EventId id) const {
  const Slot* slot = live_slot(id);
  if (slot == nullptr) return std::nullopt;
  return heap_[slot->heap_pos].time;
}

// elsim-hot: every dispatched event passes through here.
std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  assert(!heap_.empty() && "pop() on empty event queue");
  const Entry top = heap_.front();
  Callback callback = std::move(callbacks_[top.slot]);
  remove_at(0);
  ++pops_;
  return {top.time, std::move(callback)};
}

std::optional<std::string> EventQueue::check_invariants() const {
  for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
    const Entry& entry = heap_[pos];
    if (entry.slot >= slots_.size() || pos != slots_[entry.slot].heap_pos) {
      return util::fmt("event queue: heap entry {} names slot {} which does not point back",
                       pos, entry.slot);
    }
    if (pos > 0 && before(entry, heap_[(pos - 1) / 2])) {
      return util::fmt("event queue: heap order broken at position {} (t={}, seq {})", pos,
                       entry.time, entry.seq);
    }
  }
  std::size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.heap_pos != kNotQueued) ++live;
  }
  if (live != heap_.size() || live + free_slots_.size() != slots_.size()) {
    return util::fmt("event queue: {} live slots and {} free of {}, but {} heap entries", live,
                     free_slots_.size(), slots_.size(), heap_.size());
  }
  return std::nullopt;
}

}  // namespace elastisim::sim
