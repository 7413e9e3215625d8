// Discrete-event simulation engine: clock, event loop, and fluid model.
//
// Single-threaded and deterministic: events at equal times fire in the order
// they were scheduled. The engine owns the FluidModel; activity completions
// are ordinary events, so user callbacks observe a consistent clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/cancellation.h"
#include "sim/event_queue.h"
#include "sim/fluid.h"
#include "sim/time.h"

namespace elastisim::sim {

class Engine {
 public:
  Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules a callback at absolute time `when` (>= now, clamped to now
  /// otherwise: an event can never fire in the past).
  EventId schedule_at(SimTime when, EventQueue::Callback callback);

  /// Schedules a callback `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, EventQueue::Callback callback);

  /// Cancels a pending event; no-op if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until no events remain. Returns the final simulated time.
  SimTime run();

  /// Runs until the clock would pass `deadline`; events at exactly
  /// `deadline` are processed. Returns the final simulated time.
  SimTime run_until(SimTime deadline);

  /// Attaches a cooperative cancellation token (not owned; must outlive the
  /// run). run()/run_until() check it between events and return early once
  /// it is cancelled, leaving the pending queue intact; the engine publishes
  /// (events processed, simulated time) through it after every event so an
  /// external watchdog can detect stalls. Pass nullptr to detach; absent,
  /// the event loop carries no extra cost.
  void set_cancellation(CancellationToken* token) { cancel_ = token; }

  /// True once an attached token asked the run to stop.
  bool cancel_requested() const { return cancel_ != nullptr && cancel_->cancelled(); }

  /// Processes exactly one event. Returns false if none remain.
  bool step();

  /// Number of events processed so far (for performance benches).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Number of live pending events.
  std::size_t pending_events() const { return queue_.size(); }

  /// Read access to the queue's lifetime tallies (pushes/pops/peak size) for
  /// the profiler and the perf-trajectory benches.
  const EventQueue& queue() const { return queue_; }

  /// Installs a validation hook called after every dispatched event with the
  /// current simulated time (core::InvariantChecker under --validate). Pass
  /// an empty function to remove; costs one branch per event when absent.
  void set_event_validator(std::function<void(SimTime)> validator) {
    validator_ = std::move(validator);
  }

  /// Per-event observer signature: (context, event time, events processed so
  /// far, this event included).
  using EventHook = void (*)(void* ctx, SimTime now, std::uint64_t events);

  /// Installs an observer called on every event *before* its callback runs,
  /// so a crash inside the callback still leaves the dying event on record
  /// (the core::FlightRecorder rides this). Raw function pointer + context —
  /// unlike the validator there is deliberately no std::function here; the
  /// hook fires once per event and must stay a predictable branch. Pass
  /// nullptr to remove.
  void set_event_hook(EventHook hook, void* ctx) {
    event_hook_ = hook;
    event_hook_ctx_ = ctx;
  }

  FluidModel& fluid() { return *fluid_; }
  const FluidModel& fluid() const { return *fluid_; }

 private:
  SimTime now_ = 0.0;
  EventQueue queue_;
  std::unique_ptr<FluidModel> fluid_;
  std::uint64_t events_processed_ = 0;
  std::function<void(SimTime)> validator_;
  CancellationToken* cancel_ = nullptr;
  EventHook event_hook_ = nullptr;
  void* event_hook_ctx_ = nullptr;
};

}  // namespace elastisim::sim
