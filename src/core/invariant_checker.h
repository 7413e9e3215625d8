// Runtime state validator (the --validate machinery).
//
// The batch system's correctness rests on a handful of conservation laws:
// every cluster node is in exactly one of {free, failed, drained, allocated
// to one job}, the queue/running orders agree with the per-job states,
// simulated time and trace sequence numbers only move forward, fluid-model
// progress stays within [0, 1], and the journal/sampler snapshots agree with
// the live queue. In debug builds scattered assert()s cover fragments of
// this; the InvariantChecker re-verifies the whole state machine in release
// builds, at every scheduling point and (cheaply) at every engine event.
//
// Wire-up: construct one checker per run and call attach(engine, batch): it
// installs the per-event clock/fluid checks on the engine and joins the
// batch system's observers, last in delivery order, for the scheduling-point
// checks. The trace, journal and sampler it cross-checks are the ones in the
// same observer list. A broken invariant throws InvariantViolation with a
// diagnostic naming the offending job/node and the last committed journal
// sequence number. Overhead is a few percent (set-walks at
// scheduling points, one branch per engine event); see docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/observer.h"

namespace elastisim::sim {
class Engine;
}  // namespace elastisim::sim

namespace elastisim::stats {
class DecisionJournal;
class EventTrace;
class StateSampler;
}  // namespace elastisim::stats

namespace elastisim::core {

class BatchSystem;

/// Thrown on the first broken invariant; what() names the offending
/// job/node, the simulated time, and the last committed journal seq.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what) : std::runtime_error(what) {}
};

class InvariantChecker final : public stats::RunObserver {
 public:
  /// `fluid_stride`: run the full fluid-model validation every N engine
  /// events (the per-event hook otherwise only checks clock monotonicity,
  /// keeping the hot path to one comparison). `full_state_stride`: every
  /// scheduling point gets the O(active) allocation/conservation check; the
  /// O(all jobs) queue-agreement walk runs every N points (violations are
  /// persistent, so a strided walk still catches them — just a few points
  /// later). Pass 1 to walk everything at every point.
  explicit InvariantChecker(std::uint32_t fluid_stride = 64,
                            std::uint32_t full_state_stride = 32)
      : fluid_stride_(fluid_stride == 0 ? 1 : fluid_stride),
        full_state_stride_(full_state_stride == 0 ? 1 : full_state_stride) {}

  /// Installs the per-event validation hook on `engine` and attaches to
  /// `batch`'s observers. The checker must outlive the run.
  void attach(sim::Engine& engine, BatchSystem& batch);

  Order order() const override { return Order::kLast; }
  /// Captures the live queue counts the scheduler is about to see.
  void on_point_begin(const stats::SchedulingPoint& point) override;
  /// Re-validates the whole batch state and cross-checks the journal record
  /// and state sample this scheduling point produced.
  void on_point_end(const stats::SchedulingPoint& point) override;

  /// Number of full scheduling-point validations performed.
  std::uint64_t scheduling_point_checks() const { return checks_; }
  /// Number of engine events observed by the per-event hook.
  std::uint64_t events_checked() const { return events_checked_; }

 private:
  [[noreturn]] void fail(const BatchSystem* batch, double now, const std::string& what) const;
  void check_batch_state(const BatchSystem& batch);
  /// O(running jobs + nodes) check run at every scheduling point: node
  /// allocation ownership, pool disjointness, and conservation. Returns
  /// false on the first anomaly without composing a message.
  bool quick_state_ok(const BatchSystem& batch);
  /// Allocation-free single pass over ALL jobs (state counts, queue/run
  /// order agreement, unfinished counter); returns false on the first
  /// anomaly without composing a message.
  bool batch_state_ok(const BatchSystem& batch);
  /// Sorted re-walk taken only after batch_state_ok() failed, so the thrown
  /// diagnostic is identical across runs regardless of hash order.
  void check_batch_state_detailed(const BatchSystem& batch);
  void check_sinks(const BatchSystem& batch);
  void on_engine_event(sim::Engine& engine, double now);

  const BatchSystem* batch_ = nullptr;
  // Sinks in the batch system's observer list, found at the first point.
  bool sinks_found_ = false;
  const stats::EventTrace* trace_ = nullptr;
  const stats::DecisionJournal* journal_ = nullptr;
  const stats::StateSampler* sampler_ = nullptr;

  std::uint32_t fluid_stride_;
  std::uint32_t full_state_stride_;
  std::uint32_t events_since_fluid_check_ = 0;
  std::uint32_t points_since_full_walk_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t events_checked_ = 0;

  // Monotonicity watermarks.
  double last_event_time_ = 0.0;
  double last_point_time_ = 0.0;
  std::uint64_t last_trace_checked_ = 0;  // trace entries validated so far
  std::uint64_t last_trace_seq_ = 0;
  double last_trace_time_ = 0.0;
  std::uint64_t last_journal_seq_ = 0;

  // Queue snapshot captured by the begin hook, cross-checked against the
  // journal record the scheduling point commits.
  bool begin_seen_ = false;
  int begin_queued_ = 0;
  int begin_running_ = 0;
  int begin_free_ = 0;
  int begin_total_ = 0;
  std::size_t begin_journal_size_ = 0;

  // Node-to-owning-job scratch for batch_state_ok, kept across checks so the
  // hot path performs no allocations (entries are re-assigned every pass).
  std::vector<std::uint64_t> owner_scratch_;
};

}  // namespace elastisim::core
