// Run observers: the one notification stream every output sink consumes.
//
// The batch system states each fact of a run exactly once — a job changed
// state, a job resized, a node failed or was drained, a scheduling point
// began or ended — as a typed notification, and an ObserverList fans it out
// to every attached RunObserver: the event trace, decision journal, state
// sampler, Chrome trace, telemetry counters, invariant checker and flight
// recorder. Each scheduling point builds one Snapshot of the queue and
// cluster that all of them share. Sinks format their own details from the
// typed fields, so a run with nothing attached formats nothing and pays one
// branch per fact.
//
// The interface lives in stats so the sinks here can implement it without
// depending on the batch system; notifications carry ids, counts and a
// pointer to the job's immutable spec.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "workload/job.h"

namespace elastisim::stats {

/// What triggered a scheduling point.
enum class JournalCause {
  kSubmit,
  kFinish,
  kWalltime,
  kBoundary,
  kShrinkComplete,
  kFailure,
  kRepair,
  kMaintenance,
  kTimer,
  kCancel,
};

/// Machine-readable reason a job was held (or killed by the requeue guard).
enum class HoldReason {
  kNone,
  /// Not enough free nodes for the job's (minimum) size right now.
  kInsufficientNodes,
  /// A strictly ordered policy (FCFS) never looks past its blocked head.
  kQueuedBehindHead,
  /// Starting the job would delay a reservation held for a blocked leader.
  kBlockedByReservation,
  /// The job fits the spare nodes or the time window before the
  /// reservation's shadow time, but not both.
  kBackfillWindowTooSmall,
  /// Conservative backfilling: no hole in the reservation profile is both
  /// wide enough and long enough for the job's walltime before now.
  kWalltimeExceedsHole,
  /// The max_requeues guard converted a further eviction into a kill.
  kMaxRequeuesReached,
  /// Fallback stamped for queued jobs the scheduler gave no verdict (e.g. a
  /// custom scheduler without explain() calls).
  kNotConsidered,
};

/// Queue and cluster state at one instant. `total` is the cluster size;
/// `events`/`pending` count engine events processed and still queued.
struct Snapshot {
  double time = 0.0;
  int queued = 0;
  int running = 0;
  int free = 0;
  int failed = 0;
  int drained = 0;
  int total = 0;
  std::uint64_t events = 0;
  std::uint64_t pending = 0;

  int in_service() const { return total - failed - drained; }
};

/// One scheduling point. At point_begin `state` is what the scheduler is
/// about to see; at point_end it is the state after the scheduler converged,
/// `rounds`/`started` describe the pass and `queue` lists the jobs still
/// queued, in queue order.
struct SchedulingPoint {
  JournalCause cause = JournalCause::kTimer;
  Snapshot state;
  int rounds = 0;
  std::uint64_t started = 0;
  std::span<const workload::JobId> queue = {};
};

enum class JobChange : std::uint8_t {
  kSubmitted,  ///< reached its submit time
  kHeld,       ///< waits on dependencies
  kQueued,     ///< entered the queue, directly or released by its dependencies
  kCancelled,  ///< a dependency failed before the job ran
  kStarted,    ///< `nodes` = the allocation
  kRestarted,  ///< the started job resumes from its checkpoint
  kBoundary,   ///< paused at a phase boundary; `nodes` = the allocation
  kFinished,   ///< `nodes` = the nodes given back (also below)
  kTimedOut,   ///< killed at its walltime limit
  kKilled,     ///< killed after `failed_node` failed (`requeue_limit`: by the guard)
  kRequeued,   ///< evicted by `failed_node`, losing `lost_node_seconds` of work
};

/// A job transition. The event trace (delivered first) stores the sequence
/// number of the entry it recorded in `trace_seq`, so later observers can
/// link to it; it stays 0 without a trace.
struct JobEvent {
  double time = 0.0;
  JobChange change = JobChange::kSubmitted;
  const workload::Job* job = nullptr;
  std::span<const std::uint32_t> nodes = {};
  std::uint32_t failed_node = 0;
  bool requeue_limit = false;
  double lost_node_seconds = 0.0;
  /// kRestarted / kRequeued: the checkpoint the job resumes from, if any.
  bool checkpointed = false;
  std::size_t checkpoint_phase = 0;
  int checkpoint_iteration = 0;
  mutable std::uint64_t trace_seq = 0;
};

enum class ResizeChange : std::uint8_t {
  kTarget,    ///< the scheduler set a new target size
  kEvolving,  ///< the application asked for `to` nodes; `granted` or not
  kExpanded,  ///< grew; `nodes` = the nodes added
  kShrunk,    ///< shrink done; `nodes` = the nodes given back
};

/// A job resize from `from` to `to` nodes; `trace_seq` as in JobEvent.
struct ResizeEvent {
  double time = 0.0;
  ResizeChange change = ResizeChange::kTarget;
  const workload::Job* job = nullptr;
  int from = 0;
  int to = 0;
  std::span<const std::uint32_t> nodes = {};
  bool granted = false;
  mutable std::uint64_t trace_seq = 0;
};

enum class FaultChange : std::uint8_t { kFailed, kRepaired, kDrained, kUndrained };

struct FaultEvent {
  double time = 0.0;
  FaultChange change = FaultChange::kFailed;
  std::uint32_t node = 0;
};

struct RunEnd {
  double time = 0.0;
  std::uint64_t events = 0;
  bool cancelled = false;
  int cancel_reason = 0;  ///< sim::CancelReason when cancelled
  double wall_seconds = 0.0;
};

/// Human-readable detail ("node 3 failed, lost 120 node-seconds", "+8
/// granted", "16->32"), shared by the trace, journal and Chrome trace.
std::string describe(const JobEvent& event);
std::string describe(const ResizeEvent& event);

class RunObserver {
 public:
  /// Delivery order within the fan-out, whatever the attach order: the
  /// event trace is kFirst so its sequence numbers reach the journal; the
  /// invariant checker is kLast so it sees what every other sink made of a
  /// fact.
  enum class Order { kFirst, kNormal, kLast };

  virtual ~RunObserver() = default;

  virtual Order order() const { return Order::kNormal; }
  /// Simulated seconds between on_tick calls; 0 = none. Observers share the
  /// smallest cadence attached.
  virtual double cadence() const { return 0.0; }
  /// Whether on_hold is consumed; schedulers compose no hold details unless
  /// some observer wants them.
  virtual bool wants_holds() const { return false; }

  virtual void on_run_begin(double /*time*/, std::size_t /*submitted*/) {}
  virtual void on_run_end(const RunEnd&) {}
  virtual void on_job(const JobEvent&) {}
  virtual void on_resize(const ResizeEvent&) {}
  virtual void on_fault(const FaultEvent&) {}
  virtual void on_hold(workload::JobId, HoldReason, const std::string& /*detail*/) {}
  virtual void on_point_begin(const SchedulingPoint&) {}
  virtual void on_point_end(const SchedulingPoint&) {}
  virtual void on_tick(const Snapshot&) {}
};

/// The fan-out: attached observers (not owned), in delivery order.
class ObserverList {
 public:
  /// Attaches `observer` after every observer of the same or an earlier Order.
  void attach(RunObserver& observer);

  bool empty() const { return observers_.empty(); }
  bool wants_holds() const { return wants_holds_; }
  double cadence() const { return cadence_; }

  /// The first attached observer of type T, or nullptr.
  template <typename T>
  T* find() const {
    for (RunObserver* observer : observers_) {
      if (auto* found = dynamic_cast<T*>(observer)) return found;
    }
    return nullptr;
  }

  /// Delivers one notification to every observer, in order:
  ///   observers.emit(&RunObserver::on_fault, FaultEvent{...});
  template <typename... Params, typename... Args>
  void emit(void (RunObserver::*hook)(Params...), const Args&... args) const {
    for (RunObserver* observer : observers_) (observer->*hook)(args...);
  }

 private:
  std::vector<RunObserver*> observers_;
  bool wants_holds_ = false;
  double cadence_ = 0.0;
};

}  // namespace elastisim::stats
