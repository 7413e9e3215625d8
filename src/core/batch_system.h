// The batch system: job queue, node bookkeeping, scheduling points, and the
// malleable-reconfiguration protocol.
//
// Scheduling points (each triggers Scheduler::schedule):
//   - job submission,
//   - job completion and walltime kill,
//   - an application phase boundary (where pending resize decisions and
//     evolving requests are mediated),
//   - completion of a shrink's data redistribution (nodes become free),
//   - an optional periodic timer.
//
// Resize protocol: the scheduler records a *target size* for a running
// malleable/evolving job at any scheduling point; the batch system applies
// it at the job's next phase boundary. Shrinks always apply; growth is
// limited by the nodes free at that moment. Expansion occupies the new nodes
// when redistribution starts; shrunk-away nodes are released only after the
// redistribution transfer completes.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/job_execution.h"
#include "core/scheduler.h"
#include "platform/cluster.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "stats/observer.h"
#include "workload/job.h"

namespace elastisim::core {

class InvariantChecker;

/// How the batch system maps a node-count decision onto concrete nodes.
enum class PlacementPolicy {
  /// Lowest free node ids (simple, deterministic baseline).
  kLowestId,
  /// Fill the emptiest pods first, keeping each job in as few pods as
  /// possible (minimizes pod-uplink traffic for intra-job communication).
  kCompact,
  /// Round-robin across pods (maximizes per-job injection/pod bandwidth at
  /// the price of more inter-pod traffic).
  kSpread,
};

/// What happens to a job whose node fails underneath it.
enum class FailurePolicy {
  /// The job is terminated and recorded as killed.
  kKill,
  /// The job loses all progress and re-enters the queue (resubmission).
  kRequeue,
  /// The job re-enters the queue and, when restarted, resumes from its last
  /// completed checkpoint (IoTask::checkpoint) instead of from scratch,
  /// paying BatchConfig::restart_overhead. Jobs without checkpoints behave
  /// exactly like kRequeue.
  kRequeueRestart,
};

std::string to_string(FailurePolicy policy);
std::optional<FailurePolicy> failure_policy_from_string(std::string_view name);

struct BatchConfig {
  /// Periodic scheduler invocation interval; 0 disables the timer (the
  /// scheduler still runs at every event-driven scheduling point).
  double scheduling_interval = 0.0;
  /// Model the data-redistribution cost of reconfigurations. Disabling it
  /// makes resizes free (the R7 ablation).
  bool charge_reconfiguration = true;
  /// Reaction to injected node failures.
  FailurePolicy failure_policy = FailurePolicy::kRequeue;
  /// Seconds of recovery work (checkpoint read-back, re-initialization) a
  /// kRequeueRestart job pays on its allocation before resuming.
  double restart_overhead = 0.0;
  /// Requeues a job may accumulate before a further eviction kills it
  /// instead (guards against requeue thrashing under heavy churn);
  /// 0 = unlimited.
  int max_requeues = 0;
  /// Node-selection strategy for starts and expansions.
  PlacementPolicy placement = PlacementPolicy::kLowestId;
};

class BatchSystem final : public SchedulerContext {
 public:
  BatchSystem(sim::Engine& engine, const platform::Cluster& cluster,
              std::unique_ptr<Scheduler> scheduler, stats::Recorder& recorder,
              BatchConfig config = {});
  ~BatchSystem() override;

  /// Registers a job; it enters the queue at job.submit_time. Jobs whose
  /// minimum size exceeds the cluster are rejected (returns false).
  bool submit(workload::Job job);
  std::size_t submit_all(std::vector<workload::Job> jobs);

  /// Attaches an observer (not owned; must outlive the batch system) to the
  /// run's one notification stream: job transitions, resizes, faults, and a
  /// shared snapshot at the begin and end of every scheduling point (see
  /// stats/observer.h). With nothing attached each fact costs one branch.
  void attach(stats::RunObserver& observer) { observers_.attach(observer); }
  const stats::ObserverList& observers() const { return observers_; }

  /// Test-only corruption hook: re-inserts the first node allocated to `job`
  /// into the free pool, deliberately breaking allocation conservation so
  /// tests can prove the InvariantChecker catches a double allocation.
  /// Returns false when the job holds no nodes.
  bool test_corrupt_double_allocation(workload::JobId job);

  /// Schedules node `node` to fail at `fail_time` and (optionally) return to
  /// service at `repair_time`. A failed node leaves the free pool; a job
  /// running on it is killed or requeued per BatchConfig::failure_policy.
  /// Overlapping injections for one node union their outage windows: the
  /// node returns to service only once the latest scheduled repair passes.
  /// Call before or during the simulation. Returns false (and injects
  /// nothing) for invalid input: a node outside the cluster, a non-finite or
  /// negative fail time, or a repair before the failure.
  bool inject_failure(platform::NodeId node, double fail_time,
                      double repair_time = std::numeric_limits<double>::infinity());

  /// Graceful maintenance drain: from `when`, the node accepts no new work;
  /// if busy, the running job finishes (or resizes away) normally and only
  /// then does the node leave service. undrain at `until` (infinity = stay
  /// drained).
  void drain_node(platform::NodeId node, double when,
                  double until = std::numeric_limits<double>::infinity());

  /// Post-run introspection.
  std::size_t finished_jobs() const { return finished_; }
  std::size_t killed_jobs() const { return killed_; }
  std::size_t cancelled_jobs() const { return cancelled_; }
  std::size_t held_jobs() const { return held_; }
  std::size_t requeued_jobs() const { return requeues_; }
  std::size_t failed_nodes_now() const { return failed_nodes_.size(); }
  std::size_t drained_nodes_now() const { return drained_nodes_.size(); }
  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_.size(); }
  Scheduler& scheduler_algorithm() { return *scheduler_; }

  /// Scheduling points executed and scheduler passes inside them (the
  /// "resolve count per scheduling point" profiler metric; always counted,
  /// telemetry on or off).
  std::uint64_t scheduler_invocations() const { return scheduler_invocations_; }
  std::uint64_t scheduler_rounds() const { return scheduler_rounds_; }

  /// Jobs presented to the scheduler summed over every round (queued +
  /// running rows); the per-invocation rescan cost that dominates large
  /// workloads. Always counted, like the invocation/round counters.
  std::uint64_t scheduler_jobs_scanned() const { return scheduler_jobs_scanned_; }

  /// Concrete nodes a job currently occupies (empty when not running).
  std::vector<platform::NodeId> nodes_of(workload::JobId id) const;

  /// Ids of jobs still queued or running — the "stuck" population when the
  /// event queue drains with work left over (queue order, then run order).
  std::vector<workload::JobId> unfinished_job_ids() const;

  // --- SchedulerContext ----------------------------------------------------
  double now() const override;
  int total_nodes() const override;
  int free_nodes() const override;
  const std::vector<QueuedJob>& queue() const override { return queue_; }
  const std::vector<RunningJob>& running() const override { return running_; }
  double user_usage(const std::string& user) const override;
  void start_job(workload::JobId id, int nodes) override;
  void set_target(workload::JobId id, int nodes) override;
  bool explaining() const override { return observers_.wants_holds(); }
  void explain(workload::JobId id, stats::HoldReason reason,
               std::string detail = std::string()) override;

 private:
  /// The checker reads the private pools/rows directly so validation needs
  /// no public surface area beyond the attach call.
  friend class InvariantChecker;

  enum class JobState {
    kPending,    // submitted, submit_time not reached
    kHeld,       // waiting on dependencies
    kQueued,
    kRunning,
    kAtBoundary,
    kFinished,
    kKilled,
    kCancelled,  // dependency failed before the job ran
  };

  struct Managed {
    workload::Job job;
    JobState state = JobState::kPending;
    std::vector<platform::NodeId> nodes;
    std::unique_ptr<JobExecution> execution;
    double start_time = -1.0;
    sim::EventId walltime_event = sim::kInvalidEventId;
    /// Durable progress carried across requeues (kRequeueRestart): the next
    /// start resumes here instead of the first iteration.
    ExecutionProgress checkpoint;
    /// Evictions this job has survived (the max_requeues guard's counter).
    int requeue_count = 0;
    /// Scheduler-requested size; -1 = none.
    int pending_target = -1;
    /// Evolving delta captured at the current boundary.
    int boundary_delta = 0;
    /// Dependencies not yet finished (held jobs only).
    std::set<workload::JobId> outstanding_deps;
  };

  Managed& managed(workload::JobId id);
  const Managed& managed(workload::JobId id) const;

  void enter_queue(workload::JobId id);
  /// Dependency bookkeeping: release or cancel the dependents of `id`.
  void resolve_dependents(workload::JobId id, bool succeeded);
  void cancel_job(Managed& job);
  void fail_node(platform::NodeId node, double repair_time);
  void restore_node(platform::NodeId node);
  /// Terminal kill shared by the kKill policy and the max_requeues guard
  /// (`requeue_limit`); `released` are the nodes the eviction gave back.
  void kill_evicted_job(Managed& job, platform::NodeId failed_node, bool requeue_limit,
                        const std::vector<platform::NodeId>& released);
  void start_drain(platform::NodeId node);
  void undrain_node(platform::NodeId node);
  /// Returns a node to service after a job releases it, honoring failure
  /// and drain state.
  void return_node(platform::NodeId node);
  /// Evicts the victim of `failed_node`'s failure (requeue or kill per the
  /// failure policy); the node id rides the notification so the requeue
  /// cause is attributable.
  void evict_job(Managed& job, platform::NodeId failed_node);
  void handle_boundary(workload::JobId id, int evolving_delta);
  void process_boundary(workload::JobId id);
  void apply_resize(Managed& job, int target);
  void handle_completion(workload::JobId id);
  void handle_walltime(workload::JobId id);
  /// Returns every node of `job` to service and hands them back (for the
  /// notification that reports the release).
  std::vector<platform::NodeId> release_all_nodes(Managed& job);
  std::vector<platform::NodeId> take_free_nodes(int count);

  /// Runs the scheduler to quiescence; `cause` is what triggered the
  /// scheduling point (recorded as the journal record's cause).
  void invoke_scheduler(stats::JournalCause cause);
  /// Copies `job`'s allocation size and pending target into its running row.
  void update_running_row(const Managed& job);
  void arm_timer();
  /// Queue/cluster state now, shared by every observer of one notification.
  stats::Snapshot snapshot() const;
  /// Emit a notification when anything observes the run (one branch
  /// otherwise).
  void notify(stats::JobChange change, const Managed& job,
              std::span<const platform::NodeId> nodes = {});
  void notify_resize(stats::ResizeChange change, const Managed& job, int from, int to,
                     std::span<const platform::NodeId> nodes = {}, bool granted = false);
  void notify_fault(stats::FaultChange change, platform::NodeId node);
  /// Cadence tick for observers that sample on a fixed simulated interval.
  void arm_tick();

  sim::Engine* engine_;
  const platform::Cluster* cluster_;
  std::unique_ptr<Scheduler> scheduler_;
  stats::Recorder* recorder_;
  stats::ObserverList observers_;
  BatchConfig config_;

  std::unordered_map<workload::JobId, std::unique_ptr<Managed>> jobs_;
  std::unordered_map<workload::JobId, std::vector<workload::JobId>> dependents_;
  /// The only ordered job state: queued jobs in queue-entry order, running
  /// jobs in start order. Each row is updated where its job changes; the
  /// scheduler, the journal and the invariant checker all read these.
  std::vector<QueuedJob> queue_;
  std::vector<RunningJob> running_;
  std::set<platform::NodeId> free_nodes_;
  std::set<platform::NodeId> failed_nodes_;
  std::set<platform::NodeId> drained_nodes_;      // out of service, intact
  std::set<platform::NodeId> drain_pending_;      // busy; drain on release
  /// Nodes that were drained (or drain-pending) when they failed: repair
  /// returns them to the drain, not to service.
  std::set<platform::NodeId> drain_on_repair_;
  /// Latest scheduled repair per currently failed node; a repair event only
  /// restores the node once no later outage window covers it.
  std::unordered_map<platform::NodeId, double> repair_until_;

  std::size_t finished_ = 0;
  std::size_t killed_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t held_ = 0;
  std::size_t requeues_ = 0;
  std::uint64_t scheduler_invocations_ = 0;
  std::uint64_t scheduler_rounds_ = 0;
  std::uint64_t scheduler_jobs_scanned_ = 0;
  /// Lifetime job starts (always counted); invoke_scheduler diffs it across
  /// one scheduling point to get the flight record's started-count payload.
  std::uint64_t starts_total_ = 0;
  std::size_t unfinished_ = 0;  // queued + running; timer stops at zero

  bool in_scheduler_ = false;
  bool rerun_scheduler_ = false;
  bool timer_armed_ = false;
  bool tick_armed_ = false;
};

}  // namespace elastisim::core
