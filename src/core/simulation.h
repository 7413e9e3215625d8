// One-call facade: wire up engine + cluster + batch system + recorder, run a
// workload to completion, and return the metrics. This is the one run path:
// the CLI, the sweep runner, the benchmark harnesses and the examples all
// run through it.
//
// Configuration is split along the sharing boundary the sweep orchestrator
// needs: RunConfig carries only *per-run* state (scheduler choice, sinks,
// cancellation), while the parsed platform and job list are shared inputs a
// caller may hold once and reuse across many concurrent runs (run_scenario).
// SimulationConfig remains the owning single-run convenience facade.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_system.h"
#include "platform/cluster.h"
#include "stats/metrics.h"
#include "workload/job.h"

namespace elastisim::sim {
class CancellationToken;
}  // namespace elastisim::sim

namespace elastisim::core {

struct FailureEvent;

/// Per-run state: everything that is unique to one simulation run and cheap
/// to set up, as opposed to the parsed platform/workload inputs that may be
/// shared (immutably) across a whole sweep.
struct RunConfig {
  BatchConfig batch;
  /// A make_scheduler() name.
  std::string scheduler = "fcfs";
  /// Observers attached to the run's batch system (not owned; must outlive
  /// the run): an EventTrace, DecisionJournal, StateSampler,
  /// ChromeTraceBuilder, or any other stats::RunObserver. The run adds the
  /// flight recorder (while FlightRecorder::enabled()), the telemetry
  /// counters (while telemetry::enabled()) and the invariant checker itself.
  std::vector<stats::RunObserver*> sinks;
  /// Runs a core::InvariantChecker for the whole run: every scheduling point
  /// and engine event re-validates the state machine, throwing
  /// InvariantViolation on the first breach. Also enabled by setting the
  /// ELSIM_VALIDATE environment variable to anything but "0", so examples
  /// and benches pick it up without code changes.
  bool validate = false;
  /// Cooperative cancellation (not owned; must outlive the run): when the
  /// token is cancelled the engine stops between events and the result comes
  /// back with `cancelled` set instead of the run being torn down mid-state.
  sim::CancellationToken* cancel = nullptr;
  /// Failure schedule applied before the run starts (not owned; nullptr =
  /// no injected failures). Per-run because failure seeds are a sweep axis.
  const std::vector<FailureEvent>* failures = nullptr;
};

/// Owning single-run configuration: RunConfig plus the platform. Kept as the
/// facade for examples/tests that configure one run in place.
struct SimulationConfig : RunConfig {
  platform::ClusterConfig platform;
};

struct SimulationResult {
  stats::Recorder recorder;
  std::size_t submitted = 0;
  std::size_t finished = 0;
  std::size_t killed = 0;
  /// Jobs still queued or running when the event queue drained (starvation /
  /// misconfiguration indicator; 0 in a healthy run), and their ids (queue
  /// order, then run order).
  std::size_t stuck = 0;
  std::vector<workload::JobId> stuck_ids;
  double makespan = 0.0;
  /// Host-side cost of the simulation, for the performance experiments.
  double wall_seconds = 0.0;
  std::uint64_t events_processed = 0;
  std::uint64_t rebalances = 0;
  // Work metrics for the profiler and the perf-trajectory benches (always
  // collected; the counters behind them are branch-free increments).
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_pops = 0;
  /// High-water mark of the live event count.
  std::uint64_t queue_peak = 0;
  /// Cumulative activities examined across fluid solves (divide by
  /// `rebalances` for the mean solve width).
  std::uint64_t activities_touched = 0;
  std::uint64_t activities_started = 0;
  std::uint64_t scheduler_invocations = 0;
  std::uint64_t scheduler_rounds = 0;
  /// Jobs presented to the scheduler summed over every round — the queue
  /// rescan work the policy actually performed (always counted).
  std::uint64_t scheduler_jobs_scanned = 0;
  /// Scheduling points and engine events the invariant checker validated
  /// (both 0 without validation).
  std::uint64_t validated_points = 0;
  std::uint64_t validated_events = 0;
  /// Process-wide peak RSS in bytes at the end of the run (monotone across
  /// runs in one process).
  std::uint64_t peak_rss_bytes = 0;
  /// True when an attached CancellationToken stopped the run early; the
  /// metrics above then describe a *partial* run (events up to the stop).
  bool cancelled = false;
};

/// Runs `jobs` on the configured platform under the configured scheduler.
/// Throws std::runtime_error for an unknown scheduler name, before any
/// observer sees anything.
SimulationResult run_simulation(const SimulationConfig& config, std::vector<workload::Job> jobs);

/// Shared-input variant for orchestrators: `platform` and `jobs` are parsed
/// once by the caller and shared (immutably — this function copies the job
/// list per run and never mutates either argument) across any number of
/// sequential or concurrent runs; everything run-specific rides in `run`.
/// Thread-safe with respect to other run_scenario calls on the same inputs
/// as long as the sinks in `run` are per-run objects.
SimulationResult run_scenario(const platform::ClusterConfig& platform,
                              const std::vector<workload::Job>& jobs,
                              const RunConfig& run);

/// Copies a finished run's work metrics into the global profiler's counter
/// set in the documented fixed order (docs/FORMATS.md): events, event-queue
/// push/pop/peak totals, fluid solve counts and widths, allocation tallies,
/// and the per-policy scheduler invocation/round counts. No-op when the
/// profiler is disabled.
void record_profile_counters(const SimulationResult& result, const std::string& scheduler);

}  // namespace elastisim::core
