// Job model: the four adaptivity classes of the Feitelson/Rudolph taxonomy.
//
//   rigid     — runs on exactly `requested_nodes`, fixed for its lifetime.
//   moldable  — the scheduler picks any size in [min_nodes, max_nodes] at
//               start; the size is then fixed.
//   malleable — like moldable, but the scheduler may also expand/shrink the
//               job at its scheduling points (phase boundaries).
//   evolving  — the *application* requests size changes at phase boundaries
//               (Phase::evolving_delta); the scheduler grants or denies.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "workload/application.h"

namespace elastisim::workload {

using JobId = std::uint64_t;

enum class JobType { kRigid, kMoldable, kMalleable, kEvolving };

std::string to_string(JobType type);
std::optional<JobType> job_type_from_string(std::string_view name);

struct Job {
  JobId id = 0;
  JobType type = JobType::kRigid;
  std::string name;
  std::string user;

  /// Seconds since simulation start.
  double submit_time = 0.0;

  /// Rigid jobs run on exactly this many nodes; adaptive types use it as the
  /// preferred / initial size.
  int requested_nodes = 1;
  /// Adaptive size bounds; rigid jobs have min == max == requested.
  int min_nodes = 1;
  int max_nodes = 1;

  /// Hard kill limit in seconds; infinity = none.
  double walltime_limit = std::numeric_limits<double>::infinity();

  /// Scheduling priority; higher is more urgent. Only priority-aware
  /// algorithms ("priority") look at it; 0 is the neutral default.
  int priority = 0;

  /// Per-node memory requirement in bytes; jobs are rejected at submission
  /// when the platform's nodes are smaller. 0 = no requirement.
  double memory_bytes_per_node = 0.0;

  /// Workflow dependencies ("afterok" semantics): the job enters the queue
  /// only after every listed job finished successfully. If any dependency is
  /// killed, this job is cancelled. Dependencies must reference jobs
  /// submitted *before* this one, which makes cycles unrepresentable.
  std::vector<JobId> dependencies;

  Application application;

  bool is_adaptive() const { return type != JobType::kRigid; }
  bool can_resize_at_runtime() const {
    return type == JobType::kMalleable || type == JobType::kEvolving;
  }

  /// Clamps a proposed node count into the job's legal range.
  int clamp_nodes(int nodes) const;

  /// Validates invariants (bounds ordered, at least one phase, positive
  /// sizes); returns an error description or nullopt when valid.
  std::optional<std::string> validate() const;
};

// The batch system's queue and running rows, which the scheduler interface
// and the decision journal both read. They live here, below core and stats.
// Time-derived figures are computed on read from `now`.

struct QueuedJob {
  const Job* job;
  /// Seconds the job has been waiting at `now`.
  double waiting_for(double now) const { return now - job->submit_time; }
};

struct RunningJob {
  const Job* job;
  double start_time;
  /// Current allocation size (including a reconfiguration in progress).
  int nodes;
  /// Pending resize target (equal to `nodes` when none).
  int pending_target;
  /// Walltime-based upper bound on the remaining runtime at `now` (the
  /// estimate backfilling relies on); never negative, infinite without a
  /// walltime limit.
  double estimated_remaining(double now) const {
    if (!std::isfinite(job->walltime_limit)) return std::numeric_limits<double>::infinity();
    return std::max(0.0, start_time + job->walltime_limit - now);
  }
};

}  // namespace elastisim::workload
