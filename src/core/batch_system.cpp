#include "core/batch_system.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/profiler.h"
#include "util/log.h"

namespace elastisim::core {

using workload::JobId;

namespace {

/// The row of job `id` in the queue or running rows; the job must have one.
template <typename Row>
typename std::vector<Row>::iterator row_of(std::vector<Row>& rows, JobId id) {
  auto it = std::find_if(rows.begin(), rows.end(),
                         [id](const Row& row) { return row.job->id == id; });
  assert(it != rows.end() && "job has no row");
  return it;
}

}  // namespace

std::string to_string(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::kKill: return "kill";
    case FailurePolicy::kRequeue: return "requeue";
    case FailurePolicy::kRequeueRestart: return "requeue-restart";
  }
  return "?";
}

std::optional<FailurePolicy> failure_policy_from_string(std::string_view name) {
  if (name == "kill") return FailurePolicy::kKill;
  if (name == "requeue") return FailurePolicy::kRequeue;
  if (name == "requeue-restart") return FailurePolicy::kRequeueRestart;
  return std::nullopt;
}

BatchSystem::BatchSystem(sim::Engine& engine, const platform::Cluster& cluster,
                         std::unique_ptr<Scheduler> scheduler, stats::Recorder& recorder,
                         BatchConfig config)
    : engine_(&engine),
      cluster_(&cluster),
      scheduler_(std::move(scheduler)),
      recorder_(&recorder),
      config_(config) {
  assert(scheduler_ && "batch system needs a scheduler");
  for (const platform::Node& node : cluster.nodes()) free_nodes_.insert(node.id);
  recorder_->set_total_nodes(static_cast<int>(cluster.node_count()));
}

BatchSystem::~BatchSystem() = default;

BatchSystem::Managed& BatchSystem::managed(JobId id) {
  auto it = jobs_.find(id);
  assert(it != jobs_.end() && "unknown job id");
  return *it->second;
}

const BatchSystem::Managed& BatchSystem::managed(JobId id) const {
  auto it = jobs_.find(id);
  assert(it != jobs_.end() && "unknown job id");
  return *it->second;
}

bool BatchSystem::submit(workload::Job job) {
  if (auto error = job.validate()) {
    ELSIM_ERROR("rejecting job {}: {}", job.id, *error);
    return false;
  }
  if (job.min_nodes > static_cast<int>(cluster_->node_count())) {
    ELSIM_WARN("rejecting job {}: needs {} nodes, cluster has {}", job.id, job.min_nodes,
               cluster_->node_count());
    return false;
  }
  const double node_memory = cluster_->config().memory_bytes;
  if (job.memory_bytes_per_node > 0.0 && node_memory > 0.0 &&
      job.memory_bytes_per_node > node_memory) {
    ELSIM_WARN("rejecting job {}: needs {} bytes/node, nodes have {}", job.id,
               job.memory_bytes_per_node, node_memory);
    return false;
  }
  assert(!jobs_.count(job.id) && "duplicate job id");
  for (JobId dep : job.dependencies) {
    if (dep == job.id || !jobs_.count(dep)) {
      ELSIM_WARN("rejecting job {}: dependency {} not previously submitted", job.id, dep);
      return false;
    }
  }
  const JobId id = job.id;
  const double when = job.submit_time;
  auto entry = std::make_unique<Managed>();
  entry->job = std::move(job);
  jobs_.emplace(id, std::move(entry));
  for (JobId dep : jobs_.at(id)->job.dependencies) dependents_[dep].push_back(id);
  ++unfinished_;
  engine_->schedule_at(when, [this, id] { enter_queue(id); });
  return true;
}

std::size_t BatchSystem::submit_all(std::vector<workload::Job> jobs) {
  std::size_t accepted = 0;
  for (workload::Job& job : jobs) {
    if (submit(std::move(job))) ++accepted;
  }
  return accepted;
}

void BatchSystem::enter_queue(JobId id) {
  Managed& job = managed(id);
  assert(job.state == JobState::kPending);
  recorder_->on_submit(job.job, engine_->now());
  notify(stats::JobChange::kSubmitted, job);
  ELSIM_DEBUG("t={} submit job {} ({} nodes, {})", engine_->now(), id,
              job.job.requested_nodes, workload::to_string(job.job.type));

  // Dependency gate: hold until every dependency finished; cancel right away
  // if one already failed.
  for (JobId dep : job.job.dependencies) {
    const Managed& parent = managed(dep);
    switch (parent.state) {
      case JobState::kFinished: break;  // satisfied
      case JobState::kKilled:
      case JobState::kCancelled:
        cancel_job(job);
        invoke_scheduler(stats::JournalCause::kCancel);
        return;
      default: job.outstanding_deps.insert(dep);
    }
  }
  if (!job.outstanding_deps.empty()) {
    job.state = JobState::kHeld;
    notify(stats::JobChange::kHeld, job);
    ++held_;
    ELSIM_DEBUG("t={} job {} held on {} dependencies", engine_->now(), id,
                job.outstanding_deps.size());
    return;
  }
  job.state = JobState::kQueued;
  notify(stats::JobChange::kQueued, job);
  queue_.push_back({&job.job});
  arm_timer();
  arm_tick();
  invoke_scheduler(stats::JournalCause::kSubmit);
}

void BatchSystem::resolve_dependents(JobId id, bool succeeded) {
  auto it = dependents_.find(id);
  if (it == dependents_.end()) return;
  for (JobId child_id : it->second) {
    Managed& child = managed(child_id);
    if (child.state != JobState::kHeld) continue;  // pending or already cancelled
    if (!succeeded) {
      --held_;
      cancel_job(child);
      continue;
    }
    child.outstanding_deps.erase(id);
    if (child.outstanding_deps.empty()) {
      --held_;
      child.state = JobState::kQueued;
      notify(stats::JobChange::kQueued, child);
      queue_.push_back({&child.job});
      ELSIM_DEBUG("t={} job {} released into the queue", engine_->now(), child_id);
      arm_timer();
      arm_tick();
    }
  }
}

void BatchSystem::cancel_job(Managed& job) {
  const JobId id = job.job.id;
  // Only jobs that never reached the queue: a queued job's dependencies all
  // finished, so none of them can fail any more.
  assert(job.state == JobState::kPending || job.state == JobState::kHeld);
  job.state = JobState::kCancelled;
  recorder_->on_cancel(id, engine_->now());
  notify(stats::JobChange::kCancelled, job);
  ELSIM_INFO("t={} job {} cancelled (dependency failed)", engine_->now(), id);
  ++cancelled_;
  --unfinished_;
  // Cascade to this job's own dependents.
  resolve_dependents(id, /*succeeded=*/false);
}

// ---------------------------------------------------------------------------
// SchedulerContext
// ---------------------------------------------------------------------------

std::vector<platform::NodeId> BatchSystem::nodes_of(JobId id) const {
  return managed(id).nodes;
}

std::vector<JobId> BatchSystem::unfinished_job_ids() const {
  std::vector<JobId> ids;
  for (const QueuedJob& row : queue_) ids.push_back(row.job->id);
  for (const RunningJob& row : running_) ids.push_back(row.job->id);
  return ids;
}

double BatchSystem::now() const { return engine_->now(); }

int BatchSystem::total_nodes() const {
  // Nodes currently in service: failures and drains shrink the machine
  // (drain-pending nodes still count; their jobs are still running).
  return static_cast<int>(cluster_->node_count() - failed_nodes_.size() -
                          drained_nodes_.size());
}

int BatchSystem::free_nodes() const { return static_cast<int>(free_nodes_.size()); }

double BatchSystem::user_usage(const std::string& user) const {
  const auto usage = recorder_->node_seconds_by_user(engine_->now());
  auto it = usage.find(user);
  return it != usage.end() ? it->second : 0.0;
}

std::vector<platform::NodeId> BatchSystem::take_free_nodes(int count) {
  assert(count <= free_nodes() && "allocating more nodes than free");
  std::vector<platform::NodeId> taken;
  taken.reserve(static_cast<std::size_t>(count));
  switch (config_.placement) {
    case PlacementPolicy::kLowestId:
      for (int i = 0; i < count; ++i) {
        auto first = free_nodes_.begin();
        taken.push_back(*first);
        free_nodes_.erase(first);
      }
      break;
    case PlacementPolicy::kCompact: {
      // Per-pod free lists, pods ordered by descending free count (ties by
      // pod id): take whole pods before spilling into the next.
      std::vector<std::vector<platform::NodeId>> pods(cluster_->pod_count());
      for (platform::NodeId node : free_nodes_) {
        pods[cluster_->pod_of(node)].push_back(node);
      }
      std::vector<std::size_t> order(pods.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&pods](std::size_t a, std::size_t b) {
        return pods[a].size() > pods[b].size();
      });
      for (std::size_t pod : order) {
        for (platform::NodeId node : pods[pod]) {
          if (static_cast<int>(taken.size()) == count) break;
          taken.push_back(node);
          free_nodes_.erase(node);
        }
        if (static_cast<int>(taken.size()) == count) break;
      }
      break;
    }
    case PlacementPolicy::kSpread: {
      // Round-robin one node per pod per pass.
      std::vector<std::vector<platform::NodeId>> pods(cluster_->pod_count());
      for (platform::NodeId node : free_nodes_) {
        pods[cluster_->pod_of(node)].push_back(node);
      }
      std::size_t cursor = 0;
      while (static_cast<int>(taken.size()) < count) {
        bool any = false;
        for (std::size_t i = 0; i < pods.size() &&
                                static_cast<int>(taken.size()) < count;
             ++i) {
          auto& pod = pods[(i + cursor) % pods.size()];
          if (pod.empty()) continue;
          taken.push_back(pod.front());
          pod.erase(pod.begin());
          free_nodes_.erase(taken.back());
          any = true;
        }
        ++cursor;
        if (!any) break;  // defensive: cannot happen given the count check
      }
      break;
    }
  }
  assert(static_cast<int>(taken.size()) == count);
  return taken;
}

void BatchSystem::start_job(JobId id, int nodes) {
  Managed& job = managed(id);
  assert(job.state == JobState::kQueued && "start_job on a non-queued job");
  if (job.job.type == workload::JobType::kRigid) {
    assert(nodes == job.job.requested_nodes && "rigid jobs start at their requested size");
  } else {
    assert(nodes >= job.job.min_nodes && nodes <= job.job.max_nodes &&
           "start size outside the job's range");
  }
  assert(nodes <= free_nodes() && "not enough free nodes");

  queue_.erase(row_of(queue_, id));
  job.state = JobState::kRunning;
  ++starts_total_;
  job.start_time = engine_->now();
  job.nodes = take_free_nodes(nodes);
  running_.push_back({&job.job, job.start_time, nodes, nodes});
  recorder_->on_start(id, engine_->now(), nodes);
  notify(stats::JobChange::kStarted, job, job.nodes);
  ELSIM_DEBUG("t={} start job {} on {} nodes", engine_->now(), id, nodes);

  if (std::isfinite(job.job.walltime_limit)) {
    job.walltime_event = engine_->schedule_in(job.job.walltime_limit,
                                              [this, id] { handle_walltime(id); });
  }
  job.execution = std::make_unique<JobExecution>(
      *engine_, *cluster_, job.job, job.nodes,
      [this, id](int delta) { handle_boundary(id, delta); },
      [this, id] { handle_completion(id); });
  if (config_.failure_policy == FailurePolicy::kRequeueRestart && !job.checkpoint.at_origin()) {
    notify(stats::JobChange::kRestarted, job);
    job.execution->start_from(job.checkpoint, config_.restart_overhead);
  } else {
    job.execution->start();
  }
}

void BatchSystem::set_target(JobId id, int nodes) {
  Managed& job = managed(id);
  assert((job.state == JobState::kRunning || job.state == JobState::kAtBoundary) &&
         "set_target on a job that is not running");
  assert(job.job.can_resize_at_runtime() && "set_target on a non-resizable job");
  const int current = static_cast<int>(job.nodes.size());
  const int clamped = job.job.clamp_nodes(nodes);
  const int previous_target = job.pending_target;
  job.pending_target = clamped == current ? -1 : clamped;
  if (clamped != current && clamped != previous_target) {
    notify_resize(stats::ResizeChange::kTarget, job, current, clamped);
  }
  update_running_row(job);
}

// ---------------------------------------------------------------------------
// Scheduling points
// ---------------------------------------------------------------------------

void BatchSystem::handle_boundary(JobId id, int evolving_delta) {
  Managed& job = managed(id);
  job.state = JobState::kAtBoundary;
  job.boundary_delta = evolving_delta;
  // Defer: the boundary may fire from inside another job's event; a
  // zero-delay event keeps scheduler invocations non-reentrant.
  engine_->schedule_in(0.0, [this, id] { process_boundary(id); });
}

void BatchSystem::process_boundary(JobId id) {
  Managed& job = managed(id);
  if (job.state != JobState::kAtBoundary) return;  // killed meanwhile
  notify(stats::JobChange::kBoundary, job, job.nodes);

  if (job.boundary_delta != 0 && job.job.type == workload::JobType::kEvolving) {
    const int current = static_cast<int>(job.nodes.size());
    const int desired = job.job.clamp_nodes(current + job.boundary_delta);
    if (desired != current) {
      const bool granted =
          scheduler_->on_evolving_request(*this, id, desired - current);
      recorder_->on_evolving_request(id, granted);
      notify_resize(stats::ResizeChange::kEvolving, job, current, desired, {}, granted);
      if (granted) job.pending_target = desired;
      update_running_row(job);
    }
    job.boundary_delta = 0;
  }

  // Let the scheduler revise targets with this job paused at its boundary.
  invoke_scheduler(stats::JournalCause::kBoundary);
  if (job.state != JobState::kAtBoundary) return;  // killed by walltime during scheduling

  int target = job.pending_target >= 0 ? job.pending_target
                                       : static_cast<int>(job.nodes.size());
  job.pending_target = -1;
  update_running_row(job);
  const int current = static_cast<int>(job.nodes.size());
  if (target > current) {
    // Growth is bounded by what is free right now.
    target = std::min(target, current + free_nodes());
    target = job.job.clamp_nodes(target);
    if (target < job.job.min_nodes) target = current;
  }
  if (target == current || !job.job.can_resize_at_runtime()) {
    job.state = JobState::kRunning;
    job.execution->resume();
    return;
  }
  apply_resize(job, target);
}

void BatchSystem::apply_resize(Managed& job, int target) {
  const JobId id = job.job.id;
  const int current = static_cast<int>(job.nodes.size());
  assert(target != current && target >= job.job.min_nodes && target <= job.job.max_nodes);
  job.state = JobState::kRunning;
  if (target > current) {
    // Expansion: new nodes are busy from the start of redistribution.
    const std::vector<platform::NodeId> added = take_free_nodes(target - current);
    std::vector<platform::NodeId> grown = job.nodes;
    for (platform::NodeId node : added) grown.push_back(node);
    job.nodes = grown;
    update_running_row(job);
    recorder_->on_resize(id, engine_->now(), target);
    notify_resize(stats::ResizeChange::kExpanded, job, current, target, added);
    ELSIM_DEBUG("t={} expand job {} {} -> {}", engine_->now(), id, current, target);
    job.execution->resume_with_nodes(std::move(grown), config_.charge_reconfiguration,
                                     nullptr);
  } else {
    // Shrink: keep a prefix; the tail is released after redistribution.
    std::vector<platform::NodeId> kept(job.nodes.begin(), job.nodes.begin() + target);
    std::vector<platform::NodeId> removed(job.nodes.begin() + target, job.nodes.end());
    ELSIM_DEBUG("t={} shrink job {} {} -> {}", engine_->now(), id, current, target);
    job.execution->resume_with_nodes(
        kept, config_.charge_reconfiguration,
        [this, id, kept, removed, current, target] {
          Managed& shrunk = managed(id);
          shrunk.nodes = kept;
          update_running_row(shrunk);
          for (platform::NodeId node : removed) return_node(node);
          recorder_->on_resize(id, engine_->now(), target);
          notify_resize(stats::ResizeChange::kShrunk, shrunk, current, target, removed);
          invoke_scheduler(stats::JournalCause::kShrinkComplete);
        });
  }
}

void BatchSystem::handle_completion(JobId id) {
  Managed& job = managed(id);
  assert(job.state == JobState::kRunning || job.state == JobState::kAtBoundary);
  if (job.walltime_event != sim::kInvalidEventId) {
    engine_->cancel(job.walltime_event);
    job.walltime_event = sim::kInvalidEventId;
  }
  job.state = JobState::kFinished;
  const std::vector<platform::NodeId> released = release_all_nodes(job);
  running_.erase(row_of(running_, id));
  recorder_->on_finish(id, engine_->now(), /*killed=*/false);
  notify(stats::JobChange::kFinished, job, released);
  ++finished_;
  --unfinished_;
  ELSIM_DEBUG("t={} finish job {}", engine_->now(), id);
  resolve_dependents(id, /*succeeded=*/true);
  invoke_scheduler(stats::JournalCause::kFinish);
}

void BatchSystem::handle_walltime(JobId id) {
  Managed& job = managed(id);
  if (job.state != JobState::kRunning && job.state != JobState::kAtBoundary) return;
  ELSIM_INFO("t={} walltime kill job {}", engine_->now(), id);
  job.walltime_event = sim::kInvalidEventId;
  job.execution->abort();
  job.state = JobState::kKilled;
  const std::vector<platform::NodeId> released = release_all_nodes(job);
  running_.erase(row_of(running_, id));
  recorder_->on_finish(id, engine_->now(), /*killed=*/true);
  notify(stats::JobChange::kTimedOut, job, released);
  ++killed_;
  --unfinished_;
  resolve_dependents(id, /*succeeded=*/false);
  invoke_scheduler(stats::JournalCause::kWalltime);
}

void BatchSystem::return_node(platform::NodeId node) {
  if (failed_nodes_.count(node)) return;  // stays out until repaired
  if (drain_pending_.erase(node) > 0) {
    drained_nodes_.insert(node);
    ELSIM_INFO("t={} node {} drained", engine_->now(), node);
    return;
  }
  free_nodes_.insert(node);
}

std::vector<platform::NodeId> BatchSystem::release_all_nodes(Managed& job) {
  std::vector<platform::NodeId> released = std::move(job.nodes);
  job.nodes.clear();
  for (platform::NodeId node : released) return_node(node);
  return released;
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

bool BatchSystem::inject_failure(platform::NodeId node, double fail_time,
                                 double repair_time) {
  // Explicit validation (not just asserts): failure schedules often come
  // from user-supplied trace files, so bad input must be rejected in
  // release builds too.
  if (node >= cluster_->node_count()) {
    ELSIM_ERROR("rejecting failure injection: node {} outside cluster of {}", node,
                cluster_->node_count());
    return false;
  }
  if (std::isnan(fail_time) || std::isinf(fail_time) || fail_time < 0.0) {
    ELSIM_ERROR("rejecting failure injection for node {}: bad fail time {}", node, fail_time);
    return false;
  }
  if (std::isnan(repair_time) || repair_time < fail_time) {
    ELSIM_ERROR("rejecting failure injection for node {}: repair at {} precedes failure at {}",
                node, repair_time, fail_time);
    return false;
  }
  engine_->schedule_at(fail_time, [this, node, repair_time] { fail_node(node, repair_time); });
  if (std::isfinite(repair_time)) {
    engine_->schedule_at(repair_time, [this, node] { restore_node(node); });
  }
  return true;
}

void BatchSystem::fail_node(platform::NodeId node, double repair_time) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  if (failed_nodes_.count(node)) {
    // Double failure while a repair is pending: extend the outage window so
    // the earlier repair event cannot return a still-broken node to service.
    auto& until = repair_until_[node];
    until = std::max(until, repair_time);
    return;
  }
  failed_nodes_.insert(node);
  repair_until_[node] = repair_time;
  // A drained (or drain-pending) node that fails must come back from repair
  // still drained — the maintenance intent outlives the failure.
  if (drained_nodes_.erase(node) > 0 || drain_pending_.erase(node) > 0) {
    drain_on_repair_.insert(node);
  }
  ELSIM_INFO("t={} node {} failed", engine_->now(), node);
  notify_fault(stats::FaultChange::kFailed, node);
  if (free_nodes_.erase(node) > 0) {
    invoke_scheduler(stats::JournalCause::kFailure);  // capacity shrank
    return;
  }
  // Find the victim job (if any — the node may be mid-release).
  for (const RunningJob& row : running_) {
    Managed& job = managed(row.job->id);
    if (std::find(job.nodes.begin(), job.nodes.end(), node) != job.nodes.end()) {
      evict_job(job, node);
      break;
    }
  }
  invoke_scheduler(stats::JournalCause::kFailure);
}

void BatchSystem::restore_node(platform::NodeId node) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  auto repair_it = repair_until_.find(node);
  if (repair_it != repair_until_.end() && engine_->now() < repair_it->second) {
    return;  // a later-injected outage still covers this node
  }
  if (failed_nodes_.erase(node) == 0) return;
  repair_until_.erase(node);
  ELSIM_INFO("t={} node {} restored", engine_->now(), node);
  notify_fault(stats::FaultChange::kRepaired, node);
  if (drain_on_repair_.erase(node) > 0) {
    drained_nodes_.insert(node);
    ELSIM_INFO("t={} node {} repaired into drain", engine_->now(), node);
    invoke_scheduler(stats::JournalCause::kRepair);
    return;
  }
  free_nodes_.insert(node);
  invoke_scheduler(stats::JournalCause::kRepair);
}

void BatchSystem::drain_node(platform::NodeId node, double when, double until) {
  assert(node < cluster_->node_count());
  assert(until >= when);
  engine_->schedule_at(when, [this, node] { start_drain(node); });
  if (std::isfinite(until)) {
    engine_->schedule_at(until, [this, node] { undrain_node(node); });
  }
}

void BatchSystem::start_drain(platform::NodeId node) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  if (drained_nodes_.count(node) || drain_pending_.count(node)) return;
  notify_fault(stats::FaultChange::kDrained, node);
  if (free_nodes_.erase(node) > 0) {
    drained_nodes_.insert(node);
    ELSIM_INFO("t={} node {} drained (was idle)", engine_->now(), node);
  } else {
    drain_pending_.insert(node);
    ELSIM_INFO("t={} node {} drain pending (busy)", engine_->now(), node);
  }
  invoke_scheduler(stats::JournalCause::kMaintenance);
}

void BatchSystem::undrain_node(platform::NodeId node) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  if (drain_pending_.erase(node) > 0) return;  // never left service
  if (drain_on_repair_.erase(node) > 0) return;  // still failed; repair frees it
  if (drained_nodes_.erase(node) == 0) return;
  notify_fault(stats::FaultChange::kUndrained, node);
  free_nodes_.insert(node);
  ELSIM_INFO("t={} node {} back in service", engine_->now(), node);
  invoke_scheduler(stats::JournalCause::kMaintenance);
}

void BatchSystem::kill_evicted_job(Managed& job, platform::NodeId failed_node,
                                   bool requeue_limit,
                                   const std::vector<platform::NodeId>& released) {
  const JobId id = job.job.id;
  ELSIM_INFO("t={} job {} killed (node {} failed{})", engine_->now(), id, failed_node,
             requeue_limit ? ", max requeues exceeded" : "");
  job.state = JobState::kKilled;
  recorder_->on_finish(id, engine_->now(), /*killed=*/true);
  if (!observers_.empty()) {
    observers_.emit(&stats::RunObserver::on_job,
                    stats::JobEvent{.time = engine_->now(), .change = stats::JobChange::kKilled,
                                    .job = &job.job, .nodes = released,
                                    .failed_node = failed_node, .requeue_limit = requeue_limit});
  }
  ++killed_;
  --unfinished_;
  resolve_dependents(id, /*succeeded=*/false);
}

void BatchSystem::evict_job(Managed& job, platform::NodeId failed_node) {
  const JobId id = job.job.id;
  assert(job.state == JobState::kRunning || job.state == JobState::kAtBoundary);
  const double now = engine_->now();
  const int allocation = static_cast<int>(job.nodes.size());
  // Account the discarded work *before* tearing the execution down: a plain
  // requeue loses the whole attempt; requeue-restart only the span since the
  // last durable checkpoint.
  const bool restartable = config_.failure_policy == FailurePolicy::kRequeueRestart;
  const double anchor = restartable ? job.execution->durable_time() : job.start_time;
  const double lost_seconds = std::max(0.0, now - anchor);
  const double lost_node_seconds = lost_seconds * allocation;
  if (restartable) job.checkpoint = job.execution->durable_progress();
  job.execution->abort();
  if (job.walltime_event != sim::kInvalidEventId) {
    engine_->cancel(job.walltime_event);
    job.walltime_event = sim::kInvalidEventId;
  }
  const std::vector<platform::NodeId> released = release_all_nodes(job);
  job.pending_target = -1;
  job.boundary_delta = 0;
  running_.erase(row_of(running_, id));
  if (config_.failure_policy == FailurePolicy::kKill) {
    job.execution.reset();
    kill_evicted_job(job, failed_node, /*requeue_limit=*/false, released);
    return;
  }
  ++job.requeue_count;
  if (config_.max_requeues > 0 && job.requeue_count > config_.max_requeues) {
    job.execution.reset();
    kill_evicted_job(job, failed_node, /*requeue_limit=*/true, released);
    return;
  }
  ELSIM_INFO("t={} job {} requeued after node failure ({} node-seconds lost)", now, id,
             lost_node_seconds);
  job.state = JobState::kQueued;
  job.execution.reset();
  job.start_time = -1.0;
  recorder_->on_requeue(id, now, lost_node_seconds, lost_seconds);
  if (!observers_.empty()) {
    observers_.emit(&stats::RunObserver::on_job,
                    stats::JobEvent{.time = now, .change = stats::JobChange::kRequeued,
                                    .job = &job.job, .nodes = released,
                                    .failed_node = failed_node,
                                    .lost_node_seconds = lost_node_seconds,
                                    .checkpointed = restartable && !job.checkpoint.at_origin(),
                                    .checkpoint_phase = job.checkpoint.phase,
                                    .checkpoint_iteration = job.checkpoint.iteration});
  }
  queue_.push_back({&job.job});
  ++requeues_;
}

// ---------------------------------------------------------------------------
// Scheduler invocation
// ---------------------------------------------------------------------------

// elsim-hot: the scheduling-point scan; fires on submit/finish/boundary.
void BatchSystem::invoke_scheduler(stats::JournalCause cause) {
  if (in_scheduler_) {
    rerun_scheduler_ = true;
    return;
  }
  in_scheduler_ = true;
  const bool observed = !observers_.empty();
  if (observed) {
    observers_.emit(&stats::RunObserver::on_point_begin,
                    stats::SchedulingPoint{.cause = cause, .state = snapshot()});
  }
  int rounds = 0;
  const std::uint64_t starts_before = starts_total_;
  {
    ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kScheduler);
    do {
      rerun_scheduler_ = false;
      scheduler_jobs_scanned_ += static_cast<std::uint64_t>(queue_.size() + running_.size());
      // elsim-lint: allow(hot-virtual-loop) -- the virtual call IS the scheduler plugin API; one dispatch per convergence round, not per job
      scheduler_->schedule(*this);
      if (++rounds > 1000) {
        ELSIM_ERROR("scheduler did not converge after 1000 rounds at t={}; giving up",
                    // elsim-lint: allow(hot-virtual-loop) -- divergence error path, reached at most once per run; Engine::now is also non-virtual (name collides with SchedulerContext::now)
                    engine_->now());
        break;
      }
    } while (rerun_scheduler_);
  }
  ++scheduler_invocations_;
  scheduler_rounds_ += static_cast<std::uint64_t>(rounds);
  if (observed) {
    ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kSinks);
    observers_.emit(&stats::RunObserver::on_point_end,
                    stats::SchedulingPoint{.cause = cause, .state = snapshot(), .rounds = rounds,
                                           .started = starts_total_ - starts_before,
                                           .queue = queue_});
  }
  in_scheduler_ = false;
}

bool BatchSystem::test_corrupt_double_allocation(workload::JobId id) {
  const Managed& job = managed(id);
  if (job.nodes.empty()) return false;
  free_nodes_.insert(job.nodes.front());
  return true;
}

void BatchSystem::update_running_row(const Managed& job) {
  RunningJob& row = *row_of(running_, job.job.id);
  row.nodes = static_cast<int>(job.nodes.size());
  row.pending_target = job.pending_target >= 0 ? job.pending_target : row.nodes;
}

void BatchSystem::explain(workload::JobId id, stats::HoldReason reason, std::string detail) {
  if (!observers_.empty()) observers_.emit(&stats::RunObserver::on_hold, id, reason, detail);
}

stats::Snapshot BatchSystem::snapshot() const {
  return {.time = engine_->now(),
          .queued = static_cast<int>(queue_.size()),
          .running = static_cast<int>(running_.size()),
          .free = static_cast<int>(free_nodes_.size()),
          .failed = static_cast<int>(failed_nodes_.size()),
          .drained = static_cast<int>(drained_nodes_.size()),
          .total = static_cast<int>(cluster_->node_count()),
          .events = engine_->events_processed(),
          .pending = engine_->pending_events()};
}

void BatchSystem::notify(stats::JobChange change, const Managed& job,
                         std::span<const platform::NodeId> nodes) {
  if (observers_.empty()) return;
  observers_.emit(&stats::RunObserver::on_job,
                  stats::JobEvent{.time = engine_->now(), .change = change, .job = &job.job,
                                  .nodes = nodes,
                                  .checkpointed = change == stats::JobChange::kRestarted,
                                  .checkpoint_phase = job.checkpoint.phase,
                                  .checkpoint_iteration = job.checkpoint.iteration});
}

void BatchSystem::notify_resize(stats::ResizeChange change, const Managed& job, int from,
                                int to, std::span<const platform::NodeId> nodes,
                                bool granted) {
  if (observers_.empty()) return;
  observers_.emit(&stats::RunObserver::on_resize,
                  stats::ResizeEvent{.time = engine_->now(), .change = change, .job = &job.job,
                                     .from = from, .to = to, .nodes = nodes,
                                     .granted = granted});
}

void BatchSystem::notify_fault(stats::FaultChange change, platform::NodeId node) {
  if (observers_.empty()) return;
  observers_.emit(&stats::RunObserver::on_fault, stats::FaultEvent{engine_->now(), change, node});
}

void BatchSystem::arm_tick() {
  const double cadence = observers_.cadence();
  if (cadence <= 0.0 || tick_armed_) return;
  tick_armed_ = true;
  engine_->schedule_in(cadence, [this] {
    tick_armed_ = false;
    if (unfinished_ == 0) return;  // let the simulation drain
    observers_.emit(&stats::RunObserver::on_tick, snapshot());
    arm_tick();
  });
}

void BatchSystem::arm_timer() {
  if (config_.scheduling_interval <= 0.0 || timer_armed_) return;
  timer_armed_ = true;
  engine_->schedule_in(config_.scheduling_interval, [this] {
    timer_armed_ = false;
    if (unfinished_ == 0) return;  // let the simulation drain
    invoke_scheduler(stats::JournalCause::kTimer);
    arm_timer();
  });
}

}  // namespace elastisim::core
