#include "core/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/flight_recorder.h"
#include "core/scheduler.h"
#include "platform/loader.h"
#include "stats/profiler.h"
#include "stats/sweep_aggregate.h"
#include "util/fmt.h"
#include "util/load_error.h"
#include "util/units.h"
#include "workload/workload_io.h"

namespace elastisim::core {

namespace {

using util::LoadError;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Reads a required or optional array-of-strings member.
std::vector<std::string> string_list(const json::Value& object, std::string_view key,
                                     bool required) {
  const json::Value* member = object.find(key);
  if (member == nullptr) {
    if (required) {
      throw LoadError("", util::fmt("$.{}", key), "a non-empty array of strings", "nothing");
    }
    return {};
  }
  if (!member->is_array()) {
    throw LoadError("", util::fmt("$.{}", key), "an array of strings",
                    json::type_name(*member));
  }
  std::vector<std::string> out;
  const json::Array& entries = member->as_array();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!entries[i].is_string()) {
      throw LoadError("", util::fmt("$.{}[{}]", key, i), "a string",
                      json::type_name(entries[i]));
    }
    out.push_back(entries[i].as_string());
  }
  if (required && out.empty()) {
    throw LoadError("", util::fmt("$.{}", key), "a non-empty array of strings",
                    "an empty array");
  }
  return out;
}

/// Reads a duration member that may be a bare number of seconds or a unit
/// string ("30s", "2h"). `path` is the enclosing object's JSON path.
double duration_member(const json::Value& object, std::string_view path,
                       std::string_view key, double fallback) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return fallback;
  if (member->is_number()) {
    if (member->as_double() < 0.0) {
      throw LoadError("", util::fmt("{}.{}", path, key), "a non-negative duration",
                      json::describe(*member));
    }
    return member->as_double();
  }
  if (member->is_string()) {
    if (auto parsed = util::parse_duration(member->as_string())) return *parsed;
    throw LoadError("", util::fmt("{}.{}", path, key), "a parsable duration string",
                    json::describe(*member));
  }
  throw LoadError("", util::fmt("{}.{}", path, key), "number or duration string",
                  json::type_name(*member));
}

std::int64_t int_member(const json::Value& object, std::string_view path,
                        std::string_view key, std::int64_t fallback, std::int64_t minimum) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return fallback;
  if (!member->is_number() || member->as_int() < minimum) {
    throw LoadError("", util::fmt("{}.{}", path, key),
                    util::fmt("an integer >= {}", minimum), json::describe(*member));
  }
  return member->as_int();
}

SweepRetryPolicy parse_retry(const json::Value& value) {
  if (!value.is_object()) {
    throw LoadError("", "$.retry", "an object", json::type_name(value));
  }
  SweepRetryPolicy retry;
  retry.max_attempts = static_cast<int>(int_member(value, "$.retry", "max_attempts", 1, 1));
  retry.backoff_s = duration_member(value, "$.retry", "backoff", retry.backoff_s);
  retry.retry_crashed = value.member_or("crashed", retry.retry_crashed);
  retry.retry_stalled = value.member_or("stalled", retry.retry_stalled);
  retry.retry_timeout = value.member_or("timeout", retry.retry_timeout);
  return retry;
}

BatchConfig parse_batch(const json::Value& value) {
  if (!value.is_object()) {
    throw LoadError("", "$.batch", "an object", json::type_name(value));
  }
  BatchConfig batch;
  batch.scheduling_interval = duration_member(value, "$.batch", "interval", 0.0);
  batch.charge_reconfiguration = value.member_or("reconfig_cost", true);
  const std::string policy = value.member_or("failure_policy", "requeue");
  if (auto parsed = failure_policy_from_string(policy)) {
    batch.failure_policy = *parsed;
  } else {
    throw LoadError("", "$.batch.failure_policy", "one of kill|requeue|requeue-restart",
                    util::fmt("\"{}\"", policy));
  }
  batch.restart_overhead = duration_member(value, "$.batch", "restart_overhead", 0.0);
  batch.max_requeues = static_cast<int>(int_member(value, "$.batch", "max_requeues", 0, 0));
  return batch;
}

FaultModelConfig parse_faults(const json::Value& value) {
  if (!value.is_object()) {
    throw LoadError("", "$.faults", "an object", json::type_name(value));
  }
  FaultModelConfig fault;
  fault.mtbf = duration_member(value, "$.faults", "mtbf", 0.0);
  if (fault.mtbf <= 0.0) {
    const json::Value* mtbf = value.find("mtbf");
    throw LoadError("", "$.faults.mtbf", "a positive duration",
                    // elsim-lint: allow(float-equality) -- pointer null check
                    mtbf != nullptr ? json::describe(*mtbf) : std::string("nothing"));
  }
  const std::string dist = value.member_or("failure_dist", "exponential");
  if (dist == "weibull") {
    fault.failure_distribution = FailureDistribution::kWeibull;
  } else if (dist != "exponential") {
    throw LoadError("", "$.faults.failure_dist", "one of exponential|weibull",
                    util::fmt("\"{}\"", dist));
  }
  fault.weibull_shape = value.member_or("weibull_shape", fault.weibull_shape);
  fault.mean_repair = duration_member(value, "$.faults", "repair", fault.mean_repair);
  const std::string repair_dist = value.member_or("repair_dist", "constant");
  if (repair_dist == "lognormal") {
    fault.repair_distribution = RepairDistribution::kLognormal;
  } else if (repair_dist != "constant") {
    throw LoadError("", "$.faults.repair_dist", "one of constant|lognormal",
                    util::fmt("\"{}\"", repair_dist));
  }
  fault.repair_sigma = value.member_or("repair_sigma", fault.repair_sigma);
  fault.pod_correlation = value.member_or("pod_correlation", 0.0);
  if (fault.pod_correlation < 0.0 || fault.pod_correlation > 1.0) {
    throw LoadError("", "$.faults.pod_correlation", "a probability in [0, 1]",
                    json::describe(*value.find("pod_correlation")));
  }
  fault.horizon = duration_member(value, "$.faults", "horizon", fault.horizon);
  // fault.seed is irrelevant here: each cell overrides it with the cell seed.
  return fault;
}

CellMetrics metrics_from(const SimulationResult& result) {
  CellMetrics metrics;
  metrics.submitted = result.submitted;
  metrics.finished = result.finished;
  metrics.killed = result.killed;
  metrics.stuck = result.stuck;
  metrics.makespan = result.makespan;
  metrics.mean_wait = result.recorder.mean_wait();
  metrics.max_wait = result.recorder.max_wait();
  metrics.mean_turnaround = result.recorder.mean_turnaround();
  metrics.mean_bounded_slowdown = result.recorder.mean_bounded_slowdown();
  metrics.avg_utilization = result.recorder.average_utilization();
  metrics.requeues = static_cast<std::size_t>(result.recorder.total_requeues());
  metrics.lost_node_seconds = result.recorder.total_lost_node_seconds();
  metrics.events_processed = result.events_processed;
  return metrics;
}

json::Value metrics_to_json(const CellMetrics& metrics) {
  json::Object out;
  out["submitted"] = metrics.submitted;
  out["finished"] = metrics.finished;
  out["killed"] = metrics.killed;
  out["stuck"] = metrics.stuck;
  out["makespan_s"] = metrics.makespan;
  out["mean_wait_s"] = metrics.mean_wait;
  out["max_wait_s"] = metrics.max_wait;
  out["mean_turnaround_s"] = metrics.mean_turnaround;
  out["mean_bounded_slowdown"] = metrics.mean_bounded_slowdown;
  out["avg_utilization"] = metrics.avg_utilization;
  out["requeues"] = metrics.requeues;
  out["lost_node_seconds"] = metrics.lost_node_seconds;
  out["events_processed"] = metrics.events_processed;
  return json::Value(std::move(out));
}

CellStatus status_for_cancel(sim::CancelReason reason) {
  switch (reason) {
    case sim::CancelReason::kTimeout:
      return CellStatus::kTimeout;
    case sim::CancelReason::kStalled:
      return CellStatus::kStalled;
    case sim::CancelReason::kInterrupted:
      return CellStatus::kSkipped;
    case sim::CancelReason::kNone:
      return CellStatus::kOk;
  }
  return CellStatus::kCrashed;
}

}  // namespace

std::string to_string(CellStatus status) {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kRetried:
      return "retried";
    case CellStatus::kTimeout:
      return "timeout";
    case CellStatus::kStalled:
      return "stalled";
    case CellStatus::kCrashed:
      return "crashed";
    case CellStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

SweepSpec parse_sweep_spec(const json::Value& value) {
  if (!value.is_object()) {
    throw LoadError("", "$", "a sweep object", json::type_name(value));
  }
  SweepSpec spec;
  spec.platforms = string_list(value, "platforms", true);
  spec.workloads = string_list(value, "workloads", true);
  spec.schedulers = string_list(value, "schedulers", false);
  if (spec.schedulers.empty()) spec.schedulers = {"easy-malleable"};
  const std::vector<std::string> known = scheduler_names();
  for (std::size_t i = 0; i < spec.schedulers.size(); ++i) {
    if (std::find(known.begin(), known.end(), spec.schedulers[i]) == known.end()) {
      throw LoadError("", util::fmt("$.schedulers[{}]", i), "a known scheduler name",
                      util::fmt("\"{}\"", spec.schedulers[i]));
    }
  }

  if (const json::Value* seeds = value.find("seeds")) {
    if (!seeds->is_array()) {
      throw LoadError("", "$.seeds", "an array of non-negative integers",
                      json::type_name(*seeds));
    }
    const json::Array& entries = seeds->as_array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (!entries[i].is_number() || entries[i].as_int() < 0) {
        throw LoadError("", util::fmt("$.seeds[{}]", i), "a non-negative integer",
                        json::describe(entries[i]));
      }
      spec.seeds.push_back(static_cast<std::uint64_t>(entries[i].as_int()));
    }
  }
  if (spec.seeds.empty()) spec.seeds = {1};

  spec.timeout_s = duration_member(value, "$", "timeout", 0.0);
  spec.stall_timeout_s = duration_member(value, "$", "stall_timeout", 0.0);
  if (const json::Value* retry = value.find("retry")) spec.retry = parse_retry(*retry);
  if (const json::Value* batch = value.find("batch")) spec.batch = parse_batch(*batch);
  if (const json::Value* faults = value.find("faults")) spec.faults = parse_faults(*faults);
  return spec;
}

SweepSpec load_sweep_spec(const std::string& path) {
  json::Value value;
  try {
    value = json::parse_file(path);
  } catch (const json::ParseError& error) {
    throw LoadError(path, "$", "valid JSON",
                    util::fmt("parse error at line {} column {}: {}", error.line(),
                              error.column(), error.what()));
  } catch (const LoadError&) {
    throw;
  } catch (const std::exception& error) {
    throw LoadError(path, "", "", error.what());
  }
  try {
    return parse_sweep_spec(value);
  } catch (const LoadError& error) {
    throw error.with_file(path);
  }
}

std::size_t SweepResult::count(CellStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [status](const CellOutcome& outcome) { return outcome.status == status; }));
}

std::size_t SweepResult::succeeded() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const CellOutcome& outcome) { return outcome.succeeded(); }));
}

bool SweepResult::partial() const {
  return interrupted || succeeded() != outcomes.size();
}

/// Per-worker coordination block: the watchdog reads the active attempt's
/// token and progress through this under the slot mutex.
struct SweepRunner::Slot {
  std::mutex mutex;
  std::shared_ptr<sim::CancellationToken> token;
  Clock::time_point attempt_start{};
  std::uint64_t last_events = 0;
  Clock::time_point last_progress{};
  bool active = false;
};

SweepRunner::SweepRunner(SweepSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  // Grid order (platforms, workloads, schedulers, seeds) fixes each cell's
  // index; reports and cell artifacts key off it, so it must not depend on
  // scheduling or thread count.
  for (std::size_t p = 0; p < spec_.platforms.size(); ++p) {
    for (std::size_t w = 0; w < spec_.workloads.size(); ++w) {
      for (const std::string& scheduler : spec_.schedulers) {
        for (std::uint64_t seed : spec_.seeds) {
          SweepCell cell;
          cell.index = cells_.size();
          cell.platform_index = p;
          cell.workload_index = w;
          cell.scheduler = scheduler;
          cell.seed = seed;
          cells_.push_back(std::move(cell));
        }
      }
    }
  }
}

SweepRunner::~SweepRunner() = default;

void SweepRunner::load_inputs() {
  if (inputs_loaded_) return;
  for (const std::string& path : spec_.platforms) {
    platform_snapshots_.push_back(std::make_shared<const platform::ClusterConfig>(
        platform::load_cluster_config(path)));
  }
  for (const std::string& path : spec_.workloads) {
    workload_snapshots_.push_back(std::make_shared<const std::vector<workload::Job>>(
        workload::load_workload(path)));
  }
  inputs_loaded_ = true;
}

SimulationResult SweepRunner::run_cell(const SweepCell& cell,
                                       sim::CancellationToken& token) const {
  if (!inputs_loaded_) {
    throw std::logic_error("SweepRunner::run_cell requires load_inputs()");
  }
  const platform::ClusterConfig& platform = *platform_snapshots_[cell.platform_index];
  const std::vector<workload::Job>& jobs = *workload_snapshots_[cell.workload_index];
  RunConfig run;
  run.batch = spec_.batch;
  run.scheduler = cell.scheduler;
  run.cancel = &token;
  std::vector<FailureEvent> failures;
  if (spec_.faults) {
    FaultModelConfig fault = *spec_.faults;
    fault.seed = cell.seed;
    failures = FaultInjector(fault).generate(platform.node_count, platform.pod_size);
    run.failures = &failures;
  }
  return run_scenario(platform, jobs, run);
}

void SweepRunner::write_cell_outputs(const SweepCell& cell, const SimulationResult& result,
                                     const CellMetrics& metrics) const {
  char index_name[32];
  std::snprintf(index_name, sizeof(index_name), "%03zu", cell.index);
  const std::filesystem::path dir =
      std::filesystem::path(options_.cell_output_dir) / "cells" / index_name;
  std::filesystem::create_directories(dir);
  std::ofstream jobs_csv(dir / "jobs.csv");
  result.recorder.write_jobs_csv(jobs_csv);
  json::Object out;
  out["platform"] = spec_.platforms[cell.platform_index];
  out["workload"] = spec_.workloads[cell.workload_index];
  out["scheduler"] = cell.scheduler;
  out["seed"] = cell.seed;
  out["metrics"] = metrics_to_json(metrics);
  json::write_file((dir / "metrics.json").string(), json::Value(std::move(out)));
}

void SweepRunner::write_cell_postmortem(const SweepCell& cell, CellOutcome& outcome,
                                        const sim::CancellationToken* token) const {
  if (options_.cell_output_dir.empty() || !FlightRecorder::enabled()) return;
  if (outcome.status != CellStatus::kCrashed && outcome.status != CellStatus::kStalled &&
      outcome.status != CellStatus::kTimeout) {
    return;
  }
  FlightRecorder& recorder = FlightRecorder::thread_current();
  // An injected/stalled body may never have observed the cancellation itself;
  // stamp the token's verdict onto the ring so the dump names the reason.
  if (token != nullptr && token->cancelled()) {
    recorder.note_cancel(token->sim_time(), static_cast<int>(token->reason()),
                         token->events());
  }
  char index_name[32];
  std::snprintf(index_name, sizeof(index_name), "%03zu", cell.index);
  const std::filesystem::path path = std::filesystem::path(options_.cell_output_dir) /
                                     "cells" / index_name / "postmortem.json";
  try {
    recorder.write_postmortem(path.string(), to_string(outcome.status), outcome.error);
  } catch (const std::exception&) {
    return;  // diagnostics must never fail the sweep
  }
  outcome.postmortem = util::fmt("cells/{}/postmortem.json", index_name);
}

CellOutcome SweepRunner::run_one(const SweepCell& cell, Slot& slot) {
  CellOutcome outcome;
  const Clock::time_point cell_begin = Clock::now();
  int attempt = 0;
  std::shared_ptr<sim::CancellationToken> last_token;
  while (true) {
    ++attempt;
    auto token = std::make_shared<sim::CancellationToken>();
    last_token = token;
    if (FlightRecorder::enabled()) {
      // Fresh black box per attempt: the ring then covers exactly the dying
      // attempt, and the context names the cell it belonged to.
      FlightRecorder& recorder = FlightRecorder::thread_current();
      recorder.reset();
      recorder.set_context("cell", std::to_string(cell.index));
      recorder.set_context("platform", spec_.platforms[cell.platform_index]);
      recorder.set_context("workload", spec_.workloads[cell.workload_index]);
      recorder.set_context("scheduler", cell.scheduler);
      recorder.set_context("seed", std::to_string(cell.seed));
      recorder.set_context("attempt", std::to_string(attempt));
    }
    {
      const std::lock_guard<std::mutex> lock(slot.mutex);
      slot.token = token;
      slot.attempt_start = Clock::now();
      slot.last_events = 0;
      slot.last_progress = slot.attempt_start;
      slot.active = true;
    }

    CellStatus status = CellStatus::kCrashed;
    std::string error;
    bool have_result = false;
    SimulationResult result;
    // Route this worker's profiler phases into its recorder for the whole
    // attempt, so a body that dies inside a phase scope (e.g. an injected
    // crash) leaves the dying phase on the ring.
    std::pair<stats::profiler::detail::PhaseHook, void*> previous_tap{nullptr, nullptr};
    const bool tapped = FlightRecorder::enabled();
    if (tapped) previous_tap = FlightRecorder::thread_current().arm_phase_tap();
    try {
      result = body_(cell, *token);
      have_result = true;
      status = token->cancelled() ? status_for_cancel(token->reason()) : CellStatus::kOk;
    } catch (const std::exception& exception) {
      error = exception.what();
    } catch (...) {
      error = "unknown exception";
    }
    if (tapped) stats::profiler::set_phase_hook(previous_tap.first, previous_tap.second);

    {
      const std::lock_guard<std::mutex> lock(slot.mutex);
      slot.active = false;
      slot.token.reset();
    }

    if (status == CellStatus::kOk && have_result) {
      outcome.status = attempt > 1 ? CellStatus::kRetried : CellStatus::kOk;
      outcome.has_metrics = true;
      outcome.metrics = metrics_from(result);
      if (!options_.cell_output_dir.empty()) {
        write_cell_outputs(cell, result, outcome.metrics);
      }
      break;
    }

    if (status == CellStatus::kSkipped) {
      // Interrupted mid-run: the partial result is discarded, the cell is
      // reported skipped so a resumed sweep knows to redo it.
      outcome.status = CellStatus::kSkipped;
      outcome.error = "interrupted";
      break;
    }

    if (error.empty()) {
      error = util::fmt("cancelled: {}", sim::to_string(token->reason()));
    }
    outcome.error = error;
    if (attempt >= spec_.retry.max_attempts || !spec_.retry.retries(status) ||
        interrupt_requested()) {
      outcome.status = status;
      break;
    }

    // Exponential backoff before the retry, sleeping in small increments so
    // an interrupt cuts the wait short.
    const double backoff_s =
        spec_.retry.backoff_s * std::pow(2.0, static_cast<double>(attempt - 1));
    const Clock::time_point backoff_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff_s));
    while (Clock::now() < backoff_end && !interrupt_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (interrupt_requested()) {
      outcome.status = status;
      break;
    }
  }
  outcome.attempts = attempt;
  outcome.duration_s = seconds_since(cell_begin);
  write_cell_postmortem(cell, outcome, last_token.get());
  return outcome;
}

void SweepRunner::worker(Slot& slot) {
  while (true) {
    const std::size_t index = next_cell_.fetch_add(1, std::memory_order_relaxed);
    if (index >= cells_.size()) return;
    if (interrupted_.load(std::memory_order_relaxed)) {
      // Leave the default outcome (skipped, 0 attempts) in place.
      cells_done_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    outcomes_[index] = run_one(cells_[index], slot);
    cells_done_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SweepRunner::watchdog() {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(options_.watchdog_period_s, 0.001)));
  std::size_t heartbeat_done = 0;
  Clock::time_point heartbeat_last = run_begin_;
  while (!stop_watchdog_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    if (options_.progress) {
      const Clock::time_point tick = Clock::now();
      const std::size_t done = cells_done_.load(std::memory_order_relaxed);
      const double since_last =
          std::chrono::duration<double>(tick - heartbeat_last).count();
      // Heartbeat when progress was made (rate-limited) or as a keep-alive
      // every ~10s while long cells run.
      if ((done != heartbeat_done && since_last >= options_.progress_period_s) ||
          since_last >= 10.0) {
        const double elapsed = std::chrono::duration<double>(tick - run_begin_).count();
        const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
        const double eta =
            rate > 0.0 ? static_cast<double>(cells_.size() - done) / rate : 0.0;
        std::fprintf(stderr, "progress: %zu/%zu cells, %.2f cells/s, eta %.0fs\n", done,
                     cells_.size(), rate, eta);
        heartbeat_done = done;
        heartbeat_last = tick;
      }
    }
    const bool interrupt = interrupt_requested();
    if (interrupt) interrupted_.store(true, std::memory_order_relaxed);
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < slot_count_; ++i) {
      Slot& slot = slots_[i];
      const std::lock_guard<std::mutex> lock(slot.mutex);
      if (!slot.active || slot.token == nullptr) continue;
      if (interrupt) {
        slot.token->cancel(sim::CancelReason::kInterrupted);
        continue;
      }
      if (spec_.timeout_s > 0.0 &&
          std::chrono::duration<double>(now - slot.attempt_start).count() >
              spec_.timeout_s) {
        slot.token->cancel(sim::CancelReason::kTimeout);
        continue;
      }
      if (spec_.stall_timeout_s > 0.0) {
        // Progress is judged by the engine's event counter alone: it is
        // monotone and updated between every event, so "no new events for
        // the stall budget" means the run is wedged (or a cell body never
        // touches the token — which is exactly the hang this guards).
        const std::uint64_t events = slot.token->events();
        if (events != slot.last_events) {
          slot.last_events = events;
          slot.last_progress = now;
        } else if (std::chrono::duration<double>(now - slot.last_progress).count() >
                   spec_.stall_timeout_s) {
          slot.token->cancel(sim::CancelReason::kStalled);
        }
      }
    }
  }
}

SweepResult SweepRunner::run() {
  if (!body_) {
    load_inputs();
    body_ = [this](const SweepCell& cell, sim::CancellationToken& token) {
      return run_cell(cell, token);
    };
  }

  SweepResult result;
  result.cells = cells_;
  outcomes_.assign(cells_.size(), CellOutcome{});
  next_cell_.store(0, std::memory_order_relaxed);
  cells_done_.store(0, std::memory_order_relaxed);
  stop_watchdog_.store(false, std::memory_order_relaxed);
  interrupted_.store(false, std::memory_order_relaxed);
  if (cells_.empty()) {
    result.outcomes = std::move(outcomes_);
    return result;
  }

  slot_count_ = std::clamp<std::size_t>(options_.threads, 1, cells_.size());
  slots_ = std::make_unique<Slot[]>(slot_count_);

  run_begin_ = Clock::now();
  std::thread guard([this] { watchdog(); });
  std::vector<std::thread> workers;
  workers.reserve(slot_count_);
  for (std::size_t i = 0; i < slot_count_; ++i) {
    workers.emplace_back([this, i] { worker(slots_[i]); });
  }
  for (std::thread& thread : workers) thread.join();
  stop_watchdog_.store(true, std::memory_order_relaxed);
  guard.join();

  // A closing heartbeat so even sweeps faster than the progress period emit
  // at least one line.
  if (options_.progress) {
    const std::size_t done = cells_done_.load(std::memory_order_relaxed);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - run_begin_).count();
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
    std::fprintf(stderr, "progress: %zu/%zu cells, %.2f cells/s, eta 0s\n", done,
                 cells_.size(), rate);
  }

  // A final poll: an interrupt that landed after the last watchdog tick
  // still marks the sweep interrupted (all cells already ran, none lost).
  if (interrupt_requested()) interrupted_.store(true, std::memory_order_relaxed);

  result.outcomes = std::move(outcomes_);
  result.interrupted = interrupted_.load(std::memory_order_relaxed);
  slots_.reset();
  slot_count_ = 0;
  return result;
}

json::Value sweep_result_to_json(const SweepSpec& spec, const SweepResult& result,
                                 std::size_t threads,
                                 const std::string& cell_output_dir) {
  json::Object out;
  out["schema"] = "elastisim-sweep-v2";
  out["partial"] = result.partial();
  out["interrupted"] = result.interrupted;
  out["threads"] = threads;
  out["build"] = stats::profiler::build_info_json();

  json::Object totals;
  totals["cells"] = result.cells.size();
  totals["succeeded"] = result.succeeded();
  totals["ok"] = result.count(CellStatus::kOk);
  totals["retried"] = result.count(CellStatus::kRetried);
  totals["timeout"] = result.count(CellStatus::kTimeout);
  totals["stalled"] = result.count(CellStatus::kStalled);
  totals["crashed"] = result.count(CellStatus::kCrashed);
  totals["skipped"] = result.count(CellStatus::kSkipped);
  out["totals"] = json::Value(std::move(totals));

  const auto string_array = [](const std::vector<std::string>& entries) {
    json::Array out_array;
    for (const std::string& entry : entries) out_array.emplace_back(entry);
    return json::Value(std::move(out_array));
  };
  json::Object grid;
  grid["platforms"] = string_array(spec.platforms);
  grid["workloads"] = string_array(spec.workloads);
  grid["schedulers"] = string_array(spec.schedulers);
  json::Array seeds;
  for (std::uint64_t seed : spec.seeds) seeds.emplace_back(static_cast<std::size_t>(seed));
  grid["seeds"] = json::Value(std::move(seeds));
  out["grid"] = json::Value(std::move(grid));

  json::Array cells;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCell& cell = result.cells[i];
    const CellOutcome& outcome = result.outcomes[i];
    json::Object entry;
    entry["index"] = cell.index;
    entry["platform"] = spec.platforms[cell.platform_index];
    entry["workload"] = spec.workloads[cell.workload_index];
    entry["scheduler"] = cell.scheduler;
    entry["seed"] = static_cast<std::size_t>(cell.seed);
    entry["status"] = to_string(outcome.status);
    entry["attempts"] = outcome.attempts;
    entry["duration_s"] = outcome.duration_s;
    if (!outcome.error.empty()) entry["error"] = outcome.error;
    if (!outcome.postmortem.empty()) entry["postmortem"] = outcome.postmortem;
    if (outcome.has_metrics) entry["metrics"] = metrics_to_json(outcome.metrics);
    cells.emplace_back(std::move(entry));
  }
  out["cells"] = json::Value(std::move(cells));

  // Policy-vs-policy aggregates: means over each scheduler's *succeeded*
  // cells, in the spec's scheduler order (deterministic output).
  json::Array by_scheduler;
  for (const std::string& scheduler : spec.schedulers) {
    std::size_t total = 0;
    std::size_t succeeded = 0;
    double makespan = 0.0;
    double mean_wait = 0.0;
    double slowdown = 0.0;
    double utilization = 0.0;
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      // elsim-lint: allow(float-equality) -- std::string comparison
      if (result.cells[i].scheduler != scheduler) continue;
      ++total;
      const CellOutcome& outcome = result.outcomes[i];
      if (!outcome.succeeded() || !outcome.has_metrics) continue;
      ++succeeded;
      makespan += outcome.metrics.makespan;
      mean_wait += outcome.metrics.mean_wait;
      slowdown += outcome.metrics.mean_bounded_slowdown;
      utilization += outcome.metrics.avg_utilization;
    }
    json::Object entry;
    entry["scheduler"] = scheduler;
    entry["cells"] = total;
    entry["succeeded"] = succeeded;
    const double denom = succeeded > 0 ? static_cast<double>(succeeded) : 1.0;
    entry["mean_makespan_s"] = makespan / denom;
    entry["mean_wait_s"] = mean_wait / denom;
    entry["mean_bounded_slowdown"] = slowdown / denom;
    entry["avg_utilization"] = utilization / denom;
    by_scheduler.emplace_back(std::move(entry));
  }
  out["by_scheduler"] = json::Value(std::move(by_scheduler));

  // Cross-run aggregates (stats::SweepAggregator): per-(platform x workload
  // x scheduler) distribution statistics with per-seed variance bands. Cells
  // fold strictly in grid order AFTER the sweep finished, and nothing
  // wall-clock enters the fold, so this section is byte-identical across
  // --threads 1 and --threads N (cli_sweep_report_smoke enforces it).
  stats::SweepAggregator aggregator;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCell& cell = result.cells[i];
    const CellOutcome& outcome = result.outcomes[i];
    const std::string& platform = spec.platforms[cell.platform_index];
    const std::string& workload = spec.workloads[cell.workload_index];
    aggregator.add_cell(platform, workload, cell.scheduler);
    if (!outcome.succeeded() || !outcome.has_metrics) continue;
    stats::SweepCellSample sample;
    sample.seed = cell.seed;
    sample.mean_wait_s = outcome.metrics.mean_wait;
    sample.mean_bounded_slowdown = outcome.metrics.mean_bounded_slowdown;
    sample.avg_utilization = outcome.metrics.avg_utilization;
    sample.makespan_s = outcome.metrics.makespan;
    aggregator.add_cell_sample(platform, workload, cell.scheduler, sample);
    if (!cell_output_dir.empty()) {
      char index_name[32];
      std::snprintf(index_name, sizeof(index_name), "%03zu", cell.index);
      const std::filesystem::path jobs_csv =
          std::filesystem::path(cell_output_dir) / "cells" / index_name / "jobs.csv";
      // Best-effort by contract: a missing or malformed per-cell file drops
      // only the per-job quantiles, never the sweep output.
      aggregator.add_jobs_csv(platform, workload, cell.scheduler, jobs_csv.string());
    }
  }
  out["aggregates"] = aggregator.to_json();
  return json::Value(std::move(out));
}

int sweep_exit_code(const SweepResult& result) { return result.partial() ? 3 : 0; }

}  // namespace elastisim::core
