#include "core/simulation.h"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "core/fault_injector.h"
#include "core/flight_recorder.h"
#include "core/invariant_checker.h"
#include "sim/cancellation.h"
#include "stats/profiler.h"
#include "stats/telemetry_sink.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace {

bool validate_env_enabled() {
  const char* env = std::getenv("ELSIM_VALIDATE");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

SimulationResult run_impl(const platform::ClusterConfig& platform,
                          std::vector<workload::Job> jobs, const RunConfig& config) {
  auto scheduler = make_scheduler(config.scheduler);
  if (!scheduler) {
    throw std::runtime_error(util::fmt("unknown scheduler \"{}\"", config.scheduler));
  }

  SimulationResult result;
  sim::Engine engine;
  platform::Cluster cluster(engine, platform);
  BatchSystem batch(engine, cluster, std::move(scheduler), result.recorder, config.batch);
  for (stats::RunObserver* sink : config.sinks) batch.attach(*sink);
  std::optional<stats::TelemetrySink> telemetry_sink;
  if (telemetry::enabled()) batch.attach(telemetry_sink.emplace());
  if (config.cancel) engine.set_cancellation(config.cancel);
  std::optional<InvariantChecker> checker;
  if (config.validate || validate_env_enabled()) checker.emplace().attach(engine, batch);
  if (config.failures) FaultInjector::apply(batch, *config.failures);

  // Always-on black box: this thread's flight recorder rides the engine's
  // per-event hook and the batch system's notifications for the duration of
  // the run (the callers that write postmortems, the CLI and the sweep
  // runner, also route their profiler phases into it). Purely observational
  // — nothing feeds back into the simulation, so determinism is untouched.
  if (FlightRecorder::enabled()) {
    FlightRecorder& flight = FlightRecorder::thread_current();
    engine.set_event_hook(&FlightRecorder::engine_event_hook, &flight);
    batch.attach(flight);
    flight.set_context("scheduler", config.scheduler);
  }

  result.submitted = batch.submit_all(std::move(jobs));
  batch.observers().emit(&stats::RunObserver::on_run_begin, engine.now(), result.submitted);

  const auto wall_begin = std::chrono::steady_clock::now();
  engine.run();
  const auto wall_end = std::chrono::steady_clock::now();

  result.cancelled = engine.cancel_requested();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_begin).count();
  const int cancel_reason = result.cancelled ? static_cast<int>(config.cancel->reason()) : 0;
  batch.observers().emit(&stats::RunObserver::on_run_end,
                         stats::RunEnd{.time = engine.now(),
                                       .events = engine.events_processed(),
                                       .cancelled = result.cancelled,
                                       .cancel_reason = cancel_reason,
                                       .wall_seconds = result.wall_seconds});

  result.finished = batch.finished_jobs();
  result.killed = batch.killed_jobs();
  result.stuck = batch.queued_jobs() + batch.running_jobs();
  if (result.stuck > 0) result.stuck_ids = batch.unfinished_job_ids();
  result.makespan = result.recorder.makespan();
  result.events_processed = engine.events_processed();
  result.rebalances = engine.fluid().rebalance_count();
  result.queue_pushes = engine.queue().pushes();
  result.queue_pops = engine.queue().pops();
  result.queue_peak = engine.queue().peak_size();
  result.activities_touched = engine.fluid().activities_touched();
  result.activities_started = engine.fluid().activities_started();
  result.scheduler_invocations = batch.scheduler_invocations();
  result.scheduler_rounds = batch.scheduler_rounds();
  result.scheduler_jobs_scanned = batch.scheduler_jobs_scanned();
  if (checker) {
    result.validated_points = checker->scheduling_point_checks();
    result.validated_events = checker->events_checked();
  }
  result.peak_rss_bytes = stats::profiler::peak_rss_bytes();
  return result;
}

}  // namespace

SimulationResult run_simulation(const SimulationConfig& config,
                                std::vector<workload::Job> jobs) {
  return run_impl(config.platform, std::move(jobs), config);
}

SimulationResult run_scenario(const platform::ClusterConfig& platform,
                              const std::vector<workload::Job>& jobs,
                              const RunConfig& run) {
  return run_impl(platform, jobs, run);
}

void record_profile_counters(const SimulationResult& result, const std::string& scheduler) {
  if (!stats::profiler::enabled()) return;
  auto& profiler = stats::profiler::Profiler::global();
  profiler.set_counter("engine.events", result.events_processed);
  profiler.set_counter("queue.pushes", result.queue_pushes);
  profiler.set_counter("queue.pops", result.queue_pops);
  profiler.set_counter("queue.peak", result.queue_peak);
  profiler.set_counter("fluid.solves", result.rebalances);
  profiler.set_counter("fluid.activities_touched", result.activities_touched);
  profiler.set_counter("fluid.activities_started", result.activities_started);
  profiler.set_counter("scheduler." + scheduler + ".invocations",
                       result.scheduler_invocations);
  profiler.set_counter("scheduler." + scheduler + ".rounds", result.scheduler_rounds);
  profiler.set_counter("scheduler." + scheduler + ".jobs_scanned",
                       result.scheduler_jobs_scanned);
}

}  // namespace elastisim::core
