// perfbench_driver — the in-process half of the benchmark (perfbench/run.py
// is the other half).
//
//   perfbench_driver gen --out-dir <dir> --seed <n> --nodes <n> --jobs <n>
//                        --interarrival <s> [--moldable f] [--malleable f]
//                        [--evolving f] [--io-fraction f]
//                        [--checkpoint-fraction f] [--chain-fraction f]
//                        [--mtbf <s> --repair <s>]
//       Writes <dir>/platform.json, <dir>/workload.json and, with --mtbf,
//       <dir>/failures.json; prints one JSON line with the job count and the
//       offered load computed from the generated jobs.
//
//   perfbench_driver run --platform <file> --workload <file>
//                        [--failures <file>] [--failure-policy requeue-restart]
//                        [--restart-overhead <s>] --scheduler <name>
//                        [--reps <n>] [--simulate 0|1] [--spans <file.csv>]
//       Times the set-up path <reps> times (each repetition builds fresh
//       objects), then, with --simulate 1, runs the last repetition's batch
//       system to completion. With --spans the run is traced: spans around
//       every call into a layer are kept in memory and written to <file.csv>
//       at the end, the self-profiler is on, the scheduler is wrapped in a
//       timing decorator and the engine is stepped one event at a time.
//       Prints one JSON line.
//
// Only the interfaces a user drives the simulator through are called:
// platform::load_cluster_config, workload::load_workload, make_scheduler and
// the Scheduler extension point, Engine, Cluster, BatchSystem's constructor
// and submit_all, and FaultInjector for the failure schedule.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_system.h"
#include "core/fault_injector.h"
#include "core/scheduler.h"
#include "json/json.h"
#include "platform/cluster.h"
#include "platform/loader.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "stats/profiler.h"
#include "workload/generator.h"
#include "workload/workload_io.h"

using namespace elastisim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// `--key value` pairs after the subcommand. A missing required key or a
/// malformed number is a usage error (exit 2).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --key value, got " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key, std::optional<std::string> fallback = {}) const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (!fallback) throw std::invalid_argument("missing --" + key);
    return *fallback;
  }
  double num(const std::string& key, std::optional<double> fallback = {}) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (!fallback) throw std::invalid_argument("missing --" + key);
      return *fallback;
    }
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument("bad number for --" + key);
    return value;
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

std::string num_json(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// --- gen ---------------------------------------------------------------------

/// Every workload shares the reference job shape: 1-64 nodes, 60 s
/// iterations on 48 x 2 GF nodes, a 64 MiB allreduce per iteration.
constexpr double kFlopsPerNode = 48.0 * 2e9;

platform::ClusterConfig fat_tree(std::size_t nodes) {
  platform::ClusterConfig config;
  config.topology = platform::TopologyKind::kFatTree;
  config.node_count = nodes;
  config.cores_per_node = 48;
  config.flops_per_core = 2e9;
  config.link_bandwidth = 12.5e9;
  config.pod_size = 16;
  config.pod_bandwidth = 100e9;
  config.pfs.read_bandwidth = 120e9;
  config.pfs.write_bandwidth = 80e9;
  return config;
}

int cmd_gen(const Args& args) {
  const std::string dir = args.str("out-dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const auto nodes = static_cast<std::size_t>(args.num("nodes"));

  workload::GeneratorConfig config;
  config.job_count = static_cast<std::size_t>(args.num("jobs"));
  config.seed = seed;
  config.mean_interarrival = args.num("interarrival");
  config.min_nodes = 1;
  config.max_nodes = 64;
  config.mean_iteration_compute = 60.0;
  config.flops_per_node = kFlopsPerNode;
  config.comm_bytes = 64.0 * 1024 * 1024;
  config.io_bytes = 4.0 * 1024 * 1024 * 1024;
  config.state_bytes_per_node = 256.0 * 1024 * 1024;
  config.moldable_fraction = args.num("moldable", 0.0);
  config.malleable_fraction = args.num("malleable", 0.0);
  config.evolving_fraction = args.num("evolving", 0.0);
  config.io_fraction = args.num("io-fraction", 0.0);
  config.checkpoint_fraction = args.num("checkpoint-fraction", 0.0);
  config.chain_fraction = args.num("chain-fraction", 0.0);
  const std::vector<workload::Job> jobs = workload::generate_workload(config);

  const platform::ClusterConfig platform = fat_tree(nodes);
  json::write_file(dir + "/platform.json", platform::cluster_config_to_json(platform));
  workload::save_workload(dir + "/workload.json", jobs);

  std::size_t failures = 0;
  if (args.has("mtbf")) {
    core::FaultModelConfig fault;
    fault.mtbf = args.num("mtbf");
    fault.mean_repair = args.num("repair");
    fault.seed = seed + 1;
    double last_submit = 0.0;
    for (const workload::Job& job : jobs) last_submit = std::max(last_submit, job.submit_time);
    fault.horizon = last_submit;
    const auto events = core::FaultInjector(fault).generate(nodes, platform.pod_size);
    core::FaultInjector::save_trace(dir + "/failures.json", events);
    failures = events.size();
  }

  // Offered load: requested node-seconds (uncontended runtime estimate at the
  // requested size) over the node-seconds the arrival window provides.
  double demand = 0.0;
  double first = jobs.front().submit_time;
  double last = jobs.front().submit_time;
  for (const workload::Job& job : jobs) {
    demand += job.requested_nodes *
              workload::estimate_runtime(job, job.requested_nodes, kFlopsPerNode);
    first = std::min(first, job.submit_time);
    last = std::max(last, job.submit_time);
  }
  const double offered = demand / (static_cast<double>(nodes) * (last - first));
  std::printf("{\"jobs\": %zu, \"offered_load\": %s, \"failures\": %zu}\n", jobs.size(),
              num_json(offered).c_str(), failures);
  return 0;
}

// --- tracing -------------------------------------------------------------------

/// In-memory span store: (name, start, end, parent). Spans are opened and
/// closed strictly nested, so the open stack gives each new span its parent.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(1 << 20);
  }
  bool on() const { return on_; }

  int open(const char* name) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, parent, now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Writes name,start_ns,end_ns,parent (parent is a row index, -1 = root).
  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    out << "name,start_ns,end_ns,parent\n";
    for (const Span& span : spans_) {
      out << span.name << ',' << span.start_ns << ',' << span.end_ns << ',' << span.parent
          << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per-name inclusive and self time (duration minus the time its direct
  /// children cover).
  std::map<std::string, Totals> totals() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) child_s[static_cast<std::size_t>(span.parent)] += duration_s(span);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      ++t.count;
      t.total_s += duration_s(spans_[i]);
      t.self_s += duration_s(spans_[i]) - child_s[i];
    }
    return out;
  }
  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) out.push_back(duration_s(span) * 1e6);
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static double duration_s(const Span& span) {
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is off.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.open(name)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { tracer_.close(index_); }

 private:
  Tracer& tracer_;
  int index_;
};

/// Timing decorator around the installed policy: forwards every call and
/// keeps the wrapped name, so the batch system cannot tell it is there.
/// Records one "core.sched.policy" span and the queue length per call.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<core::Scheduler> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void schedule(core::SchedulerContext& ctx) override {
    queue_lengths_.push_back(static_cast<double>(ctx.queue().size()));
    SpanScope span(tracer_, "core.sched.policy");
    inner_->schedule(ctx);
  }
  bool on_evolving_request(core::SchedulerContext& ctx, workload::JobId id,
                           int delta) override {
    SpanScope span(tracer_, "core.sched.policy");
    return inner_->on_evolving_request(ctx, id, delta);
  }

  const std::vector<double>& queue_lengths() const { return queue_lengths_; }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  Tracer& tracer_;
  std::vector<double> queue_lengths_;
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// --- run -----------------------------------------------------------------------

/// One set-up: the objects a run needs, built through the public calls the
/// benchmark times. Members are declared in dependency order so destruction
/// runs batch system -> cluster -> engine.
struct Instance {
  stats::Recorder recorder;
  sim::Engine engine;
  std::optional<platform::Cluster> cluster;
  std::optional<core::BatchSystem> batch;
  TimedScheduler* timed = nullptr;
  std::size_t submitted = 0;
};

struct SetupTimes {
  double platform_load_s = 0.0;
  double workload_load_s = 0.0;
  double cluster_s = 0.0;
  double batch_s = 0.0;
  double faults_s = 0.0;
  double submit_s = 0.0;
  double total() const {
    return platform_load_s + workload_load_s + cluster_s + batch_s + faults_s + submit_s;
  }
};

core::BatchConfig batch_config(const Args& args) {
  core::BatchConfig config;
  const std::string policy = args.str("failure-policy", std::string("requeue"));
  const auto parsed = core::failure_policy_from_string(policy);
  if (!parsed) throw std::invalid_argument("unknown --failure-policy " + policy);
  config.failure_policy = *parsed;
  config.restart_overhead = args.num("restart-overhead", 0.0);
  return config;
}

SetupTimes set_up(const Args& args, Tracer& tracer, Instance& inst) {
  SetupTimes times;
  SpanScope setup_span(tracer, "setup");
  auto mark = Clock::now();
  auto lap = [&mark]() {
    const auto now = Clock::now();
    const double elapsed = seconds_between(mark, now);
    mark = now;
    return elapsed;
  };

  platform::ClusterConfig platform;
  {
    SpanScope span(tracer, "platform.load");
    platform = platform::load_cluster_config(args.str("platform"));
  }
  times.platform_load_s = lap();
  std::vector<workload::Job> jobs;
  {
    SpanScope span(tracer, "workload.load");
    jobs = workload::load_workload(args.str("workload"));
  }
  times.workload_load_s = lap();
  {
    SpanScope span(tracer, "platform.cluster");
    inst.cluster.emplace(inst.engine, platform);
  }
  times.cluster_s = lap();
  {
    SpanScope span(tracer, "core.batch_system");
    const std::string name = args.str("scheduler");
    std::unique_ptr<core::Scheduler> scheduler = core::make_scheduler(name);
    if (!scheduler) throw std::invalid_argument("unknown scheduler " + name);
    if (tracer.on()) {
      auto timed = std::make_unique<TimedScheduler>(std::move(scheduler), tracer);
      inst.timed = timed.get();
      scheduler = std::move(timed);
    }
    inst.batch.emplace(inst.engine, *inst.cluster, std::move(scheduler), inst.recorder,
                       batch_config(args));
  }
  times.batch_s = lap();
  if (args.has("failures")) {
    SpanScope span(tracer, "core.fault.apply");
    const auto failures = core::FaultInjector::load_trace(args.str("failures"));
    core::FaultInjector::apply(*inst.batch, failures);
  }
  times.faults_s = lap();
  {
    SpanScope span(tracer, "core.submit");
    inst.submitted = inst.batch->submit_all(std::move(jobs));
  }
  times.submit_s = lap();
  return times;
}

int cmd_run(const Args& args) {
  const int reps = std::max(1, static_cast<int>(args.num("reps", 1)));
  const bool simulate = args.num("simulate", 0) != 0.0;
  const std::string spans_path = args.str("spans", std::string());
  Tracer tracer(!spans_path.empty());

  std::string setup_json = "[";
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < reps; ++rep) {
    inst.reset();  // the previous repetition's teardown is not timed
    inst = std::make_unique<Instance>();
    const SetupTimes t = set_up(args, tracer, *inst);
    if (rep > 0) setup_json += ", ";
    setup_json += "{\"platform_load_s\": " + num_json(t.platform_load_s) +
                  ", \"workload_load_s\": " + num_json(t.workload_load_s) +
                  ", \"cluster_s\": " + num_json(t.cluster_s) +
                  ", \"batch_s\": " + num_json(t.batch_s) +
                  ", \"faults_s\": " + num_json(t.faults_s) +
                  ", \"submit_s\": " + num_json(t.submit_s) +
                  ", \"total_s\": " + num_json(t.total()) + "}";
  }
  setup_json += "]";
  std::printf("{\"submitted\": %zu, \"setup\": %s", inst->submitted, setup_json.c_str());

  if (simulate) {
    namespace prof = stats::profiler;
    sim::Engine& engine = inst->engine;
    std::uint64_t steps = 0;
    if (tracer.on()) {
      prof::set_enabled(true);
      SpanScope run_span(tracer, "sim.run");
      for (;;) {
        SpanScope step_span(tracer, "sim.step");
        if (!engine.step()) break;
        ++steps;
      }
    } else {
      engine.run();
    }
    const core::BatchSystem& batch = *inst->batch;
    const stats::Recorder& recorder = inst->recorder;
    std::printf(
        ", \"sim\": {\"finished\": %zu, \"killed\": %zu, \"stuck\": %zu, "
        "\"makespan_s\": %s, \"mean_wait_s\": %s, \"avg_utilization\": %s}",
        batch.finished_jobs(), batch.killed_jobs(),
        batch.queued_jobs() + batch.running_jobs(), num_json(recorder.makespan()).c_str(),
        num_json(recorder.mean_wait()).c_str(),
        num_json(recorder.average_utilization()).c_str());

    if (tracer.on()) {
      const auto& profiler = prof::Profiler::global();
      auto inclusive = [&](prof::Phase phase) { return profiler.stats(phase).inclusive_s; };
      // Instrumented time inside the stepped loop: phases with no enclosing
      // profiler scope. What remains of the step time is dispatch itself
      // (queue pops, callbacks, job execution bookkeeping).
      double instrumented = 0.0;
      for (int i = 0; i < prof::kPhaseCount; ++i) {
        instrumented += profiler.root_edge_s(static_cast<prof::Phase>(i));
      }
      const auto totals = tracer.totals();
      const auto total_of = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_s;
      };
      const std::vector<double> step_us = tracer.durations_us("sim.step");
      const std::vector<double> policy_us = tracer.durations_us("core.sched.policy");
      const std::vector<double>& queue = inst->timed->queue_lengths();
      std::printf(
          ", \"trace\": {\"steps\": %llu, \"step_us_p50\": %s, "
          "\"step_us_p99\": %s, \"dispatch_s\": %s, \"fluid_solve_s\": %s, "
          "\"sched_point_s\": %s, \"policy_s\": %s, \"policy_us_p50\": %s, "
          "\"policy_us_p99\": %s, \"queue_len_p50\": %s, \"queue_len_max\": %s, "
          "\"fault_s\": %s, \"sinks_s\": %s, \"self\": {",
          static_cast<unsigned long long>(steps),
          num_json(quantile(step_us, 0.5)).c_str(), num_json(quantile(step_us, 0.99)).c_str(),
          num_json(total_of("sim.step") - instrumented).c_str(),
          num_json(inclusive(prof::Phase::kFluidSolve)).c_str(),
          num_json(inclusive(prof::Phase::kScheduler)).c_str(),
          num_json(total_of("core.sched.policy")).c_str(),
          num_json(quantile(policy_us, 0.5)).c_str(),
          num_json(quantile(policy_us, 0.99)).c_str(), num_json(quantile(queue, 0.5)).c_str(),
          num_json(quantile(queue, 1.0)).c_str(), num_json(inclusive(prof::Phase::kFault)).c_str(),
          num_json(inclusive(prof::Phase::kSinks)).c_str());
      bool first = true;
      for (const auto& [name, t] : totals) {
        std::printf("%s\"%s\": {\"count\": %llu, \"total_s\": %s, \"self_s\": %s}",
                    first ? "" : ", ", name.c_str(), static_cast<unsigned long long>(t.count),
                    num_json(t.total_s).c_str(), num_json(t.self_s).c_str());
        first = false;
      }
      // Layer self times: the spans split by the profiler phases that nest
      // inside the stepped loop. Solves triggered from inside the scheduler
      // phase are billed to the fluid layer, not to the policy.
      auto exclusive = [&](prof::Phase phase) { return profiler.stats(phase).exclusive_s; };
      const double sched_children =
          inclusive(prof::Phase::kScheduler) - exclusive(prof::Phase::kScheduler);
      const double policy_total = total_of("core.sched.policy");
      const std::pair<const char*, double> layers[] = {
          {"set-up (all calls)", total_of("setup")},
          {"sim.dispatch", total_of("sim.step") - instrumented},
          {"sim.fluid.solve", exclusive(prof::Phase::kFluidSolve)},
          {"core.sched.policy", policy_total - sched_children},
          {"core.sched.upkeep", inclusive(prof::Phase::kScheduler) - policy_total},
          {"core.fault", exclusive(prof::Phase::kFault)},
          {"stats.sinks", exclusive(prof::Phase::kSinks)},
      };
      std::printf("}, \"layers\": {");
      first = true;
      for (const auto& [name, self_s] : layers) {
        std::printf("%s\"%s\": %s", first ? "" : ", ", name, num_json(self_s).c_str());
        first = false;
      }
      std::printf("}}");
      prof::set_enabled(false);
      tracer.write_csv(spans_path);
    }
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s gen|run --key value ...\n", argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    if (command == "gen") return cmd_gen(args);
    if (command == "run") return cmd_run(args);
    std::fprintf(stderr, "error: unknown subcommand %s\n", command.c_str());
    return 2;
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "usage error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
