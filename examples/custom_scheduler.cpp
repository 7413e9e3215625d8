// Writing your own scheduling algorithm against the public Scheduler
// interface — the simulator's main extension point.
//
// The example implements "shortest-job-first with malleable drain":
//   * queued jobs start shortest-estimated-first (not FCFS),
//   * running malleable jobs expand into idle nodes,
//   * an aging bound prevents starvation of long jobs.
// It then races the custom policy against the built-ins on one workload.
//
//   ./custom_scheduler [--jobs=120] [--nodes=64] [--seed=7]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/batch_system.h"
#include "core/schedulers.h"
#include "core/simulation.h"
#include "platform/cluster.h"
#include "util/flags.h"
#include "util/units.h"
#include "workload/generator.h"

using namespace elastisim;

namespace {

class SjfMalleableScheduler final : public core::Scheduler {
 public:
  explicit SjfMalleableScheduler(double max_age_seconds = 3600.0)
      : max_age_(max_age_seconds) {}

  std::string name() const override { return "sjf-malleable"; }

  void schedule(core::SchedulerContext& ctx) override {
    // Start phase: pick the shortest startable job; jobs older than the
    // aging bound go first regardless (starvation guard).
    bool started = true;
    while (started) {
      started = false;
      const workload::Job* best = nullptr;
      int best_size = -1;
      double best_key = 0.0;
      for (const core::QueuedJob& queued : ctx.queue()) {
        const int size = core::passes::feasible_start_size(*queued.job, ctx.free_nodes());
        if (size < 0) continue;
        const bool aged = queued.waiting_for > max_age_;
        // Walltime is the only runtime signal a real batch system has.
        const double key = aged ? -queued.waiting_for : queued.job->walltime_limit;
        if (!best || key < best_key) {
          best = queued.job;
          best_size = size;
          best_key = key;
        }
      }
      if (best) {
        ctx.start_job(best->id, best_size);
        started = true;
      }
    }
    // Fill phase: reuse the library's resource-filling passes.
    core::passes::shrink_to_admit_head(ctx);
    core::passes::expand_into_idle(ctx);
  }

 private:
  double max_age_;
};

struct Row {
  std::string name;
  double makespan;
  double mean_wait;
  double slowdown;
};

Row run_with(std::unique_ptr<core::Scheduler> scheduler,
             const platform::ClusterConfig& platform_config,
             std::vector<workload::Job> jobs) {
  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, platform_config);
  const std::string name = scheduler->name();
  core::BatchSystem batch(engine, cluster, std::move(scheduler), recorder);
  batch.submit_all(std::move(jobs));
  engine.run();
  return Row{name, recorder.makespan(), recorder.mean_wait(),
             recorder.mean_bounded_slowdown()};
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);

  platform::ClusterConfig platform_config;
  platform_config.node_count = static_cast<std::size_t>(flags.get("nodes", std::int64_t{64}));
  platform_config.cores_per_node = 48;
  platform_config.flops_per_core = 2e9;
  platform_config.pfs.read_bandwidth = 100e9;
  platform_config.pfs.write_bandwidth = 60e9;

  workload::GeneratorConfig generator;
  generator.job_count = static_cast<std::size_t>(flags.get("jobs", std::int64_t{120}));
  generator.seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));
  generator.max_nodes = 32;
  generator.malleable_fraction = 0.5;
  generator.flops_per_node = 48.0 * 2e9;

  std::printf("custom scheduler demo: %zu jobs on %zu nodes (50%% malleable)\n\n",
              generator.job_count, platform_config.node_count);
  std::printf("%-16s %12s %12s %10s\n", "scheduler", "makespan", "mean_wait", "slowdown");

  std::vector<Row> rows;
  rows.push_back(run_with(std::make_unique<SjfMalleableScheduler>(), platform_config,
                          workload::generate_workload(generator)));
  for (const char* name : {"easy", "easy-malleable"}) {
    rows.push_back(run_with(core::make_scheduler(name), platform_config,
                            workload::generate_workload(generator)));
  }
  for (const Row& row : rows) {
    std::printf("%-16s %12s %12s %10.2f\n", row.name.c_str(),
                util::format_duration(row.makespan).c_str(),
                util::format_duration(row.mean_wait).c_str(), row.slowdown);
  }
  std::printf("\nSJF trades a little makespan for much lower mean wait / slowdown —\n"
              "exactly the policy trade-off the simulator exists to expose.\n");
  return 0;
}
