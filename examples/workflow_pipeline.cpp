// Workflow pipelines on a GPU cluster: a classic simulate -> train -> analyze
// campaign expressed with job dependencies ("afterok"), with the training
// stages running on the nodes' accelerators.
//
//   ./workflow_pipeline [--pipelines=6] [--nodes=32]
//
// Demonstrates: job dependencies (held/released/cancelled), GPU-targeted
// compute tasks, and the event trace as a workflow debugging artifact.
#include <algorithm>
#include <cstdio>

#include "core/simulation.h"
#include "stats/trace.h"
#include "util/flags.h"
#include "util/units.h"

using namespace elastisim;

namespace {

workload::Job stage(workload::JobId id, const std::string& name, int nodes,
                    double cpu_seconds, double gpu_seconds, double output_bytes,
                    std::vector<workload::JobId> deps, double flops_per_node,
                    double gflops_per_node) {
  workload::Job job;
  job.id = id;
  job.name = name;
  job.user = "campaign";
  job.requested_nodes = job.min_nodes = job.max_nodes = nodes;
  job.dependencies = std::move(deps);
  workload::Phase phase;
  phase.name = "work";
  if (cpu_seconds > 0.0) {
    phase.groups.push_back({workload::Task{
        "cpu", workload::ComputeTask{cpu_seconds * flops_per_node * nodes,
                                     workload::ScalingModel::kStrong, 0.0,
                                     workload::ComputeTarget::kCpu}}});
  }
  if (gpu_seconds > 0.0) {
    phase.groups.push_back({workload::Task{
        "gpu", workload::ComputeTask{gpu_seconds * gflops_per_node * nodes,
                                     workload::ScalingModel::kStrong, 0.0,
                                     workload::ComputeTarget::kGpu}}});
  }
  if (output_bytes > 0.0) {
    phase.groups.push_back({workload::Task{
        "write", workload::IoTask{true, output_bytes, workload::ScalingModel::kStrong,
                                  workload::IoTarget::kPfs}}});
  }
  job.application.phases.push_back(std::move(phase));
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto pipelines = static_cast<int>(flags.get("pipelines", std::int64_t{6}));

  core::SimulationConfig run;
  platform::ClusterConfig& config = run.platform;
  config.node_count = static_cast<std::size_t>(flags.get("nodes", std::int64_t{32}));
  config.cores_per_node = 48;
  config.flops_per_core = 2e9;
  config.gpus_per_node = 4;
  config.flops_per_gpu = 20e9;
  config.pfs.read_bandwidth = 100e9;
  config.pfs.write_bandwidth = 60e9;
  const double cpu_node = config.cores_per_node * config.flops_per_core;
  const double gpu_node = config.gpus_per_node * config.flops_per_gpu;
  run.scheduler = "easy";
  stats::EventTrace trace;
  run.sinks.push_back(&trace);

  std::vector<workload::Job> jobs;
  workload::JobId id = 1;
  for (int p = 0; p < pipelines; ++p) {
    const double submit = 120.0 * p;
    const workload::JobId sim_id = id++;
    auto simulate = stage(sim_id, "simulate" + std::to_string(p), 8, 600.0, 0.0,
                          64e9, {}, cpu_node, gpu_node);
    simulate.submit_time = submit;
    jobs.push_back(std::move(simulate));

    const workload::JobId train_id = id++;
    auto train = stage(train_id, "train" + std::to_string(p), 4, 30.0, 900.0, 8e9,
                       {sim_id}, cpu_node, gpu_node);
    train.submit_time = submit;
    jobs.push_back(std::move(train));

    const workload::JobId analyze_id = id++;
    auto analyze = stage(analyze_id, "analyze" + std::to_string(p), 2, 240.0, 0.0,
                         1e9, {train_id}, cpu_node, gpu_node);
    analyze.submit_time = submit;
    jobs.push_back(std::move(analyze));
  }
  const core::SimulationResult result = core::run_simulation(run, std::move(jobs));
  const stats::Recorder& recorder = result.recorder;

  std::printf("%d pipelines (simulate -> train[gpu] -> analyze) on %zu nodes\n\n",
              pipelines, config.node_count);
  std::printf("%-12s %10s %10s %10s\n", "stage", "start", "end", "held_for");
  for (const auto& record : recorder.records()) {
    std::printf("%-12s %10s %10s %10s\n", record.name.c_str(),
                util::format_duration(record.start_time).c_str(),
                util::format_duration(record.end_time).c_str(),
                util::format_duration(record.wait_time()).c_str());
  }
  std::printf("\nfinished %zu, cancelled %zu; trace recorded %zu events\n",
              result.finished,
              static_cast<std::size_t>(std::count_if(
                  recorder.records().begin(), recorder.records().end(),
                  [](const stats::JobRecord& record) { return record.cancelled; })),
              trace.size());
  std::printf("Each train stage was held until its simulate stage finished and ran\n"
              "on the GPUs; analyze stages followed automatically.\n");
  return 0;
}
