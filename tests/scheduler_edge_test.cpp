// Scheduler edge cases the behavioral suites do not reach: infinite
// walltimes under backfilling, adaptive jobs under conservative
// reservations, interactions between priorities and dependencies, and
// evolving-grant policy corners.
#include <gtest/gtest.h>

#include "core/batch_system.h"
#include "core/schedulers.h"
#include "core/simulation.h"
#include "test_support.h"
#include "workload/generator.h"

namespace elastisim::core {
namespace {

using test::compute_job;
using test::rigid_job;
using test::tiny_platform;
using workload::JobType;

struct Harness {
  explicit Harness(std::size_t nodes, const std::string& scheduler)
      : cluster(engine, tiny_platform(nodes)),
        batch(engine, cluster, make_scheduler(scheduler), recorder) {}

  const stats::JobRecord& record(workload::JobId id) {
    for (const auto& record : recorder.records()) {
      if (record.id == id) return record;
    }
    ADD_FAILURE() << "no record for job " << id;
    static stats::JobRecord dummy;
    return dummy;
  }

  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster;
  BatchSystem batch;
};

workload::Job no_walltime(workload::Job job) {
  job.walltime_limit = std::numeric_limits<double>::infinity();
  return job;
}

TEST(SchedulerEdge, EasyWithInfiniteEstimatesStillBackfillsIntoSpare) {
  // No walltimes anywhere: shadow time is infinite, so anything that fits
  // the free nodes may backfill (spare-node rule cannot apply, the
  // before-shadow rule always does).
  Harness h(4, "easy");
  h.batch.submit(no_walltime(rigid_job(1, 3, 100.0)));
  h.batch.submit(no_walltime(rigid_job(2, 4, 50.0, 1.0)));
  h.batch.submit(no_walltime(rigid_job(3, 1, 10.0, 2.0)));
  h.engine.run();
  EXPECT_NEAR(h.record(3).start_time, 2.0, 1e-6);
  EXPECT_EQ(h.batch.finished_jobs(), 3u);
}

TEST(SchedulerEdge, ConservativeHandlesInfiniteWalltimes) {
  Harness h(4, "conservative");
  h.batch.submit(no_walltime(rigid_job(1, 2, 30.0)));
  h.batch.submit(no_walltime(rigid_job(2, 4, 10.0, 1.0)));
  h.batch.submit(no_walltime(rigid_job(3, 2, 5.0, 2.0)));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 3u);
  // Job 3 fits beside job 1 now; with job 2's reservation pushed to
  // "forever-horizon", the earliest gap for job 3 must still be found.
  EXPECT_GE(h.record(2).start_time, 30.0 - 1e-6);
}

TEST(SchedulerEdge, ConservativeStartsAdaptiveJobsAtFeasibleSize) {
  Harness h(4, "conservative");
  h.batch.submit(compute_job(1, JobType::kMoldable, 8, 10.0, 2, 8));
  h.engine.run();
  EXPECT_EQ(h.record(1).initial_nodes, 4);
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
}

TEST(SchedulerEdge, PriorityRespectsDependencies) {
  // A top-priority job held on a dependency must not jump into the machine
  // before its parent finishes.
  Harness h(4, "priority");
  auto parent = rigid_job(1, 4, 30.0);
  h.batch.submit(std::move(parent));
  auto child = rigid_job(2, 2, 10.0, 1.0);
  child.priority = 9;
  child.dependencies = {1};
  h.batch.submit(std::move(child));
  auto rival = rigid_job(3, 2, 10.0, 2.0);
  rival.priority = 1;
  h.batch.submit(std::move(rival));
  h.engine.run();
  EXPECT_GE(h.record(2).start_time, 30.0 - 1e-9);
  // Once released, the high-priority child and the rival both fit (2+2=4).
  EXPECT_DOUBLE_EQ(h.record(3).start_time, 30.0);
}

TEST(SchedulerEdge, EqualShareWithZeroMalleableIsFcfs) {
  Harness h(4, "equal-share");
  for (int i = 1; i <= 3; ++i) h.batch.submit(rigid_job(i, 4, 10.0, i));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 3u);
  EXPECT_DOUBLE_EQ(h.record(3).end_time, 31.0);
}

TEST(SchedulerEdge, MalleableJobAtMaxNeverExpands) {
  Harness h(8, "fcfs-malleable");
  auto job = compute_job(1, JobType::kMalleable, 4, 10.0, 2, 4, 0.0, 5);
  job.application.state_bytes_per_node = 0.0;
  h.batch.submit(std::move(job));
  h.engine.run();
  EXPECT_EQ(h.record(1).expansions, 0);
  EXPECT_EQ(h.record(1).final_nodes, 4);
}

TEST(SchedulerEdge, MalleableJobAtMinNeverShrinksBelow) {
  Harness h(4, "fcfs-malleable");
  auto hog = compute_job(1, JobType::kMalleable, 2, 10.0, 2, 2, 0.0, 10);
  hog.application.state_bytes_per_node = 0.0;
  h.batch.submit(std::move(hog));
  h.batch.submit(rigid_job(2, 4, 10.0, 1.0));  // wants the whole machine
  h.engine.run();
  EXPECT_EQ(h.record(1).shrinks, 0);
  // Job 2 can only start after job 1 ends entirely.
  EXPECT_GE(h.record(2).start_time, h.record(1).end_time - 1e-9);
}

TEST(SchedulerEdge, GrantedGrowthTruncatedToFreeNodes) {
  // A permissive policy may grant a grow that exceeds the free pool; the
  // batch system truncates the application to what is actually free.
  struct AlwaysGrant final : Scheduler {
    std::string name() const override { return "always-grant"; }
    void schedule(SchedulerContext& ctx) override { passes::fcfs_start(ctx); }
    bool on_evolving_request(SchedulerContext&, workload::JobId, int) override {
      return true;
    }
  };
  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, tiny_platform(8));
  BatchSystem batch(engine, cluster, std::make_unique<AlwaysGrant>(), recorder);

  workload::Job evolving;
  evolving.id = 1;
  evolving.type = JobType::kEvolving;
  evolving.requested_nodes = 2;
  evolving.min_nodes = 1;
  evolving.max_nodes = 8;
  workload::Phase first;
  first.name = "a";
  first.groups.push_back({workload::Task{"d", workload::DelayTask{10.0}}});
  workload::Phase second = first;
  second.name = "b";
  second.evolving_delta = 6;  // wants 8 total
  evolving.application.phases.push_back(first);
  evolving.application.phases.push_back(second);
  batch.submit(std::move(evolving));
  batch.submit(rigid_job(2, 4, 100.0));  // occupies half the machine from t=0
  engine.run();

  const stats::JobRecord* record = nullptr;
  for (const auto& r : recorder.records()) {
    if (r.id == 1) record = &r;
  }
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->evolving_granted, 1);
  // Wanted 2 -> 8, but only 2 nodes were free: truncated to 4.
  EXPECT_EQ(record->final_nodes, 4);
}

TEST(SchedulerEdge, BackfillingNeverStartsJobLargerThanFree) {
  workload::GeneratorConfig generator;
  generator.job_count = 60;
  generator.seed = 41;
  generator.max_nodes = 8;
  generator.mean_interarrival = 15.0;
  generator.flops_per_node = 1e9;
  for (const char* scheduler : {"easy", "conservative", "priority"}) {
    SimulationConfig config;
    config.platform = tiny_platform(8);
    config.scheduler = scheduler;
    auto result = run_simulation(config, workload::generate_workload(generator));
    // If a start ever exceeded the free pool, the allocation timeline would
    // exceed the cluster; the recorder asserts that internally, and here we
    // double-check the exposed series.
    for (const auto& point : result.recorder.timeline()) {
      EXPECT_LE(point.allocated_nodes, 8) << scheduler;
    }
    EXPECT_EQ(result.stuck, 0u) << scheduler;
  }
}

TEST(SchedulerEdge, SchedulerSeesPendingTargetsInView) {
  // Covered indirectly elsewhere; assert directly that a pending shrink is
  // visible so policies do not double-count capacity.
  struct Probe final : Scheduler {
    std::string name() const override { return "probe"; }
    void schedule(SchedulerContext& ctx) override {
      passes::fcfs_start(ctx);
      for (const RunningJob& running : ctx.running()) {
        if (running.job->can_resize_at_runtime() && running.pending_target == running.nodes &&
            running.nodes > running.job->min_nodes) {
          ctx.set_target(running.job->id, running.job->min_nodes);
        }
        if (running.pending_target != running.nodes) saw_pending = true;
      }
    }
    bool saw_pending = false;
  };
  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, tiny_platform(4));
  auto probe = std::make_unique<Probe>();
  Probe* probe_ptr = probe.get();
  BatchSystem batch(engine, cluster, std::move(probe), recorder);
  auto job = compute_job(1, JobType::kMalleable, 4, 5.0, 2, 4, 0.0, 4);
  job.application.state_bytes_per_node = 0.0;
  batch.submit(std::move(job));
  engine.run();
  EXPECT_TRUE(probe_ptr->saw_pending);
}

}  // namespace
}  // namespace elastisim::core
