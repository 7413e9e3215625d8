// StateSampler coverage: derived fields, same-time collapse, cumulative
// tallies, stride-doubling thinning (bounded, monotonic, final sample kept),
// the CSV round trip, and end-to-end sampling through a BatchSystem run.
#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_system.h"
#include "core/scheduler.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "stats/state_sampler.h"
#include "test_support.h"

namespace elastisim::stats {
namespace {

TEST(StateSampler, DerivesAllocationAndUtilization) {
  StateSampler sampler;
  // 64 nodes: 40 free, 2 failed, 1 drained -> 21 allocated.
  sampler.sample(10.0, 3, 5, 40, 2, 1, 64);
  ASSERT_EQ(sampler.samples().size(), 1u);
  const StateSample& s = sampler.samples().front();
  EXPECT_EQ(s.queued, 3);
  EXPECT_EQ(s.running, 5);
  EXPECT_EQ(s.allocated, 21);
  EXPECT_EQ(s.free_nodes, 40);
  EXPECT_EQ(s.down, 3);
  EXPECT_EQ(s.total, 64);
  EXPECT_DOUBLE_EQ(s.utilization, 21.0 / 64.0);
}

TEST(StateSampler, EmptyClusterUtilizationIsZero) {
  StateSampler sampler;
  sampler.sample(0.0, 0, 0, 0, 0, 0, 0);
  ASSERT_EQ(sampler.samples().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.samples().front().utilization, 0.0);
}

TEST(StateSampler, SameTimestampCollapsesToLastObservation) {
  // Scheduling points pile up on one simulated instant (finish + submit +
  // timer); only the settled state survives, keeping the series a step
  // function with unique times.
  StateSampler sampler;
  sampler.sample(5.0, 4, 1, 7, 0, 0, 8);
  sampler.sample(5.0, 2, 3, 5, 0, 0, 8);
  sampler.sample(5.0, 0, 5, 3, 0, 0, 8);
  ASSERT_EQ(sampler.samples().size(), 1u);
  EXPECT_EQ(sampler.samples().front().queued, 0);
  EXPECT_EQ(sampler.samples().front().running, 5);
  // Replacements do not count as timeline growth.
  EXPECT_EQ(sampler.updates(), 1u);
}

TEST(StateSampler, CumulativeTalliesSnapshotIntoSamples) {
  StateSampler sampler;
  sampler.count_expansion();
  sampler.count_expansion();
  sampler.count_shrink();
  sampler.count_evolving_grant();
  sampler.count_checkpoint_restart();
  sampler.count_requeue(120.0);
  sampler.sample(1.0, 0, 1, 3, 0, 0, 4);
  sampler.count_requeue(30.0);
  sampler.sample(2.0, 0, 1, 3, 0, 0, 4);
  ASSERT_EQ(sampler.samples().size(), 2u);
  EXPECT_EQ(sampler.samples()[0].expansions, 2u);
  EXPECT_EQ(sampler.samples()[0].shrinks, 1u);
  EXPECT_EQ(sampler.samples()[0].evolving_grants, 1u);
  EXPECT_EQ(sampler.samples()[0].checkpoint_restarts, 1u);
  EXPECT_EQ(sampler.samples()[0].requeues, 1u);
  EXPECT_DOUBLE_EQ(sampler.samples()[0].lost_node_seconds, 120.0);
  EXPECT_EQ(sampler.samples()[1].requeues, 2u);
  EXPECT_DOUBLE_EQ(sampler.samples()[1].lost_node_seconds, 150.0);
}

TEST(StateSampler, ThinningBoundsTimelineAndKeepsFinalSample) {
  StateSampler sampler;
  const std::size_t updates = 3 * StateSampler::kMaxSamples + 101;
  for (std::size_t i = 0; i < updates; ++i) {
    sampler.sample(static_cast<double>(i), static_cast<int>(i % 7), 1, 3, 0, 0, 4);
  }
  EXPECT_EQ(sampler.updates(), updates);
  EXPECT_LE(sampler.samples().size(), StateSampler::kMaxSamples);
  ASSERT_GE(sampler.samples().size(), StateSampler::kMaxSamples / 4);
  EXPECT_DOUBLE_EQ(sampler.samples().front().time, 0.0);
  // The final observation survives thinning regardless of stride position.
  EXPECT_DOUBLE_EQ(sampler.samples().back().time, static_cast<double>(updates - 1));
  EXPECT_EQ(sampler.samples().back().queued, static_cast<int>((updates - 1) % 7));
  for (std::size_t i = 1; i < sampler.samples().size(); ++i) {
    ASSERT_LT(sampler.samples()[i - 1].time, sampler.samples()[i].time)
        << "non-monotonic at sample " << i;
  }
}

TEST(StateSampler, CsvRoundTripsExactly) {
  StateSampler sampler;
  sampler.count_expansion();
  sampler.count_requeue(0.125);
  sampler.sample(0.0, 5, 0, 8, 0, 0, 8);
  sampler.sample(1.5, 3, 2, 4, 1, 1, 8);
  sampler.sample(1e9 + 0.25, 0, 4, 0, 0, 0, 8);
  std::stringstream stream;
  sampler.write_csv(stream);
  const std::vector<StateSample> loaded = StateSampler::read_csv(stream);
  EXPECT_EQ(loaded, sampler.samples());
}

TEST(StateSampler, ReadCsvRejectsMissingColumnAndMalformedRow) {
  {
    std::stringstream stream("time,queued\n1,2\n");
    EXPECT_THROW(StateSampler::read_csv(stream), std::runtime_error);
  }
  {
    std::stringstream good;
    StateSampler sampler;
    sampler.sample(0.0, 1, 0, 4, 0, 0, 4);
    sampler.write_csv(good);
    std::string text = good.str();
    text += "not,a,valid,row\n";
    std::stringstream stream(text);
    EXPECT_THROW(StateSampler::read_csv(stream), std::runtime_error);
  }
}

TEST(StateSampler, RecordsBatchSystemRunEndToEnd) {
  // Two rigid 2-node jobs on 2 nodes: the second waits for the first, so the
  // timeline must show a queued phase, full utilization while running, and an
  // idle tail — all at scheduling points only (interval 0).
  sim::Engine engine;
  platform::Cluster cluster(engine, test::tiny_platform(2));
  Recorder recorder;
  core::BatchSystem batch(engine, cluster, core::make_scheduler("fcfs"), recorder, {});
  StateSampler sampler;
  batch.attach(sampler);
  batch.submit_all({test::rigid_job(1, 2, 10.0), test::rigid_job(2, 2, 10.0)});
  engine.run();
  ASSERT_EQ(batch.finished_jobs(), 2u);
  ASSERT_GE(sampler.samples().size(), 2u);
  bool saw_queued = false;
  bool saw_full = false;
  for (const StateSample& s : sampler.samples()) {
    if (s.queued > 0) saw_queued = true;
    if (s.utilization == 1.0) saw_full = true;
    EXPECT_EQ(s.total, 2);
    EXPECT_EQ(s.down, 0);
  }
  EXPECT_TRUE(saw_queued);
  EXPECT_TRUE(saw_full);
  // After the last finish the cluster is empty again.
  EXPECT_EQ(sampler.samples().back().queued, 0);
  EXPECT_EQ(sampler.samples().back().running, 0);
  EXPECT_DOUBLE_EQ(sampler.samples().back().utilization, 0.0);
}

TEST(StateSampler, FixedCadenceAddsSamplesBetweenSchedulingPoints) {
  // One 100-second job: with interval 0 the timeline has only the start and
  // finish points; a 10-second cadence fills the gap.
  auto run = [](double interval) {
    sim::Engine engine;
    platform::Cluster cluster(engine, test::tiny_platform(2));
    Recorder recorder;
    core::BatchSystem batch(engine, cluster, core::make_scheduler("fcfs"), recorder, {});
    StateSampler sampler(interval);
    batch.attach(sampler);
    batch.submit_all({test::rigid_job(1, 2, 100.0)});
    engine.run();
    return sampler.samples().size();
  };
  const std::size_t sparse = run(0.0);
  const std::size_t dense = run(10.0);
  EXPECT_GT(dense, sparse);
  EXPECT_GE(dense, sparse + 5);
}

}  // namespace
}  // namespace elastisim::stats
