// Event-trace coverage: every batch-system event kind appears in the trace
// with the right ordering and detail strings.
#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_system.h"
#include "core/scheduler.h"
#include "stats/trace.h"
#include "test_support.h"
#include "util/csv.h"

namespace elastisim::stats {
namespace {

using core::BatchConfig;
using core::BatchSystem;
using core::make_scheduler;
using test::compute_job;
using test::rigid_job;
using test::tiny_platform;
using workload::JobType;

TEST(EventTrace, RecordsInOrder) {
  EventTrace trace;
  EXPECT_EQ(trace.record(1.0, TraceEvent::kSubmit, 1), 1u);
  EXPECT_EQ(trace.record(2.0, TraceEvent::kStart, 1, "4 nodes"), 2u);
  EXPECT_EQ(trace.record(5.0, TraceEvent::kFinish, 1), 3u);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.entries()[1].event, TraceEvent::kStart);
  EXPECT_EQ(trace.entries()[1].detail, "4 nodes");
  // Sequence numbers are 1-based and monotonic — the stable tie-break for
  // same-timestamp events and the key journal verdicts link to.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace.entries()[i].seq, i + 1);
  }
}

TEST(EventTrace, FilteredSelectsKind) {
  EventTrace trace;
  trace.record(1.0, TraceEvent::kSubmit, 1);
  trace.record(2.0, TraceEvent::kStart, 1);
  trace.record(3.0, TraceEvent::kSubmit, 2);
  const auto submits = trace.filtered(TraceEvent::kSubmit);
  ASSERT_EQ(submits.size(), 2u);
  EXPECT_EQ(submits[1].job, 2u);
}

TEST(EventTrace, CsvHasHeaderAndRows) {
  EventTrace trace;
  trace.record(1.5, TraceEvent::kNodeFail, 0, "node 3");
  std::ostringstream out;
  trace.write_csv(out);
  std::istringstream in(out.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  const auto fields = util::split_csv_line(row);
  ASSERT_EQ(fields.size(), 5u);
  EXPECT_EQ(fields[0], "1");
  EXPECT_EQ(fields[2], "node-fail");
  EXPECT_EQ(fields[4], "node 3");
}

TEST(EventTrace, CsvEscapesCommasAndQuotes) {
  EventTrace trace;
  trace.record(1.0, TraceEvent::kStart, 7, "nodes 1,2,3");
  trace.record(2.0, TraceEvent::kFinish, 7, "status \"ok\", clean");
  std::ostringstream out;
  trace.write_csv(out);
  std::istringstream in(out.str());
  std::string header, first, second;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, first));
  ASSERT_TRUE(std::getline(in, second));
  // The raw line is quoted...
  EXPECT_NE(first.find("\"nodes 1,2,3\""), std::string::npos);
  // ...and round-trips through the reader unchanged.
  const auto fields_first = util::split_csv_line(first);
  ASSERT_EQ(fields_first.size(), 5u);
  EXPECT_EQ(fields_first[4], "nodes 1,2,3");
  const auto fields_second = util::split_csv_line(second);
  ASSERT_EQ(fields_second.size(), 5u);
  EXPECT_EQ(fields_second[4], "status \"ok\", clean");
}

TEST(EventTrace, FilteredOnEmptyTraceIsEmpty) {
  EventTrace trace;
  EXPECT_TRUE(trace.filtered(TraceEvent::kStart).empty());
  std::ostringstream out;
  trace.write_csv(out);
  // Header only.
  EXPECT_EQ(out.str().find('\n'), out.str().size() - 1);
}

TEST(EventTrace, EventNamesAreUnique) {
  std::set<std::string> names;
  for (auto event : {TraceEvent::kSubmit, TraceEvent::kStart, TraceEvent::kExpand,
                     TraceEvent::kShrink, TraceEvent::kEvolvingRequest, TraceEvent::kFinish,
                     TraceEvent::kWalltimeKill, TraceEvent::kRequeue, TraceEvent::kCancel,
                     TraceEvent::kNodeFail,
                     TraceEvent::kNodeRestore}) {
    EXPECT_TRUE(names.insert(to_string(event)).second) << to_string(event);
  }
}

struct Harness {
  explicit Harness(std::size_t nodes, const std::string& scheduler = "fcfs",
                   BatchConfig config = {})
      : cluster(engine, tiny_platform(nodes)),
        batch(engine, cluster, make_scheduler(scheduler), recorder, config) {
    batch.attach(trace);
  }

  sim::Engine engine;
  stats::Recorder recorder;
  EventTrace trace;
  platform::Cluster cluster;
  BatchSystem batch;
};

TEST(BatchTrace, LifecycleEventsEmitted) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 2, 10.0));
  h.engine.run();
  ASSERT_EQ(h.trace.size(), 3u);
  EXPECT_EQ(h.trace.entries()[0].event, TraceEvent::kSubmit);
  EXPECT_EQ(h.trace.entries()[1].event, TraceEvent::kStart);
  EXPECT_EQ(h.trace.entries()[2].event, TraceEvent::kFinish);
  EXPECT_DOUBLE_EQ(h.trace.entries()[2].time, 10.0);
}

TEST(BatchTrace, TimesAreMonotone) {
  Harness h(4, "easy");
  for (int i = 1; i <= 6; ++i) {
    h.batch.submit(rigid_job(i, 1 + i % 3, 10.0 * i, i));
  }
  h.engine.run();
  for (std::size_t i = 1; i < h.trace.size(); ++i) {
    EXPECT_LE(h.trace.entries()[i - 1].time, h.trace.entries()[i].time);
  }
}

TEST(BatchTrace, ExpandShrinkDetailShowsTransition) {
  Harness h(4, "fcfs-malleable");
  auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 4, 0.0, 10);
  job.application.state_bytes_per_node = 0.0;
  h.batch.submit(std::move(job));
  h.batch.submit(rigid_job(2, 2, 10.0, /*submit=*/15.0));
  h.engine.run();
  const auto expands = h.trace.filtered(TraceEvent::kExpand);
  ASSERT_FALSE(expands.empty());
  EXPECT_EQ(expands[0].detail, "2->4");
  const auto shrinks = h.trace.filtered(TraceEvent::kShrink);
  ASSERT_FALSE(shrinks.empty());
  EXPECT_EQ(shrinks[0].detail, "4->2");
}

TEST(BatchTrace, WalltimeKillEmitted) {
  Harness h(2);
  auto job = rigid_job(1, 2, 100.0);
  job.walltime_limit = 30.0;
  h.batch.submit(std::move(job));
  h.engine.run();
  ASSERT_EQ(h.trace.filtered(TraceEvent::kWalltimeKill).size(), 1u);
  EXPECT_TRUE(h.trace.filtered(TraceEvent::kFinish).empty());
}

TEST(BatchTrace, FailureAndRequeueEmitted) {
  BatchConfig config;
  config.failure_policy = core::FailurePolicy::kRequeue;
  Harness h(4, "fcfs", config);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.inject_failure(0, 20.0, /*repair=*/30.0);
  h.engine.run();
  EXPECT_EQ(h.trace.filtered(TraceEvent::kNodeFail).size(), 1u);
  EXPECT_EQ(h.trace.filtered(TraceEvent::kNodeRestore).size(), 1u);
  EXPECT_EQ(h.trace.filtered(TraceEvent::kRequeue).size(), 1u);
  // Restart emits a second start event.
  EXPECT_EQ(h.trace.filtered(TraceEvent::kStart).size(), 2u);
}

TEST(BatchTrace, EvolvingRequestDetail) {
  Harness h(8);
  workload::Job job;
  job.id = 1;
  job.type = JobType::kEvolving;
  job.requested_nodes = 2;
  job.min_nodes = 1;
  job.max_nodes = 8;
  workload::Phase first;
  first.name = "a";
  first.groups.push_back({workload::Task{"d", workload::DelayTask{5.0}}});
  workload::Phase second = first;
  second.name = "b";
  second.evolving_delta = 2;
  job.application.phases.push_back(first);
  job.application.phases.push_back(second);
  h.batch.submit(std::move(job));
  h.engine.run();
  const auto requests = h.trace.filtered(TraceEvent::kEvolvingRequest);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].detail, "+2 granted");
}

TEST(BatchTrace, NoTraceMeansNoCost) {
  // A batch system without a trace attached must behave identically.
  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, tiny_platform(4));
  BatchSystem batch(engine, cluster, make_scheduler("fcfs"), recorder);
  batch.submit(rigid_job(1, 2, 10.0));
  engine.run();
  EXPECT_EQ(batch.finished_jobs(), 1u);
}

}  // namespace
}  // namespace elastisim::stats
