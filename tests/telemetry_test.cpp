// Telemetry registry coverage: counters, gauge timelines with decimation,
// log-bucketed histogram percentiles, scoped timers, the disabled-mode
// contract, and the JSON export schema.
#include <gtest/gtest.h>

#include <cmath>

#include "core/batch_system.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "stats/profiler.h"
#include "stats/telemetry.h"
#include "test_support.h"

namespace elastisim::telemetry {
namespace {

// Tests that flip the process-wide enabled flag or touch the global registry
// restore a clean state on exit so test order never matters.
class GlobalTelemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().clear();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Registry::global().clear();
  }
};

TEST(TelemetryCounter, AccumulatesAndDefaultsToOne) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(TelemetryGauge, TracksValueMinMaxAndTimeline) {
  Gauge gauge;
  gauge.set(0.0, 5.0);
  gauge.set(1.0, 2.0);
  gauge.set(2.0, 9.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 9.0);
  EXPECT_DOUBLE_EQ(gauge.min(), 2.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 9.0);
  EXPECT_EQ(gauge.updates(), 3u);
  ASSERT_EQ(gauge.samples().size(), 3u);
  EXPECT_DOUBLE_EQ(gauge.samples()[1].time, 1.0);
  EXPECT_DOUBLE_EQ(gauge.samples()[1].value, 2.0);
}

TEST(TelemetryGauge, EmptyGaugeReportsZeros) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_DOUBLE_EQ(gauge.min(), 0.0);
  EXPECT_DOUBLE_EQ(gauge.max(), 0.0);
  EXPECT_TRUE(gauge.samples().empty());
}

TEST(TelemetryGauge, TimelineDecimatesInsteadOfGrowing) {
  Gauge gauge;
  const std::size_t updates = 4 * Gauge::kMaxSamples;
  for (std::size_t i = 0; i < updates; ++i) {
    gauge.set(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(gauge.updates(), updates);
  // Bounded...
  EXPECT_LE(gauge.samples().size(), Gauge::kMaxSamples);
  // ...but still a usable timeline, not a truncated head: it spans the whole
  // run and stays time-ordered.
  ASSERT_GE(gauge.samples().size(), Gauge::kMaxSamples / 4);
  EXPECT_DOUBLE_EQ(gauge.samples().front().time, 0.0);
  EXPECT_GT(gauge.samples().back().time, static_cast<double>(updates) * 0.9);
  for (std::size_t i = 1; i < gauge.samples().size(); ++i) {
    EXPECT_LT(gauge.samples()[i - 1].time, gauge.samples()[i].time);
  }
  // The latest value is exact regardless of decimation.
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(updates - 1));
}

TEST(TelemetryGauge, FinalSampleAlwaysRetained) {
  // Deliberately ends off-stride (a prime count well past two thinning
  // passes): the provisional-tail rule must keep the very last observation
  // in the timeline no matter where the stride lands.
  Gauge gauge;
  const std::size_t updates = 2 * Gauge::kMaxSamples + 4099;
  for (std::size_t i = 0; i < updates; ++i) {
    gauge.set(static_cast<double>(i), static_cast<double>(2 * i));
  }
  ASSERT_FALSE(gauge.samples().empty());
  EXPECT_DOUBLE_EQ(gauge.samples().back().time, static_cast<double>(updates - 1));
  EXPECT_DOUBLE_EQ(gauge.samples().back().value, static_cast<double>(2 * (updates - 1)));
}

TEST(TelemetryGauge, TimestampsStayMonotonicAcrossThinning) {
  // Crossing kMaxSamples repeatedly (several stride doublings) must never
  // reorder the timeline: the re-appended tail after a thinning pass has to
  // land strictly after every kept sample.
  Gauge gauge;
  const std::size_t updates = 5 * Gauge::kMaxSamples + 1;
  for (std::size_t i = 0; i < updates; ++i) {
    gauge.set(static_cast<double>(i), 1.0);
  }
  EXPECT_LE(gauge.samples().size(), Gauge::kMaxSamples);
  for (std::size_t i = 1; i < gauge.samples().size(); ++i) {
    ASSERT_LT(gauge.samples()[i - 1].time, gauge.samples()[i].time)
        << "non-monotonic at sample " << i;
  }
  EXPECT_DOUBLE_EQ(gauge.samples().back().time, static_cast<double>(updates - 1));
}

TEST(TelemetryHistogram, EmptyReportsZeros) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.5), 0.0);
}

TEST(TelemetryHistogram, ConstantSeriesIsExact) {
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.record(3.25e-4);
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_DOUBLE_EQ(histogram.min(), 3.25e-4);
  EXPECT_DOUBLE_EQ(histogram.max(), 3.25e-4);
  // Percentiles clamp to [min, max], so a constant series reports itself
  // exactly despite the power-of-two buckets.
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 3.25e-4);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.5), 3.25e-4);
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 3.25e-4);
}

TEST(TelemetryHistogram, PercentilesWithinBucketError) {
  Histogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.record(static_cast<double>(i));
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 500500.0);
  // Log2 buckets bound the relative error by a factor of two.
  const double p50 = histogram.percentile(0.5);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  const double p99 = histogram.percentile(0.99);
  EXPECT_GE(p99, 495.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_LE(histogram.percentile(0.5), histogram.percentile(0.9));
  EXPECT_LE(histogram.percentile(0.9), histogram.percentile(0.99));
  // Extremes are exact.
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 1000.0);
  // Out-of-range p is clamped, not UB.
  EXPECT_DOUBLE_EQ(histogram.percentile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(2.0), 1000.0);
}

TEST(TelemetryHistogram, NonPositiveValuesLandInZeroBucket) {
  Histogram histogram;
  histogram.record(0.0);
  histogram.record(-5.0);
  histogram.record(8.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.min(), -5.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 8.0);
}

TEST(TelemetryHistogram, ExtremeMagnitudesStayInRange) {
  Histogram histogram;
  histogram.record(1e-15);  // below the smallest bucket floor
  histogram.record(1e15);   // above the largest
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 1e-15);
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 1e15);
}

TEST(TelemetryScopedTimer, RecordsElapsedOnce) {
  Histogram histogram;
  {
    ScopedTimer timer(&histogram);
    const double first = timer.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_DOUBLE_EQ(timer.stop(), 0.0);  // second stop is a no-op
  }
  EXPECT_EQ(histogram.count(), 1u);
}

TEST(TelemetryScopedTimer, NullSinkIsNoop) {
  ScopedTimer timer(nullptr);
  EXPECT_DOUBLE_EQ(timer.stop(), 0.0);
}

TEST(TelemetrySpanLog, CapsAndCountsDropped) {
  SpanLog spans;
  for (std::size_t i = 0; i < SpanLog::kMaxSpans + 10; ++i) {
    spans.add("s", static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(spans.spans().size(), SpanLog::kMaxSpans);
  EXPECT_EQ(spans.dropped(), 10u);
  spans.clear();
  EXPECT_TRUE(spans.spans().empty());
  EXPECT_EQ(spans.dropped(), 0u);
}

TEST(TelemetryRegistry, HandlesAreStableAndNamed) {
  Registry registry;
  Counter& counter = registry.counter("a");
  counter.add(7);
  // Same name -> same object.
  EXPECT_EQ(&registry.counter("a"), &counter);
  EXPECT_EQ(registry.counter("a").value(), 7u);
  registry.gauge("g").set(0.0, 1.5);
  registry.histogram("h").record(2.0);
  registry.clear();
  EXPECT_TRUE(registry.counters().empty());
  EXPECT_TRUE(registry.gauges().empty());
  EXPECT_TRUE(registry.histograms().empty());
}

// Nested member lookup that fails the test on a missing key instead of
// dereferencing null.
const json::Value& member(const json::Value& value, std::string_view key) {
  const json::Value* found = value.find(key);
  EXPECT_NE(found, nullptr) << "missing member " << key;
  static const json::Value null_value;
  return found ? *found : null_value;
}

TEST(TelemetryRegistry, ToJsonMatchesDocumentedSchema) {
  Registry registry;
  registry.counter("jobs").add(3);
  registry.gauge("queue").set(1.0, 4.0);
  for (int i = 0; i < 10; ++i) registry.histogram("lat").record(0.5);
  registry.spans().add("phase", 0.0, 1.0, 100);

  const json::Value parsed = json::parse(json::dump(registry.to_json()));  // round-trips

  EXPECT_EQ(member(member(parsed, "counters"), "jobs").as_int(), 3);
  const json::Value& queue = member(member(parsed, "gauges"), "queue");
  EXPECT_DOUBLE_EQ(member(queue, "value").as_double(), 4.0);
  const json::Array& samples = member(queue, "samples").as_array();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].as_array()[0].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(samples[0].as_array()[1].as_double(), 4.0);
  const json::Value& lat = member(member(parsed, "histograms"), "lat");
  EXPECT_EQ(member(lat, "count").as_int(), 10);
  EXPECT_DOUBLE_EQ(member(lat, "p50").as_double(), 0.5);
  EXPECT_EQ(member(member(parsed, "spans"), "count").as_int(), 1);
  EXPECT_EQ(member(member(parsed, "spans"), "dropped").as_int(), 0);
}

TEST(TelemetryTimed, DisabledModeSkipsRegistry) {
  set_enabled(false);
  Registry::global().clear();
  {
    auto timer = timed("should.not.exist");
  }
  EXPECT_TRUE(Registry::global().histograms().empty());
}

TEST_F(GlobalTelemetry, TimedRecordsIntoGlobalRegistry) {
  {
    auto timer = timed("scope.test");
  }
  EXPECT_EQ(Registry::global().histogram("scope.test").count(), 1u);
}

TEST_F(GlobalTelemetry, SimulationPopulatesEngineAndSchedulerMetrics) {
  namespace prof = stats::profiler;
  prof::set_enabled(true);
  prof::Profiler::global().reset();
  core::SimulationConfig config;
  config.platform = test::tiny_platform(4);
  config.scheduler = "easy";
  std::vector<workload::Job> jobs;
  for (int i = 1; i <= 4; ++i) {
    jobs.push_back(test::rigid_job(i, 2, 10.0, static_cast<double>(i)));
  }
  const core::SimulationResult result = core::run_simulation(config, std::move(jobs));
  prof::set_enabled(false);

  auto& registry = Registry::global();
  EXPECT_EQ(registry.counter("batch.jobs_started").value(), 4u);
  EXPECT_EQ(registry.counter("cluster.nodes_allocated").value(), 8u);
  EXPECT_EQ(registry.counter("cluster.nodes_released").value(), 8u);
  EXPECT_GT(registry.counter("scheduler.invocations").value(), 0u);
  EXPECT_EQ(registry.counter("scheduler.invocations").value(), result.scheduler_invocations);
  EXPECT_EQ(registry.counter("scheduler.rounds").value(), result.scheduler_rounds);
  EXPECT_EQ(registry.counter("engine.events").value(), result.events_processed);
  EXPECT_DOUBLE_EQ(registry.gauge("cluster.nodes").value(), 4.0);
  // Queue depth was sampled at every scheduling point and ended at zero.
  EXPECT_EQ(registry.gauge("batch.queue_depth").updates(), result.scheduler_invocations);
  EXPECT_DOUBLE_EQ(registry.gauge("batch.queue_depth").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("cluster.free_nodes").value(), 4.0);
  // Wall time is the profiler's: the registry keeps no wall-clock timers of
  // its own, and the scheduler, dispatch and fluid phases cover that work.
  for (const char* timer : {"engine.pop_seconds", "engine.dispatch_seconds",
                            "fluid.rebalance_seconds", "scheduler.decision_seconds"}) {
    EXPECT_EQ(registry.histograms().count(timer), 0u) << timer;
  }
  if (prof::compiled()) {
    const auto& profiler = prof::Profiler::global();
    EXPECT_EQ(profiler.stats(prof::Phase::kScheduler).calls, result.scheduler_invocations);
    EXPECT_GT(profiler.stats(prof::Phase::kEngineDispatch).calls, 0u);
    EXPECT_GT(profiler.stats(prof::Phase::kFluidSolve).calls, 0u);
  }
}

TEST(TelemetryDisabled, SimulationLeavesGlobalRegistryEmpty) {
  set_enabled(false);
  Registry::global().clear();
  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, test::tiny_platform(4));
  core::BatchSystem batch(engine, cluster, core::make_scheduler("fcfs"), recorder);
  batch.submit(test::rigid_job(1, 2, 10.0));
  engine.run();
  EXPECT_EQ(batch.finished_jobs(), 1u);
  EXPECT_TRUE(Registry::global().counters().empty());
  EXPECT_TRUE(Registry::global().histograms().empty());
  EXPECT_TRUE(Registry::global().gauges().empty());
}

}  // namespace
}  // namespace elastisim::telemetry
