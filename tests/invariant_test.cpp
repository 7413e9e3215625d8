// InvariantChecker tests: a clean run validates silently at every scheduling
// point, a seeded corruption (the test-only double-allocation hook) is caught
// with a diagnostic naming the job and node, and the always-on ELSIM_CHECK
// layer rejects bad user input in release builds.
#include <gtest/gtest.h>

#include <string>

#include "core/batch_system.h"
#include "core/invariant_checker.h"
#include "core/schedulers.h"
#include "test_support.h"
#include "util/check.h"
#include "util/rng.h"

namespace elastisim::core {
namespace {

using test::rigid_job;
using test::tiny_platform;

struct Harness {
  explicit Harness(std::size_t nodes)
      : cluster(engine, tiny_platform(nodes)),
        batch(engine, cluster, make_scheduler("fcfs"), recorder) {
    checker.attach(engine, batch);
  }

  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster;
  InvariantChecker checker;
  BatchSystem batch;
};

TEST(InvariantChecker, CleanRunValidatesEveryPoint) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 4, 100.0));
  h.batch.submit(rigid_job(2, 2, 50.0, /*submit=*/10.0));
  h.batch.submit(rigid_job(3, 2, 50.0, /*submit=*/10.0));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 3u);
  // Submission, starts, and completions each invoke the scheduler.
  EXPECT_GE(h.checker.scheduling_point_checks(), 4u);
  EXPECT_GT(h.checker.events_checked(), 0u);
}

TEST(InvariantChecker, DoubleAllocationCaughtAndNamed) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 2, 100.0));
  // After job 1 starts, leak its first node back into the free pool; the
  // scheduling point triggered by job 2's submission must then fail.
  h.engine.schedule_at(5.0, [&h] { ASSERT_TRUE(h.batch.test_corrupt_double_allocation(1)); });
  h.batch.submit(rigid_job(2, 1, 10.0, /*submit=*/20.0));
  try {
    h.engine.run();
    FAIL() << "corrupted batch state passed validation";
  } catch (const InvariantViolation& violation) {
    // The leaked node is handed to job 2, so the checker reports the node
    // allocated to both jobs — the diagnostic names the job and the node.
    const std::string what = violation.what();
    EXPECT_NE(what.find("invariant violation"), std::string::npos) << what;
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("node 0"), std::string::npos) << what;
  }
}

TEST(InvariantChecker, FluidModelInvariantsHoldAfterRun) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 4, 25.0));
  h.engine.run();
  EXPECT_EQ(h.engine.fluid().check_invariants(), std::nullopt);
}

TEST(ElsimCheck, ThrowsCheckErrorWithContext) {
  const int answer = 42;
  EXPECT_NO_THROW(ELSIM_CHECK(answer == 42, "sanity"));
  try {
    ELSIM_CHECK(answer == 41, "expected {} to be {}", answer, 41);
    FAIL() << "ELSIM_CHECK did not throw";
  } catch (const util::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("check failed"), std::string::npos);
    EXPECT_NE(what.find("expected 42 to be 41"), std::string::npos);
    EXPECT_NE(what.find("answer == 41"), std::string::npos);
  }
}

TEST(ElsimCheck, GuardsUserFacingRngParameters) {
  util::Rng rng(7);
  // uniform(lo, hi) with lo > hi is a configuration error, checked even in
  // release builds (converted from assert in this pass).
  EXPECT_THROW(rng.uniform(2.0, 1.0), util::CheckError);
  EXPECT_THROW(rng.exponential(-1.0), util::CheckError);
}

}  // namespace
}  // namespace elastisim::core
