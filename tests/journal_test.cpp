// Decision-journal coverage: enum round-trips, the begin/add/commit record
// protocol, JSONL (de)serialization, inspect primitives (first_divergence,
// job_timeline), and the reason codes each scheduler family reports through
// SchedulerContext::explain().
#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_system.h"
#include "core/schedulers.h"
#include "stats/journal.h"
#include "test_support.h"

namespace elastisim::stats {
namespace {

using core::BatchConfig;
using core::BatchSystem;
using core::make_scheduler;
using test::compute_job;
using test::rigid_job;
using test::tiny_platform;
using workload::JobType;

TEST(JournalEnums, RoundTripThroughStrings) {
  for (auto cause : {JournalCause::kSubmit, JournalCause::kFinish, JournalCause::kWalltime,
                     JournalCause::kBoundary, JournalCause::kShrinkComplete,
                     JournalCause::kFailure, JournalCause::kRepair,
                     JournalCause::kMaintenance, JournalCause::kTimer,
                     JournalCause::kCancel}) {
    EXPECT_EQ(journal_cause_from_string(to_string(cause)), cause) << to_string(cause);
  }
  for (auto action : {VerdictAction::kStarted, VerdictAction::kExpandTarget,
                      VerdictAction::kShrinkTarget, VerdictAction::kHeld,
                      VerdictAction::kEvolvingGranted, VerdictAction::kEvolvingDenied,
                      VerdictAction::kRequeued, VerdictAction::kKilled}) {
    EXPECT_EQ(verdict_action_from_string(to_string(action)), action) << to_string(action);
  }
  for (auto reason :
       {HoldReason::kNone, HoldReason::kInsufficientNodes, HoldReason::kQueuedBehindHead,
        HoldReason::kBlockedByReservation, HoldReason::kBackfillWindowTooSmall,
        HoldReason::kWalltimeExceedsHole, HoldReason::kMaxRequeuesReached,
        HoldReason::kNotConsidered}) {
    EXPECT_EQ(hold_reason_from_string(to_string(reason)), reason) << to_string(reason);
  }
  EXPECT_FALSE(journal_cause_from_string("bogus").has_value());
  EXPECT_FALSE(verdict_action_from_string("bogus").has_value());
  EXPECT_FALSE(hold_reason_from_string("bogus").has_value());
}

TEST(DecisionJournal, BeginAddCommitSealsRecords) {
  DecisionJournal journal;
  EXPECT_FALSE(journal.open());
  journal.begin(1.0, JournalCause::kSubmit, 2, 1, 3, 8);
  EXPECT_TRUE(journal.open());
  journal.add({7, VerdictAction::kStarted, HoldReason::kNone, 4, 0, ""});
  journal.commit();
  journal.begin(2.0, JournalCause::kFinish, 0, 0, 8, 8);
  journal.commit();
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.records()[0].seq, 1u);
  EXPECT_EQ(journal.records()[1].seq, 2u);
  EXPECT_EQ(journal.records()[0].cause, JournalCause::kSubmit);
  EXPECT_EQ(journal.records()[0].queued, 2);
  ASSERT_EQ(journal.records()[0].verdicts.size(), 1u);
  EXPECT_EQ(journal.records()[0].verdicts[0].nodes, 4);
  EXPECT_TRUE(journal.records()[1].verdicts.empty());
}

TEST(DecisionJournal, VerdictBeforeBeginIsAdoptedByNextRecord) {
  // Batch events (evictions, walltime kills) happen before the scheduling
  // point they trigger opens its record.
  DecisionJournal journal;
  journal.add({3, VerdictAction::kRequeued, HoldReason::kNone, 0, 0, "node 1 failed"});
  journal.begin(5.0, JournalCause::kFailure, 1, 0, 2, 4);
  journal.commit();
  ASSERT_EQ(journal.size(), 1u);
  ASSERT_EQ(journal.records()[0].verdicts.size(), 1u);
  EXPECT_EQ(journal.records()[0].verdicts[0].action, VerdictAction::kRequeued);
  EXPECT_EQ(journal.records()[0].verdicts[0].detail, "node 1 failed");
}

TEST(DecisionJournal, LaterHeldVerdictReplacesEarlierOne) {
  // fcfs_start stamps queued_behind_head; a backfilling pass then refines it.
  DecisionJournal journal;
  journal.begin(0.0, JournalCause::kSubmit, 2, 0, 1, 4);
  journal.add({2, VerdictAction::kHeld, HoldReason::kQueuedBehindHead, 0, 0, ""});
  EXPECT_TRUE(journal.has_held_verdict(2));
  journal.add({2, VerdictAction::kHeld, HoldReason::kBackfillWindowTooSmall, 0, 0, ""});
  journal.commit();
  ASSERT_EQ(journal.records()[0].verdicts.size(), 1u);
  EXPECT_EQ(journal.records()[0].verdicts[0].reason, HoldReason::kBackfillWindowTooSmall);
}

TEST(DecisionJournal, NonHeldVerdictErasesStaleHold) {
  // A job held in round 1 can start in round 2 of the same invocation; the
  // hold would contradict the outcome.
  DecisionJournal journal;
  journal.begin(0.0, JournalCause::kFinish, 1, 1, 2, 4);
  journal.add({5, VerdictAction::kHeld, HoldReason::kInsufficientNodes, 0, 0, ""});
  journal.add({5, VerdictAction::kStarted, HoldReason::kNone, 2, 9, ""});
  journal.commit();
  ASSERT_EQ(journal.records()[0].verdicts.size(), 1u);
  EXPECT_EQ(journal.records()[0].verdicts[0].action, VerdictAction::kStarted);
  EXPECT_EQ(journal.records()[0].verdicts[0].trace_seq, 9u);
}

DecisionJournal sample_journal() {
  DecisionJournal journal;
  journal.begin(0.0, JournalCause::kSubmit, 1, 0, 4, 4);
  journal.add({1, VerdictAction::kStarted, HoldReason::kNone, 3, 1, ""});
  journal.commit();
  journal.begin(2.5, JournalCause::kSubmit, 1, 1, 1, 4);
  journal.add({2, VerdictAction::kHeld, HoldReason::kInsufficientNodes, 0, 0,
               "needs 2 nodes, 1 free"});
  journal.commit();
  journal.begin(10.0, JournalCause::kFinish, 1, 0, 4, 4);
  journal.add({2, VerdictAction::kStarted, HoldReason::kNone, 2, 4, ""});
  journal.commit();
  return journal;
}

TEST(DecisionJournal, JsonlRoundTripPreservesRecords) {
  const DecisionJournal journal = sample_journal();
  std::ostringstream out;
  journal.write_jsonl(out);
  std::istringstream in(out.str());
  const std::vector<JournalRecord> parsed = DecisionJournal::read_jsonl(in);
  EXPECT_EQ(parsed, journal.records());
}

TEST(DecisionJournal, MalformedJsonlReportsLineNumber) {
  std::istringstream not_json("{\"seq\":1,\"t\":0,\"cause\":\"submit\",\"verdicts\":[]}\n"
                              "not json\n");
  EXPECT_THROW(DecisionJournal::read_jsonl(not_json), std::exception);
  std::istringstream bad_cause("{\"seq\":1,\"t\":0,\"cause\":\"sideways\",\"verdicts\":[]}\n");
  try {
    DecisionJournal::read_jsonl(bad_cause);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("sideways"), std::string::npos);
  }
}

TEST(JournalDiff, IdenticalJournalsHaveNoDivergence) {
  const DecisionJournal journal = sample_journal();
  EXPECT_FALSE(first_divergence(journal.records(), journal.records()).has_value());
}

TEST(JournalDiff, ReportsFirstDifferingVerdict) {
  const DecisionJournal a = sample_journal();
  DecisionJournal b = sample_journal();
  std::vector<JournalRecord> mutated = b.records();
  mutated[1].verdicts[0].reason = HoldReason::kBlockedByReservation;
  const auto divergence = first_divergence(a.records(), mutated);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->index, 1u);
  EXPECT_NE(divergence->what.find("insufficient_nodes"), std::string::npos)
      << divergence->what;
  EXPECT_NE(divergence->what.find("blocked_by_reservation"), std::string::npos);
}

TEST(JournalDiff, PrefixJournalDivergesAtLengthDifference) {
  const DecisionJournal a = sample_journal();
  std::vector<JournalRecord> shorter = a.records();
  shorter.pop_back();
  const auto divergence = first_divergence(a.records(), shorter);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->index, 2u);
  EXPECT_NE(divergence->what.find("lengths differ"), std::string::npos);
}

TEST(JournalTimeline, ListsOnlyTheRequestedJob) {
  const DecisionJournal journal = sample_journal();
  const std::vector<std::string> lines = job_timeline(journal.records(), 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("held: insufficient_nodes"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("needs 2 nodes, 1 free"), std::string::npos);
  EXPECT_NE(lines[1].find("started"), std::string::npos);
  EXPECT_TRUE(job_timeline(journal.records(), 99).empty());
}

// --- scheduler reason codes --------------------------------------------------

struct Harness {
  explicit Harness(std::size_t nodes, const std::string& scheduler,
                   BatchConfig config = {})
      : cluster(engine, tiny_platform(nodes)),
        batch(engine, cluster, make_scheduler(scheduler), recorder, config) {
    batch.attach(journal);
  }

  /// The last held reason recorded for `job`, or kNone.
  HoldReason last_hold(workload::JobId job) const {
    HoldReason reason = HoldReason::kNone;
    for (const JournalRecord& record : journal.records()) {
      for (const JournalVerdict& verdict : record.verdicts) {
        if (verdict.job == job && verdict.action == VerdictAction::kHeld) {
          reason = verdict.reason;
        }
      }
    }
    return reason;
  }

  /// The held reason for `job` in the last record at time `t`.
  HoldReason hold_at(double t, workload::JobId job) const {
    HoldReason reason = HoldReason::kNone;
    for (const JournalRecord& record : journal.records()) {
      if (record.time != t) continue;
      for (const JournalVerdict& verdict : record.verdicts) {
        if (verdict.job == job && verdict.action == VerdictAction::kHeld) {
          reason = verdict.reason;
        }
      }
    }
    return reason;
  }

  bool has_action(workload::JobId job, VerdictAction action) const {
    for (const JournalRecord& record : journal.records()) {
      for (const JournalVerdict& verdict : record.verdicts) {
        if (verdict.job == job && verdict.action == action) return true;
      }
    }
    return false;
  }

  sim::Engine engine;
  stats::Recorder recorder;
  DecisionJournal journal;
  platform::Cluster cluster;
  BatchSystem batch;
};

TEST(SchedulerReasons, FcfsHeadAndTail) {
  Harness h(4, "fcfs");
  h.batch.submit(rigid_job(1, 3, 50.0));
  h.batch.submit(rigid_job(2, 4, 10.0, 1.0));  // head: cannot fit beside job 1
  h.batch.submit(rigid_job(3, 1, 10.0, 1.0));  // would fit, but FCFS never looks
  h.engine.run();
  EXPECT_EQ(h.hold_at(1.0, 2), HoldReason::kInsufficientNodes);
  EXPECT_EQ(h.hold_at(1.0, 3), HoldReason::kQueuedBehindHead);
  EXPECT_EQ(h.batch.finished_jobs(), 3u);
}

TEST(SchedulerReasons, EasyBackfillWindowAndReservation) {
  Harness h(4, "easy");
  auto blocker = rigid_job(1, 3, 100.0);
  blocker.walltime_limit = 110.0;
  h.batch.submit(std::move(blocker));
  h.batch.submit(rigid_job(2, 4, 10.0, 1.0));  // head: needs the whole machine
  auto long_walltime = rigid_job(3, 1, 10.0, 1.0);
  long_walltime.walltime_limit = 200.0;  // outlives the head's shadow time
  h.batch.submit(std::move(long_walltime));
  h.batch.submit(rigid_job(4, 1, 10.0, 1.0));  // infinite walltime
  h.engine.run();
  EXPECT_EQ(h.hold_at(1.0, 2), HoldReason::kInsufficientNodes);
  EXPECT_EQ(h.hold_at(1.0, 3), HoldReason::kBackfillWindowTooSmall);
  EXPECT_EQ(h.hold_at(1.0, 4), HoldReason::kBlockedByReservation);
  EXPECT_EQ(h.batch.finished_jobs(), 4u);
}

TEST(SchedulerReasons, ConservativeHoleTooShort) {
  Harness h(4, "conservative");
  auto blocker = rigid_job(1, 3, 100.0);
  blocker.walltime_limit = 110.0;
  h.batch.submit(std::move(blocker));
  auto head = rigid_job(2, 4, 10.0, 1.0);
  head.walltime_limit = 100.0;  // reserved [110, 210)
  h.batch.submit(std::move(head));
  auto squeezed = rigid_job(3, 1, 10.0, 1.0);
  squeezed.walltime_limit = 200.0;  // one node is free now, but not for 200s
  h.batch.submit(std::move(squeezed));
  h.engine.run();
  EXPECT_EQ(h.hold_at(1.0, 2), HoldReason::kInsufficientNodes);
  EXPECT_EQ(h.hold_at(1.0, 3), HoldReason::kWalltimeExceedsHole);
  EXPECT_EQ(h.batch.finished_jobs(), 3u);
}

TEST(SchedulerReasons, PriorityLeaderAndBackfillCandidates) {
  Harness h(4, "priority");
  auto blocker = rigid_job(1, 3, 100.0);
  blocker.walltime_limit = 110.0;
  h.batch.submit(std::move(blocker));
  auto leader = rigid_job(2, 4, 10.0, 1.0);
  leader.priority = 10;
  h.batch.submit(std::move(leader));
  auto finite = rigid_job(3, 1, 10.0, 1.0);
  finite.priority = 5;
  finite.walltime_limit = 200.0;
  h.batch.submit(std::move(finite));
  auto infinite = rigid_job(4, 1, 10.0, 1.0);
  infinite.priority = 1;
  h.batch.submit(std::move(infinite));
  h.engine.run();
  EXPECT_EQ(h.hold_at(1.0, 2), HoldReason::kInsufficientNodes);
  EXPECT_EQ(h.hold_at(1.0, 3), HoldReason::kBackfillWindowTooSmall);
  EXPECT_EQ(h.hold_at(1.0, 4), HoldReason::kBlockedByReservation);
  EXPECT_EQ(h.batch.finished_jobs(), 4u);
}

TEST(SchedulerReasons, MalleableResizeVerdictsAndHeldHead) {
  Harness h(4, "fcfs-malleable");
  auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 4, 0.0, 10);
  job.application.state_bytes_per_node = 0.0;
  h.batch.submit(std::move(job));
  h.batch.submit(rigid_job(2, 2, 10.0, /*submit=*/15.0));
  h.engine.run();
  // The malleable job expands into the idle half of the machine, then shrinks
  // to admit the rigid arrival; the arrival is held until the shrink lands.
  EXPECT_TRUE(h.has_action(1, VerdictAction::kExpandTarget));
  EXPECT_TRUE(h.has_action(1, VerdictAction::kShrinkTarget));
  EXPECT_EQ(h.hold_at(15.0, 2), HoldReason::kInsufficientNodes);
  EXPECT_TRUE(h.has_action(2, VerdictAction::kStarted));
  EXPECT_EQ(h.batch.finished_jobs(), 2u);
}

TEST(SchedulerReasons, WalltimeKillRecordsKilledVerdict) {
  Harness h(2, "fcfs");
  auto job = rigid_job(1, 2, 100.0);
  job.walltime_limit = 30.0;
  h.batch.submit(std::move(job));
  h.engine.run();
  EXPECT_TRUE(h.has_action(1, VerdictAction::kKilled));
  bool found = false;
  for (const JournalRecord& record : h.journal.records()) {
    for (const JournalVerdict& verdict : record.verdicts) {
      if (verdict.job == 1 && verdict.action == VerdictAction::kKilled) {
        found = true;
        EXPECT_EQ(record.cause, JournalCause::kWalltime);
        EXPECT_NE(verdict.detail.find("walltime limit"), std::string::npos);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(SchedulerReasons, EvictionRecordsRequeueWithFailedNode) {
  BatchConfig config;
  config.failure_policy = core::FailurePolicy::kRequeue;
  Harness h(4, "fcfs", config);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.inject_failure(0, 20.0, /*repair=*/30.0);
  h.engine.run();
  bool found = false;
  for (const JournalRecord& record : h.journal.records()) {
    for (const JournalVerdict& verdict : record.verdicts) {
      if (verdict.job == 1 && verdict.action == VerdictAction::kRequeued) {
        found = true;
        EXPECT_EQ(record.cause, JournalCause::kFailure);
        EXPECT_NE(verdict.detail.find("node 0 failed"), std::string::npos)
            << verdict.detail;
      }
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
}

TEST(SchedulerReasons, MaxRequeuesGuardKillsWithReason) {
  BatchConfig config;
  config.failure_policy = core::FailurePolicy::kRequeue;
  config.max_requeues = 1;
  Harness h(4, "fcfs", config);
  h.batch.submit(rigid_job(1, 2, 50.0));
  // First eviction requeues; the job restarts on the surviving nodes, and the
  // second eviction trips the guard.
  h.batch.inject_failure(0, 10.0, 1000.0);
  h.batch.inject_failure(1, 20.0, 1000.0);
  h.engine.run();
  bool found = false;
  for (const JournalRecord& record : h.journal.records()) {
    for (const JournalVerdict& verdict : record.verdicts) {
      if (verdict.job == 1 && verdict.action == VerdictAction::kKilled) {
        found = true;
        EXPECT_EQ(verdict.reason, HoldReason::kMaxRequeuesReached);
      }
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(h.batch.killed_jobs(), 1u);
}

// A scheduler that never starts anything and never calls explain() — the
// batch system must still stamp a machine-readable reason on queued jobs.
class DoNothingScheduler final : public core::Scheduler {
 public:
  std::string name() const override { return "do-nothing"; }
  void schedule(core::SchedulerContext&) override {}
};

TEST(SchedulerReasons, FallbackStampsNotConsidered) {
  sim::Engine engine;
  stats::Recorder recorder;
  DecisionJournal journal;
  platform::Cluster cluster(engine, tiny_platform(2));
  BatchSystem batch(engine, cluster, std::make_unique<DoNothingScheduler>(), recorder);
  batch.attach(journal);
  batch.submit(rigid_job(1, 1, 5.0));
  engine.run();
  ASSERT_FALSE(journal.empty());
  ASSERT_EQ(journal.records()[0].verdicts.size(), 1u);
  EXPECT_EQ(journal.records()[0].verdicts[0].action, VerdictAction::kHeld);
  EXPECT_EQ(journal.records()[0].verdicts[0].reason, HoldReason::kNotConsidered);
}

TEST(SchedulerReasons, EveryHeldVerdictCarriesAReasonUnderAllPolicies) {
  for (const std::string scheduler :
       {"fcfs", "easy", "conservative", "priority", "fair-share", "fcfs-malleable",
        "easy-malleable", "equal-share"}) {
    Harness h(4, scheduler);
    auto malleable = compute_job(1, JobType::kMalleable, 2, 30.0, 1, 4, 0.0, 4);
    malleable.application.state_bytes_per_node = 0.0;
    h.batch.submit(std::move(malleable));
    auto blocker = rigid_job(2, 3, 40.0, 1.0);
    blocker.walltime_limit = 60.0;
    h.batch.submit(std::move(blocker));
    auto wide = rigid_job(3, 4, 10.0, 2.0);
    wide.walltime_limit = 20.0;
    h.batch.submit(std::move(wide));
    auto narrow = rigid_job(4, 1, 10.0, 2.0);
    narrow.walltime_limit = 500.0;
    h.batch.submit(std::move(narrow));
    h.engine.run();
    ASSERT_FALSE(h.journal.empty()) << scheduler;
    for (const JournalRecord& record : h.journal.records()) {
      for (const JournalVerdict& verdict : record.verdicts) {
        if (verdict.action == VerdictAction::kHeld) {
          EXPECT_NE(verdict.reason, HoldReason::kNone)
              << scheduler << " left job " << verdict.job << " held without a reason at t="
              << record.time;
        }
      }
    }
  }
}

TEST(JournalEndToEnd, SameWorkloadRunsDiffEmptyDifferentWorkloadsDiverge) {
  auto run = [](double second_submit) {
    Harness h(4, "easy");
    h.batch.submit(rigid_job(1, 3, 50.0));
    h.batch.submit(rigid_job(2, 4, 10.0, second_submit));
    h.batch.submit(rigid_job(3, 1, 10.0, 2.0));
    h.engine.run();
    return h.journal.records();
  };
  const auto a = run(1.0);
  EXPECT_FALSE(first_divergence(a, run(1.0)).has_value());
  const auto divergence = first_divergence(a, run(3.0));
  ASSERT_TRUE(divergence.has_value());
  // The runs agree up to t=1: the divergence is the first decision job 2's
  // shifted submission changes.
  EXPECT_FALSE(divergence->what.empty());
}

TEST(JournalEndToEnd, RunRoundTripsThroughJsonl) {
  Harness h(4, "easy");
  h.batch.submit(rigid_job(1, 3, 50.0));
  h.batch.submit(rigid_job(2, 4, 10.0, 1.0));
  h.batch.submit(rigid_job(3, 1, 10.0, 1.0));
  h.engine.run();
  std::ostringstream out;
  h.journal.write_jsonl(out);
  std::istringstream in(out.str());
  EXPECT_EQ(DecisionJournal::read_jsonl(in), h.journal.records());
}

}  // namespace
}  // namespace elastisim::stats
