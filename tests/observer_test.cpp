// Observer independence: the sinks attached to a run observe it without
// perturbing it or each other. One seeded scenario with node failures,
// requeue-restart, moldable, malleable and evolving jobs runs once per subset
// of {trace, journal, sampler, Chrome trace, checker}: jobs.csv must be the
// same for every subset, and each sink's output the same whichever other
// sinks ride along. The one documented coupling is the journal's trace_seq,
// which links to trace entries only while a trace is attached.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/fault_injector.h"
#include "core/simulation.h"
#include "json/json.h"
#include "stats/chrome_trace.h"
#include "stats/journal.h"
#include "stats/state_sampler.h"
#include "stats/trace.h"
#include "test_support.h"
#include "workload/generator.h"

namespace elastisim::core {
namespace {

enum Sink : unsigned { kTrace = 1, kJournal = 2, kSampler = 4, kChrome = 8, kChecker = 16 };

struct Outputs {
  std::string jobs;
  std::string trace;
  std::string journal;
  /// The journal with every trace_seq zeroed.
  std::string journal_unlinked;
  std::string timeseries;
  std::string chrome;
  std::uint64_t linked_verdicts = 0;
  int requeues = 0;
  int expansions = 0;
  int shrinks = 0;
};

struct Scenario {
  platform::ClusterConfig platform = test::tiny_platform(16);
  std::vector<workload::Job> jobs;
  std::vector<FailureEvent> failures;

  Scenario() {
    workload::GeneratorConfig generator;
    generator.job_count = 60;
    generator.seed = 11;
    generator.mean_interarrival = 40.0;
    generator.max_nodes = 8;
    generator.moldable_fraction = 0.2;
    generator.malleable_fraction = 0.3;
    generator.evolving_fraction = 0.2;
    generator.checkpoint_fraction = 0.8;
    generator.min_iterations = 4;
    generator.max_iterations = 10;
    generator.mean_iteration_compute = 30.0;
    generator.flops_per_node = platform.cores_per_node * platform.flops_per_core;
    jobs = workload::generate_workload(generator);
    FaultModelConfig fault;
    fault.mtbf = 3.0 * 3600.0;
    fault.mean_repair = 600.0;
    fault.horizon = 4000.0;
    fault.seed = 3;
    failures = FaultInjector(fault).generate(platform.node_count, platform.pod_size);
  }

  Outputs run(unsigned sinks) const {
    RunConfig config;
    config.scheduler = "easy-malleable";
    config.batch.failure_policy = FailurePolicy::kRequeueRestart;
    config.batch.restart_overhead = 30.0;
    config.failures = &failures;
    config.validate = (sinks & kChecker) != 0;
    stats::EventTrace trace;
    stats::DecisionJournal journal;
    stats::StateSampler sampler(/*interval=*/300.0);
    telemetry::ChromeTraceBuilder chrome;
    if (sinks & kTrace) config.sinks.push_back(&trace);
    if (sinks & kJournal) config.sinks.push_back(&journal);
    if (sinks & kSampler) config.sinks.push_back(&sampler);
    if (sinks & kChrome) config.sinks.push_back(&chrome);
    const SimulationResult result = run_scenario(platform, jobs, config);

    Outputs out;
    std::ostringstream jobs_csv, trace_csv, journal_jsonl, unlinked_jsonl, timeseries_csv;
    result.recorder.write_jobs_csv(jobs_csv);
    trace.write_csv(trace_csv);
    journal.write_jsonl(journal_jsonl);
    std::vector<stats::JournalRecord> records = journal.records();
    for (stats::JournalRecord& record : records) {
      for (stats::JournalVerdict& verdict : record.verdicts) {
        if (verdict.trace_seq != 0) ++out.linked_verdicts;
        verdict.trace_seq = 0;
      }
    }
    for (const stats::JournalRecord& record : records) {
      unlinked_jsonl << record.seq << ' ' << record.time << ' ' << record.queued << ' '
                     << record.running << ' ' << record.free_nodes << '\n';
      for (const stats::JournalVerdict& verdict : record.verdicts) {
        unlinked_jsonl << "  " << verdict.job << ' ' << stats::to_string(verdict.action)
                       << ' ' << stats::to_string(verdict.reason) << ' ' << verdict.nodes
                       << ' ' << verdict.detail << '\n';
      }
    }
    sampler.write_csv(timeseries_csv);
    out.jobs = jobs_csv.str();
    out.trace = trace_csv.str();
    out.journal = journal_jsonl.str();
    out.journal_unlinked = unlinked_jsonl.str();
    out.timeseries = timeseries_csv.str();
    out.chrome = json::dump(chrome.to_json());
    out.requeues = result.recorder.total_requeues();
    out.expansions = result.recorder.total_expansions();
    out.shrinks = result.recorder.total_shrinks();
    return out;
  }
};

TEST(ObserverIndependence, EverySinkSubsetSeesTheSameRun) {
  const Scenario scenario;
  const Outputs all = scenario.run(kTrace | kJournal | kSampler | kChrome | kChecker);
  // The scenario exercises what the sinks describe: evictions with restart,
  // resizes in both directions, and journal verdicts linked to trace entries.
  ASSERT_GT(all.requeues, 0);
  ASSERT_GT(all.expansions, 0);
  ASSERT_GT(all.shrinks, 0);
  ASSERT_GT(all.linked_verdicts, 0u);
  ASSERT_NE(all.trace.find("restart from phase"), std::string::npos);
  ASSERT_NE(all.trace.find("evolving-request"), std::string::npos);

  const Outputs journal_only = scenario.run(kJournal);
  for (unsigned sinks = 0; sinks < 32; ++sinks) {
    SCOPED_TRACE("sink subset " + std::to_string(sinks));
    const Outputs out = scenario.run(sinks);
    EXPECT_EQ(out.jobs, all.jobs);
    if (sinks & kTrace) {
      EXPECT_EQ(out.trace, all.trace);
    }
    if (sinks & kSampler) {
      EXPECT_EQ(out.timeseries, all.timeseries);
    }
    if (sinks & kChrome) {
      EXPECT_EQ(out.chrome, all.chrome);
    }
    if (sinks & kJournal) {
      // trace_seq links only exist with a trace attached; everything else
      // in the journal is independent of the other sinks.
      EXPECT_EQ(out.journal, (sinks & kTrace) ? all.journal : journal_only.journal);
      EXPECT_EQ(out.journal_unlinked, all.journal_unlinked);
      if (!(sinks & kTrace)) {
        EXPECT_EQ(out.linked_verdicts, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace elastisim::core
