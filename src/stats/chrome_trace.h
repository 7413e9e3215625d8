// Chrome trace_event JSON exporter (chrome://tracing / Perfetto).
//
// Renders a simulation in simulated time as one process, pid 1 "cluster
// (simulated time)": one thread per compute node, with a complete-event
// slice for every interval a job occupies the node, counter tracks (queue
// depth, free nodes, running jobs), and instant events for failures, kills,
// requeues and restarts. Timestamps are simulated seconds mapped to trace
// microseconds, so the file is a pure function of the run's inputs.
//
// The builder is a RunObserver like stats::EventTrace: it opens and closes
// node slices from the job and resize notifications, samples the counters
// from each scheduling point's snapshot, and closes still-open slices when
// the run ends (attach via RunConfig::sinks or BatchSystem::attach).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "json/json.h"
#include "stats/observer.h"

namespace elastisim::telemetry {

class ChromeTraceBuilder final : public stats::RunObserver {
 public:
  void on_job(const stats::JobEvent& event) override;
  void on_resize(const stats::ResizeEvent& event) override;
  void on_fault(const stats::FaultEvent& event) override;
  void on_point_end(const stats::SchedulingPoint& point) override;
  void on_run_end(const stats::RunEnd& event) override { close_open_slices(event.time); }

  /// Opens a job slice on `node`'s track at simulated time `sim_time`. If a
  /// slice is already open on the node (should not happen), it is closed at
  /// the same instant first.
  void begin_node_slice(std::uint32_t node, std::uint64_t job, std::string label,
                       double sim_time);

  /// Closes the open slice on `node`; no-op when the node is idle.
  void end_node_slice(std::uint32_t node, double sim_time);

  /// True while a job slice is open on the node.
  bool node_busy(std::uint32_t node) const { return open_.count(node) > 0; }

  /// One sample of a counter track ("queue depth", "free nodes", ...).
  void counter(const std::string& name, double sim_time, double value);

  /// Global instant marker ("node 3 failed", "job 7 walltime kill", ...).
  void instant(std::string label, double sim_time);

  /// Closes every still-open node slice (stuck jobs at the end of a run).
  void close_open_slices(double sim_time);

  std::size_t event_count() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} per the trace-event
  /// format spec.
  json::Value to_json() const;
  void write(std::ostream& out) const;
  void write_file(const std::string& path) const;

 private:
  struct NodeSlice {
    std::uint32_t node;
    std::uint64_t job;
    std::string label;
    double start_us;
    double dur_us;
  };
  struct CounterSample {
    std::string name;
    double ts_us;
    double value;
  };
  struct Instant {
    std::string label;
    double ts_us;
  };
  struct Open {
    std::uint64_t job;
    std::string label;
    double start_us;
  };

  static double to_us(double seconds) { return seconds * 1e6; }
  /// Opens `job`'s slice on each of `nodes`.
  void occupy(const workload::Job& job, std::span<const std::uint32_t> nodes, double sim_time);
  void release(std::span<const std::uint32_t> nodes, double sim_time);

  std::vector<NodeSlice> slices_;
  std::vector<CounterSample> counters_;
  std::vector<Instant> instants_;
  std::unordered_map<std::uint32_t, Open> open_;
  std::unordered_map<std::string, double> last_counter_;
  std::uint32_t max_node_ = 0;
  bool any_node_ = false;
};

}  // namespace elastisim::telemetry
