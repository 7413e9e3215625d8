// Simulation-state sampler: a multi-series timeline of what the cluster
// looked like over simulated time — the view a batch-system paper plots
// (utilization curves, queue depth, down-node windows) and the data source
// for `elastisim report`.
//
// Where the profiler answers "where does the wall-clock go" and the decision
// journal answers "why did the scheduler do that", the sampler answers "what
// did the cluster look like at time t". As a RunObserver it samples the
// shared snapshot at every scheduling point (and, optionally, on a fixed
// simulated-time cadence); each sample carries the instantaneous queue and
// node occupancy plus cumulative reconfiguration/resilience tallies counted
// from the resize, requeue and restart notifications.
//
// The timeline is bounded by the same stride-doubling thinning as
// telemetry::Gauge: when kMaxSamples is reached, every other retained sample
// is dropped and the recording stride doubles, so arbitrarily long runs keep
// an evenly thinned timeline whose final sample is always the most recent
// observation. Attach it through RunConfig::sinks or BatchSystem::attach.
// Serialized as <out-dir>/timeseries.csv (docs/FORMATS.md); byte-identical
// across runs with identical inputs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats/observer.h"

namespace elastisim::stats {

/// One observation of the cluster/queue state at a simulated instant.
struct StateSample {
  double time = 0.0;
  // Instantaneous state.
  int queued = 0;       // jobs waiting in the queue
  int running = 0;      // jobs holding an allocation
  int allocated = 0;    // nodes occupied by jobs
  int free_nodes = 0;   // nodes idle and in service
  int down = 0;         // nodes out of service (failed + drained)
  int total = 0;        // cluster size
  double utilization = 0.0;  // allocated / total (0 when the cluster is empty)
  // Cumulative tallies since the start of the run.
  std::uint64_t expansions = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t evolving_grants = 0;
  std::uint64_t requeues = 0;
  std::uint64_t checkpoint_restarts = 0;
  double lost_node_seconds = 0.0;

  bool operator==(const StateSample&) const = default;
};

class StateSampler final : public RunObserver {
 public:
  /// `interval` > 0 additionally samples every `interval` simulated seconds
  /// (the batch system arms the timer); 0 = scheduling points only.
  explicit StateSampler(double interval = 0.0) : interval_(interval) {}

  double interval() const { return interval_; }

  double cadence() const override { return interval_; }
  void on_job(const JobEvent& event) override;
  void on_resize(const ResizeEvent& event) override;
  void on_point_end(const SchedulingPoint& point) override { sample(point.state); }
  void on_tick(const Snapshot& state) override { sample(state); }

  // --- Cumulative tallies (batch system call sites) ------------------------
  void count_expansion() { ++expansions_; }
  void count_shrink() { ++shrinks_; }
  void count_evolving_grant() { ++evolving_grants_; }
  void count_checkpoint_restart() { ++checkpoint_restarts_; }
  void count_requeue(double lost_node_seconds) {
    ++requeues_;
    lost_node_seconds_ += lost_node_seconds;
  }

  /// Records one observation. `failed` and `drained` are folded into the
  /// sample's `down`; `allocated` is derived as total - free - failed -
  /// drained. A sample at the same time as the previous one replaces it
  /// (scheduling points often pile up on one timestamp), keeping the series
  /// a clean step function.
  void sample(double time, int queued, int running, int free_nodes, int failed,
              int drained, int total);
  void sample(const Snapshot& state) {
    sample(state.time, state.queued, state.running, state.free, state.failed, state.drained,
           state.total);
  }

  const std::vector<StateSample>& samples() const { return samples_; }
  /// Observations offered to the timeline (same-time replacements excluded);
  /// exceeds samples().size() once thinning has kicked in.
  std::uint64_t updates() const { return updates_; }

  // --- CSV (de)serialization: the timeseries.csv schema --------------------
  void write_csv(std::ostream& out) const;
  void save(const std::string& path) const;
  /// Parses CSV produced by write_csv(); throws std::runtime_error on a
  /// missing header column or malformed row (with the 1-based line number).
  static std::vector<StateSample> read_csv(std::istream& in);
  static std::vector<StateSample> load(const std::string& path);

  static constexpr std::size_t kMaxSamples = 65536;

 private:
  void record(const StateSample& sample);

  double interval_;
  std::uint64_t expansions_ = 0;
  std::uint64_t shrinks_ = 0;
  std::uint64_t evolving_grants_ = 0;
  std::uint64_t requeues_ = 0;
  std::uint64_t checkpoint_restarts_ = 0;
  double lost_node_seconds_ = 0.0;

  std::uint64_t updates_ = 0;
  std::uint64_t stride_ = 1;
  /// True while samples_.back() is an off-stride observation kept only so the
  /// timeline always ends at the latest state; the next observation replaces
  /// it instead of appending.
  bool tail_provisional_ = false;
  std::vector<StateSample> samples_;
};

}  // namespace elastisim::stats
