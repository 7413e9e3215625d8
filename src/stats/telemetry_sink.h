// Telemetry counters as a run observer: the batch-system metrics of
// telemetry.json (jobs started, requeues, node churn, scheduler passes,
// queue-depth and free-node gauges, ...) recorded from the run's
// notifications. run_scenario attaches one while telemetry::enabled(); the
// metric catalog is in docs/OBSERVABILITY.md.
#pragma once

#include "stats/observer.h"
#include "stats/telemetry.h"

namespace elastisim::stats {

class TelemetrySink final : public RunObserver {
 public:
  void on_job(const JobEvent& event) override;
  void on_resize(const ResizeEvent& event) override;
  void on_point_end(const SchedulingPoint& point) override;
  void on_run_end(const RunEnd& event) override;

 private:
  telemetry::Registry& registry_ = telemetry::Registry::global();
  telemetry::Counter& invocations_ = registry_.counter("scheduler.invocations");
  telemetry::Counter& rounds_ = registry_.counter("scheduler.rounds");
  telemetry::Counter& jobs_started_ = registry_.counter("batch.jobs_started");
  telemetry::Counter& requeues_ = registry_.counter("batch.requeues");
  telemetry::Counter& restarts_ = registry_.counter("batch.checkpoint_restarts");
  telemetry::Counter& expansions_ = registry_.counter("batch.expansions");
  telemetry::Counter& shrinks_ = registry_.counter("batch.shrinks");
  telemetry::Counter& allocated_ = registry_.counter("cluster.nodes_allocated");
  telemetry::Counter& released_ = registry_.counter("cluster.nodes_released");
  telemetry::Histogram& lost_node_seconds_ = registry_.histogram("batch.lost_node_seconds");
  telemetry::Gauge& queue_depth_ = registry_.gauge("batch.queue_depth");
  telemetry::Gauge& free_nodes_ = registry_.gauge("cluster.free_nodes");
};

}  // namespace elastisim::stats
