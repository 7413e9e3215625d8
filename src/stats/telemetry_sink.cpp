#include "stats/telemetry_sink.h"

namespace elastisim::stats {

void TelemetrySink::on_job(const JobEvent& event) {
  switch (event.change) {
    case JobChange::kStarted:
      jobs_started_.add();
      allocated_.add(event.nodes.size());
      break;
    case JobChange::kRestarted: restarts_.add(); break;
    case JobChange::kRequeued:
      requeues_.add();
      lost_node_seconds_.record(event.lost_node_seconds);
      [[fallthrough]];
    case JobChange::kFinished:
    case JobChange::kTimedOut:
    case JobChange::kKilled: released_.add(event.nodes.size()); break;
    default: break;
  }
}

void TelemetrySink::on_resize(const ResizeEvent& event) {
  if (event.change == ResizeChange::kExpanded) {
    expansions_.add();
    allocated_.add(event.nodes.size());
  } else if (event.change == ResizeChange::kShrunk) {
    shrinks_.add();
    released_.add(event.nodes.size());
  }
}

void TelemetrySink::on_point_end(const SchedulingPoint& point) {
  invocations_.add();
  rounds_.add(static_cast<std::uint64_t>(point.rounds));
  queue_depth_.set(point.state.time, point.state.queued);
  free_nodes_.set(point.state.time, point.state.free);
}

void TelemetrySink::on_run_end(const RunEnd& event) {
  registry_.counter("engine.events").add(event.events);
  registry_.gauge("engine.events_per_second")
      .set(event.time, event.wall_seconds > 0.0 ? event.events / event.wall_seconds : 0.0);
}

}  // namespace elastisim::stats
