#include "stats/observer.h"

#include <algorithm>

#include "util/fmt.h"

namespace elastisim::stats {

std::string describe(const JobEvent& event) {
  switch (event.change) {
    case JobChange::kSubmitted:
      return util::fmt("{} nodes, {}", event.job->requested_nodes,
                       workload::to_string(event.job->type));
    case JobChange::kCancelled: return "dependency failed";
    case JobChange::kStarted: return util::fmt("{} nodes", event.nodes.size());
    case JobChange::kRestarted:
      return util::fmt("restart from phase {} iter {}", event.checkpoint_phase,
                       event.checkpoint_iteration);
    case JobChange::kTimedOut:
      return util::fmt("walltime limit {}s exceeded", event.job->walltime_limit);
    case JobChange::kKilled:
      return event.requeue_limit
                 ? util::fmt("max requeues exceeded (node {} failed)", event.failed_node)
                 : util::fmt("node {} failed", event.failed_node);
    case JobChange::kRequeued:
      return util::fmt("node {} failed, lost {} node-seconds{}", event.failed_node,
                       event.lost_node_seconds,
                       event.checkpointed
                           ? util::fmt(", checkpoint phase {} iter {}", event.checkpoint_phase,
                                       event.checkpoint_iteration)
                           : std::string());
    case JobChange::kHeld:
    case JobChange::kQueued:
    case JobChange::kBoundary:
    case JobChange::kFinished: break;
  }
  return std::string();
}

std::string describe(const ResizeEvent& event) {
  if (event.change == ResizeChange::kEvolving) {
    const int delta = event.to - event.from;
    return util::fmt("{}{} {}", delta >= 0 ? "+" : "", delta,
                     event.granted ? "granted" : "denied");
  }
  return util::fmt("{}->{}", event.from, event.to);
}

void ObserverList::attach(RunObserver& observer) {
  const auto after = std::upper_bound(
      observers_.begin(), observers_.end(), observer.order(),
      [](RunObserver::Order order, const RunObserver* attached) {
        return order < attached->order();
      });
  observers_.insert(after, &observer);
  wants_holds_ = wants_holds_ || observer.wants_holds();
  const double cadence = observer.cadence();
  if (cadence > 0.0 && (cadence_ <= 0.0 || cadence < cadence_)) cadence_ = cadence;
}

}  // namespace elastisim::stats
