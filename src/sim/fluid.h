// Fluid resource-sharing model (the SimGrid-LMM substitute).
//
// Resources have finite capacities (a node's FLOP/s, a link's bytes/s, the
// PFS's aggregate bytes/s). Activities carry a total amount of work and a
// set of weighted demands on resources: an activity progressing at rate x
// consumes weight*x of each resource it touches. Rates are assigned by
// *bounded max-min fairness* via progressive filling: a common "water level"
// rises until either a resource saturates (freezing the activities through
// it) or an activity reaches its rate cap.
//
// Whenever the active set changes, the model settles accrued progress,
// recomputes all rates, and reschedules each activity's completion event on
// the engine. This reproduces the contention-aware completion times that the
// original system obtains from SimGrid's fluid models.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace elastisim::sim {

class Engine;

using ResourceId = std::uint32_t;
using ActivityId = std::uint64_t;
inline constexpr ActivityId kInvalidActivityId = 0;

/// One weighted demand: the owning activity at rate x consumes weight*x of
/// this resource.
struct Demand {
  ResourceId resource;
  double weight = 1.0;
};

/// Immutable-per-start description of an activity.
struct ActivitySpec {
  /// Total work in resource units (FLOPs for compute, bytes for transfers).
  double work = 0.0;
  /// Weighted demands; may be empty, in which case the activity progresses
  /// at exactly `rate_cap` (which must then be finite and positive).
  std::vector<Demand> demands;
  /// Upper bound on the activity's rate (e.g. a rank cannot exceed the speed
  /// of the cores it owns). Infinity means unbounded.
  double rate_cap = kTimeInfinity;
  /// Debug label surfaced in traces and error messages.
  std::string label;
};

class FluidModel {
 public:
  explicit FluidModel(Engine& engine) : engine_(&engine) {}

  FluidModel(const FluidModel&) = delete;
  FluidModel& operator=(const FluidModel&) = delete;

  /// Registers a resource with the given capacity (units/s). Capacity zero is
  /// legal (activities through it stall).
  ResourceId add_resource(std::string name, double capacity);

  /// Adjusts capacity at runtime (e.g. throttled node); triggers rebalance.
  void set_capacity(ResourceId resource, double capacity);

  double capacity(ResourceId resource) const;
  const std::string& resource_name(ResourceId resource) const;
  std::size_t resource_count() const { return resources_.size(); }

  /// Total consumption currently placed on a resource (<= capacity + eps).
  double consumption(ResourceId resource) const;

  /// Starts an activity; `on_complete` fires from the engine loop when the
  /// work is exhausted. Work <= 0 completes at the current time (the callback
  /// still fires asynchronously, never inside start()).
  ActivityId start(ActivitySpec spec, std::function<void()> on_complete);

  /// Aborts an activity; its completion callback will not fire.
  /// Returns false if the activity already completed or was cancelled.
  bool cancel(ActivityId activity);

  /// True if the activity is still running.
  bool is_active(ActivityId activity) const;

  /// Remaining work of a running activity (settled to the current instant);
  /// 0 for completed/cancelled/unknown ids.
  double remaining_work(ActivityId activity) const;

  /// Current fair-share rate of a running activity; 0 for completed/
  /// cancelled/unknown ids.
  double rate(ActivityId activity) const;

  std::size_t active_count() const { return order_.size(); }

  /// Number of rate recomputations performed (for performance benches).
  std::uint64_t rebalance_count() const { return rebalance_count_; }

  /// Cumulative activities examined across all rebalances — the work metric
  /// behind the "make the solve incremental" optimization: divide by
  /// rebalance_count() for the mean activities touched per solve.
  std::uint64_t activities_touched() const { return activities_touched_; }

  /// Total activities ever started (allocation tally for the profiler).
  std::uint64_t activities_started() const { return next_activity_id_ - 1; }

  /// Validates internal consistency: every activity's remaining work within
  /// [0, total work] (progress in [0, 1]), rates non-negative, finite, and
  /// within their caps, and per-resource consumption within capacity.
  /// Returns a description of the first broken invariant, or nullopt when
  /// all hold (core::InvariantChecker under --validate).
  std::optional<std::string> check_invariants() const;

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;
    double consumption = 0.0;  // refreshed by rebalance()
  };

  struct Activity {
    ActivitySpec spec;
    double remaining = 0.0;
    double rate = 0.0;
    std::function<void()> on_complete;
    EventId completion_event = kInvalidEventId;
  };

  /// Accrues progress since the last settle instant.
  void settle();
  /// Recomputes all rates (progressive filling) and reschedules completions.
  void rebalance();
  void schedule_completion(ActivityId id, Activity& activity);
  void on_activity_complete(ActivityId id);

  Engine* engine_;
  std::vector<Resource> resources_;
  std::unordered_map<ActivityId, Activity> activities_;
  std::vector<ActivityId> order_;  // insertion order for deterministic filling
  ActivityId next_activity_id_ = 1;
  SimTime last_settle_ = 0.0;
  std::uint64_t rebalance_count_ = 0;
  std::uint64_t activities_touched_ = 0;
  /// Scratch buffers for rebalance(). The solve runs on every share change,
  /// so its working vectors live here and are reused across calls instead of
  /// being reallocated per solve; rebalance() never recurses, which makes the
  /// reuse safe.
  std::vector<double> scratch_avail_;
  std::vector<double> scratch_weight_sum_;
  std::vector<ActivityId> scratch_unfrozen_;
  std::vector<ActivityId> scratch_next_unfrozen_;
};

}  // namespace elastisim::sim
