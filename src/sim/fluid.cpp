#include "sim/fluid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/engine.h"
#include "stats/profiler.h"
#include "util/fmt.h"
#include "util/log.h"

namespace elastisim::sim {

namespace {
// Tolerances for the progressive-filling freeze decisions. Relative where
// possible so that simulations in FLOP/s (1e12) and bytes/s (1e9) behave
// identically.
constexpr double kRelEps = 1e-9;
constexpr double kAbsEps = 1e-12;

// The max-min certificate in check_invariants() stacks the freeze tolerance
// on rounding in the per-resource sums, so it allows a few kRelEps.
constexpr double kCertEps = 4 * kRelEps;

bool leq_tol(double a, double b) { return a <= b * (1.0 + kRelEps) + kAbsEps; }

std::uint32_t slot_of(ActivityId id) { return static_cast<std::uint32_t>(id); }
std::uint32_t generation_of(ActivityId id) { return static_cast<std::uint32_t>(id >> 32); }
ActivityId make_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<ActivityId>(generation) << 32) | slot;
}
}  // namespace

ResourceId FluidModel::add_resource(std::string name, double capacity) {
  assert(capacity >= 0.0 && "resource capacity must be non-negative");
  resources_.push_back(Resource{std::move(name), capacity, 0.0});
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FluidModel::set_capacity(ResourceId resource, double capacity) {
  assert(resource < resources_.size());
  assert(capacity >= 0.0);
  settle();
  resources_[resource].capacity = capacity;
  rebalance();
}

double FluidModel::capacity(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].capacity;
}

const std::string& FluidModel::resource_name(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].name;
}

double FluidModel::consumption(ResourceId resource) const {
  assert(resource < resources_.size());
  return resources_[resource].consumption;
}

ActivityId FluidModel::start(ActivitySpec spec, std::function<void()> on_complete) {
  for ([[maybe_unused]] const Demand& demand : spec.demands) {
    assert(demand.resource < resources_.size() && "demand references unknown resource");
    assert(demand.weight > 0.0 && "demand weight must be positive");
  }
  assert((!spec.demands.empty() || std::isfinite(spec.rate_cap)) &&
         "an activity without demands needs a finite rate cap");
  assert(spec.rate_cap > 0.0 && "rate cap must be positive");

  settle();
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(activities_.size());
    activities_.emplace_back();
  }
  Activity& activity = activities_[slot];
  activity.remaining = std::max(spec.work, 0.0);
  activity.rate = 0.0;
  activity.spec = std::move(spec);
  activity.on_complete = std::move(on_complete);
  const ActivityId id = make_id(activity.generation, slot);
  order_.push_back(slot);
  ++activities_started_;
  rebalance();
  return id;
}

const FluidModel::Activity* FluidModel::find(ActivityId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot >= activities_.size()) return nullptr;
  const Activity& activity = activities_[slot];
  // A released slot's generation has moved past every id issued for it.
  if (activity.generation != generation_of(id)) return nullptr;
  return &activity;
}

void FluidModel::release(std::uint32_t slot) {
  order_.erase(std::find(order_.begin(), order_.end(), slot));
  Activity& activity = activities_[slot];
  activity.spec = ActivitySpec{};
  activity.on_complete = nullptr;
  activity.completion_event = kInvalidEventId;
  if (++activity.generation == 0) activity.generation = 1;
  free_slots_.push_back(slot);
}

bool FluidModel::cancel(ActivityId id) {
  const Activity* activity = find(id);
  if (activity == nullptr) return false;
  settle();
  if (activity->completion_event != kInvalidEventId) {
    engine_->cancel(activity->completion_event);
  }
  release(slot_of(id));
  rebalance();
  return true;
}

bool FluidModel::is_active(ActivityId id) const { return find(id) != nullptr; }

double FluidModel::remaining_work(ActivityId id) const {
  const Activity* activity = find(id);
  if (activity == nullptr) return 0.0;  // completed, cancelled, or unknown
  const double elapsed = engine_->now() - last_settle_;
  return std::max(0.0, activity->remaining - activity->rate * elapsed);
}

double FluidModel::rate(ActivityId id) const {
  const Activity* activity = find(id);
  if (activity == nullptr) return 0.0;  // completed, cancelled, or unknown
  return activity->rate;
}

std::optional<std::string> FluidModel::check_invariants() const {
  if (order_.size() + free_slots_.size() != activities_.size()) {
    return util::fmt("fluid model: {} live and {} free activity slots but {} in the table",
                     order_.size(), free_slots_.size(), activities_.size());
  }
  const SimTime now = engine_->now();
  for (std::uint32_t slot : order_) {
    if (slot >= activities_.size()) {
      return util::fmt("fluid model: slot {} in insertion order but not in the table", slot);
    }
    const Activity& activity = activities_[slot];
    const char* label =
        activity.spec.label.empty() ? "<unnamed>" : activity.spec.label.c_str();
    if (!(activity.remaining >= 0.0)) {
      return util::fmt("fluid activity '{}' has negative remaining work {}", label,
                       activity.remaining);
    }
    if (activity.spec.work > 0.0 &&
        activity.remaining > activity.spec.work * (1.0 + kRelEps) + kAbsEps) {
      return util::fmt("fluid activity '{}' progress outside [0, 1]: remaining {} of {}",
                       label, activity.remaining, activity.spec.work);
    }
    if (!(activity.rate >= 0.0) || !std::isfinite(activity.rate)) {
      return util::fmt("fluid activity '{}' has invalid rate {}", label, activity.rate);
    }
    if (std::isfinite(activity.spec.rate_cap) &&
        activity.rate > activity.spec.rate_cap * (1.0 + kRelEps) + kAbsEps) {
      return util::fmt("fluid activity '{}' rate {} exceeds its cap {}", label,
                       activity.rate, activity.spec.rate_cap);
    }
    const std::optional<SimTime> finish =
        engine_->queue().pending_time(activity.completion_event);
    if (activity.rate > 0.0 || activity.remaining <= kWorkEpsilon) {
      if (!finish || *finish < now) {
        return util::fmt("fluid activity '{}' (rate {}, remaining {}) owns no pending "
                         "completion event at or after t={}",
                         label, activity.rate, activity.remaining, now);
      }
    } else if (finish) {
      return util::fmt("fluid activity '{}' is stalled but owns a completion event at t={}",
                       label, *finish);
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const Resource& resource = resources_[r];
    if (!leq_tol(resource.consumption, resource.capacity)) {
      return util::fmt("fluid resource '{}' oversubscribed: consumption {} > capacity {}",
                       resource.name, resource.consumption, resource.capacity);
    }
  }
  // Max-min certificate: an activity below its cap must be held back by a
  // saturated resource on which it is among the fastest; otherwise its rate
  // could rise without lowering a slower activity's.
  std::vector<double> max_rate(resources_.size(), 0.0);
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
    for (const Demand& demand : activity.spec.demands) {
      max_rate[demand.resource] = std::max(max_rate[demand.resource], activity.rate);
    }
  }
  for (std::uint32_t slot : order_) {
    const Activity& activity = activities_[slot];
    if (activity.spec.demands.empty()) continue;
    if (activity.rate >= activity.spec.rate_cap * (1.0 - kCertEps) - kAbsEps) continue;
    bool bottlenecked = false;
    for (const Demand& demand : activity.spec.demands) {
      const Resource& resource = resources_[demand.resource];
      if (resource.consumption >= resource.capacity * (1.0 - kCertEps) - kAbsEps &&
          max_rate[demand.resource] <= activity.rate * (1.0 + kCertEps) + kAbsEps) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) {
      return util::fmt("fluid activity '{}' runs at {} below its cap {} but no resource it "
                       "uses is a saturated bottleneck for it (not max-min fair)",
                       activity.spec.label.empty() ? "<unnamed>" : activity.spec.label,
                       activity.rate, activity.spec.rate_cap);
    }
  }
  return std::nullopt;
}

// elsim-hot: runs before every rate change; touches every live activity.
void FluidModel::settle() {
  // Deliberately unscoped: settle runs ~once per solve and its own time is a
  // fraction of a percent of a run, so a scope here would cost more than the
  // attribution is worth. Settle time bills to the enclosing phase (usually
  // fluid.solve or engine.dispatch); Phase::kFluidSettle stays in the schema
  // for call sites that want to opt a hot path back in.
  const SimTime now = engine_->now();
  const double elapsed = now - last_settle_;
  if (elapsed > 0.0) {
    for (std::uint32_t slot : order_) {
      Activity& activity = activities_[slot];
      activity.remaining = std::max(0.0, activity.remaining - activity.rate * elapsed);
    }
  }
  last_settle_ = now;
}

// elsim-hot: the progressive-filling solve; reruns on every share change.
void FluidModel::rebalance() {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFluidSolve);
  ++rebalance_count_;
  activities_touched_ += order_.size();

  // Working state for progressive filling, kept in member scratch buffers so
  // steady-state solves do not allocate. Only the resources live demands
  // reference take part: each is stamped with this solve's number and
  // initialized on first sight. Per-resource sums still accumulate in
  // insertion order and the level is an exact min, so the rates match a
  // solve over every resource bit for bit.
  if (scratch_stamp_.size() < resources_.size()) {
    scratch_avail_.resize(resources_.size());
    scratch_weight_sum_.resize(resources_.size());
    scratch_stamp_.resize(resources_.size(), 0);
  }
  std::vector<double>& avail = scratch_avail_;
  std::vector<double>& weight_sum = scratch_weight_sum_;
  const std::uint64_t stamp = rebalance_count_;
  for (ResourceId r : touched_) resources_[r].consumption = 0.0;
  touched_.clear();

  std::vector<std::uint32_t>& unfrozen = scratch_unfrozen_;
  unfrozen.clear();
  unfrozen.reserve(order_.size());
  for (std::uint32_t slot : order_) {
    Activity& activity = activities_[slot];
    if (activity.spec.demands.empty()) {
      // No shared resources: runs at its cap unconditionally.
      activity.rate = activity.spec.rate_cap;
      continue;
    }
    unfrozen.push_back(slot);
    for (const Demand& demand : activity.spec.demands) {
      const ResourceId r = demand.resource;
      if (scratch_stamp_[r] != stamp) {
        scratch_stamp_[r] = stamp;
        // elsim-lint: allow(hot-container-growth) -- bounded by the resource count; capacity is kept across solves
        touched_.push_back(r);
        avail[r] = resources_[r].capacity;
        weight_sum[r] = 0.0;
      }
      weight_sum[r] += demand.weight;
    }
  }

  // Progressive filling: raise a common water level; freeze activities at
  // their cap or when a resource they use saturates.
  while (!unfrozen.empty()) {
    double lambda_res = kTimeInfinity;
    for (ResourceId r : touched_) {
      if (weight_sum[r] > kAbsEps) {
        lambda_res = std::min(lambda_res, std::max(avail[r], 0.0) / weight_sum[r]);
      }
    }
    double lambda_cap = kTimeInfinity;
    for (std::uint32_t slot : unfrozen) {
      lambda_cap = std::min(lambda_cap, activities_[slot].spec.rate_cap);
    }
    const double lambda = std::min(lambda_res, lambda_cap);

    // Identify the freeze set at this level; subtract each frozen activity's
    // consumption from the pools as it freezes (single pass, no membership
    // lookups).
    std::vector<std::uint32_t>& still_unfrozen = scratch_next_unfrozen_;
    still_unfrozen.clear();
    still_unfrozen.reserve(unfrozen.size());
    std::size_t frozen_this_round = 0;
    const bool cap_binding = lambda_cap <= lambda_res;
    for (std::uint32_t slot : unfrozen) {
      Activity& activity = activities_[slot];
      bool freeze = false;
      if (cap_binding) {
        freeze = leq_tol(activity.spec.rate_cap, lambda);
      } else {
        for (const Demand& demand : activity.spec.demands) {
          const double share = std::max(avail[demand.resource], 0.0) /
                               std::max(weight_sum[demand.resource], kAbsEps);
          if (leq_tol(share, lambda)) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        activity.rate = std::min(lambda, activity.spec.rate_cap);
        for (const Demand& demand : activity.spec.demands) {
          avail[demand.resource] -= demand.weight * activity.rate;
          weight_sum[demand.resource] -= demand.weight;
        }
        ++frozen_this_round;
      } else {
        still_unfrozen.push_back(slot);
      }
    }
    if (frozen_this_round == 0) {
      // Numerical corner: make progress by freezing everything at lambda.
      for (std::uint32_t slot : still_unfrozen) {
        Activity& activity = activities_[slot];
        activity.rate = std::min(lambda, activity.spec.rate_cap);
      }
      break;
    }
    unfrozen.swap(still_unfrozen);  // ping-pong the scratch buffers, no realloc
  }

  // Refresh per-resource consumption and move completion events.
  for (std::uint32_t slot : order_) {
    Activity& activity = activities_[slot];
    for (const Demand& demand : activity.spec.demands) {
      resources_[demand.resource].consumption += demand.weight * activity.rate;
    }
    schedule_completion(slot, activity);
  }
}

void FluidModel::schedule_completion(std::uint32_t slot, Activity& activity) {
  SimTime finish;
  if (activity.remaining <= kWorkEpsilon) {
    finish = engine_->now();
  } else if (activity.rate > 0.0) {
    finish = engine_->now() + activity.remaining / activity.rate;
  } else {
    // Stalled: no completion until a rebalance grants a rate.
    if (activity.completion_event != kInvalidEventId) {
      engine_->cancel(activity.completion_event);
      activity.completion_event = kInvalidEventId;
    }
    return;
  }
  if (activity.completion_event != kInvalidEventId) {
    // Moved in place with a fresh tie-break seq: the same order a cancel
    // plus re-push gives, without a new event.
    [[maybe_unused]] const bool moved = engine_->reschedule(activity.completion_event, finish);
    assert(moved && "a live activity's completion event must be pending");
    return;
  }
  const ActivityId id = make_id(activity.generation, slot);
  activity.completion_event =
      engine_->schedule_at(finish, [this, id] { on_activity_complete(id); });
}

void FluidModel::on_activity_complete(ActivityId id) {
  if (find(id) == nullptr) return;  // raced with cancel (should not happen)
  Activity& activity = activities_[slot_of(id)];
  settle();
  ELSIM_TRACE("activity '{}' complete at t={}", activity.spec.label, engine_->now());
  std::function<void()> callback = std::move(activity.on_complete);
  release(slot_of(id));  // its completion event just fired: nothing to cancel
  rebalance();
  if (callback) callback();
}

}  // namespace elastisim::sim
