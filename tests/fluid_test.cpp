// Tests of the fluid (bounded max-min fairness) resource model, including
// parameterized property sweeps of the progressive-filling solver.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/engine.h"
#include "sim/fluid.h"
#include "util/rng.h"

namespace elastisim::sim {
namespace {

class FluidTest : public testing::Test {
 protected:
  Engine engine;
  FluidModel& fluid() { return engine.fluid(); }
};

// ---------------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------------

TEST_F(FluidTest, SingleActivityRunsAtCapacity) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double done_at = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST_F(FluidTest, RateCapLimitsBelowCapacity) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double done_at = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, 4.0, "capped"}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 25.0);
}

TEST_F(FluidTest, TwoEqualActivitiesShareFairly) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0, b_done = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { b_done = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 20.0);
  EXPECT_DOUBLE_EQ(b_done, 20.0);
}

TEST_F(FluidTest, ShorterActivityFreesBandwidthForLonger) {
  // a: 50 units, b: 100 units, capacity 10. Both run at 5 until a finishes
  // at t=10; b then runs at 10 and finishes at 10 + 50/10 = 15.
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0, b_done = -1.0;
  fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { b_done = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 10.0);
  EXPECT_NEAR(b_done, 15.0, 1e-9);
}

TEST_F(FluidTest, LateArrivalSlowsExisting) {
  // a alone until t=5 (50 units done), then shares with b at rate 5 until
  // b's 25 units finish at t=10; a's remaining 25 then run at rate 10,
  // finishing at t=12.5.
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  engine.schedule_at(5.0, [&] {
    fluid().start({25.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [] {});
  });
  engine.run();
  EXPECT_NEAR(a_done, 12.5, 1e-9);
}

TEST_F(FluidTest, ZeroWorkCompletesImmediatelyButAsynchronously) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  bool done = false;
  fluid().start({0.0, {{cpu, 1.0}}, kTimeInfinity, "zero"}, [&] { done = true; });
  EXPECT_FALSE(done) << "completion must not fire inside start()";
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST_F(FluidTest, NoDemandActivityRunsAtCap) {
  double done_at = -1.0;
  fluid().start({30.0, {}, 2.0, "delay"}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 15.0);
}

TEST_F(FluidTest, CancelPreventsCompletion) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  bool done = false;
  const ActivityId id =
      fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done = true; });
  EXPECT_TRUE(fluid().cancel(id));
  engine.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(fluid().is_active(id));
}

TEST_F(FluidTest, CancelUnknownReturnsFalse) {
  EXPECT_FALSE(fluid().cancel(1234567));
}

TEST_F(FluidTest, StaleIdOfCompletedActivityLeavesReusedSlotAlone) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId done = fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  engine.run();
  bool newer_done = false;
  const ActivityId newer = fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"},
                                         [&] { newer_done = true; });  // reuses the slot
  EXPECT_NE(newer, done);
  EXPECT_FALSE(fluid().is_active(done));
  EXPECT_FALSE(fluid().cancel(done));
  EXPECT_DOUBLE_EQ(fluid().rate(done), 0.0);
  EXPECT_DOUBLE_EQ(fluid().remaining_work(done), 0.0);
  EXPECT_TRUE(fluid().is_active(newer));
  EXPECT_DOUBLE_EQ(fluid().rate(newer), 10.0);
  engine.run();
  EXPECT_TRUE(newer_done);
  EXPECT_DOUBLE_EQ(engine.now(), 11.0);
}

TEST_F(FluidTest, StaleIdOfCancelledActivityLeavesReusedSlotAlone) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId cancelled = fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  EXPECT_TRUE(fluid().cancel(cancelled));
  const ActivityId newer = fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [] {});
  EXPECT_FALSE(fluid().cancel(cancelled));
  EXPECT_TRUE(fluid().is_active(newer));
  EXPECT_EQ(fluid().active_count(), 1u);
  EXPECT_FALSE(fluid().cancel(kInvalidActivityId));
}

TEST_F(FluidTest, RateChangesMoveTheCompletionEventInPlace) {
  // Every start re-solves and moves each live completion; a move is not a
  // push, so each activity costs exactly one event for its whole life.
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  for (int i = 0; i < 8; ++i) {
    fluid().start({10.0 * (i + 1), {{cpu, 1.0}}, kTimeInfinity, "w"}, [] {});
  }
  EXPECT_EQ(engine.queue().size(), 8u);
  EXPECT_EQ(fluid().check_invariants(), std::nullopt);
  engine.run();
  EXPECT_EQ(engine.queue().pushes(), 8u);
  EXPECT_EQ(engine.queue().pops(), 8u);
  EXPECT_EQ(fluid().rebalance_count(), 16u);
}

TEST_F(FluidTest, StalledActivityOwnsNoCompletionEvent) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId id = fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  EXPECT_EQ(engine.pending_events(), 1u);
  fluid().set_capacity(cpu, 0.0);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(fluid().check_invariants(), std::nullopt);
  fluid().set_capacity(cpu, 5.0);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(fluid().rate(id), 5.0);
  EXPECT_EQ(fluid().check_invariants(), std::nullopt);
}

TEST_F(FluidTest, CancelSpeedsUpSurvivor) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  const ActivityId b =
      fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [] {});
  engine.schedule_at(4.0, [&, b] { fluid().cancel(b); });
  engine.run();
  // a: 4s at rate 5 (20 done), then 80 remaining at rate 10 -> t = 12.
  EXPECT_NEAR(a_done, 12.0, 1e-9);
}

TEST_F(FluidTest, ZeroCapacityStallsUntilRaised) {
  const ResourceId cpu = fluid().add_resource("cpu", 0.0);
  double done_at = -1.0;
  fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "stalled"},
                [&] { done_at = engine.now(); });
  engine.schedule_at(5.0, [&] { fluid().set_capacity(cpu, 10.0); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 6.0);
}

TEST_F(FluidTest, CapacityDropMidFlight) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double done_at = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done_at = engine.now(); });
  engine.schedule_at(5.0, [&] { fluid().set_capacity(cpu, 5.0); });
  engine.run();
  // 50 done by t=5; remaining 50 at rate 5 -> t = 15.
  EXPECT_NEAR(done_at, 15.0, 1e-9);
}

TEST_F(FluidTest, RemainingWorkSettlesContinuously) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId id = fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  engine.run_until(4.0);
  EXPECT_NEAR(fluid().remaining_work(id), 60.0, 1e-9);
  EXPECT_DOUBLE_EQ(fluid().rate(id), 10.0);
}

// ---------------------------------------------------------------------------
// Multi-resource activities and weights
// ---------------------------------------------------------------------------

TEST_F(FluidTest, MultiResourceBottleneckedBySlowest) {
  const ResourceId fast = fluid().add_resource("fast", 100.0);
  const ResourceId slow = fluid().add_resource("slow", 10.0);
  double done_at = -1.0;
  fluid().start({50.0, {{fast, 1.0}, {slow, 1.0}}, kTimeInfinity, "route"},
                [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST_F(FluidTest, WeightedDemandConsumesProportionally) {
  // Weight 4 on a capacity-20 resource -> rate 5.
  const ResourceId link = fluid().add_resource("link", 20.0);
  double done_at = -1.0;
  fluid().start({50.0, {{link, 4.0}}, kTimeInfinity, "heavy"},
                [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST_F(FluidTest, MixedWeightsShareByWeight) {
  // Capacity 30; weights 1 and 2 -> common level 10: rates 10 and 10,
  // consumptions 10 and 20.
  const ResourceId link = fluid().add_resource("link", 30.0);
  const ActivityId a = fluid().start({1e9, {{link, 1.0}}, kTimeInfinity, "w1"}, [] {});
  const ActivityId b = fluid().start({1e9, {{link, 2.0}}, kTimeInfinity, "w2"}, [] {});
  engine.run_until(0.5);
  EXPECT_NEAR(fluid().rate(a), 10.0, 1e-9);
  EXPECT_NEAR(fluid().rate(b), 10.0, 1e-9);
  EXPECT_NEAR(fluid().consumption(link), 30.0, 1e-9);
}

TEST_F(FluidTest, ClassicMaxMinThreeFlowsTwoLinks) {
  // The textbook example: flows A (link1), B (link1+link2), C (link2).
  // link1 cap 10, link2 cap 6. Progressive filling: level 3 saturates
  // link2 (B=C=3), then A rises to 10-3=7.
  const ResourceId link1 = fluid().add_resource("l1", 10.0);
  const ResourceId link2 = fluid().add_resource("l2", 6.0);
  const ActivityId a = fluid().start({1e9, {{link1, 1.0}}, kTimeInfinity, "A"}, [] {});
  const ActivityId b =
      fluid().start({1e9, {{link1, 1.0}, {link2, 1.0}}, kTimeInfinity, "B"}, [] {});
  const ActivityId c = fluid().start({1e9, {{link2, 1.0}}, kTimeInfinity, "C"}, [] {});
  engine.run_until(0.1);
  EXPECT_NEAR(fluid().rate(b), 3.0, 1e-9);
  EXPECT_NEAR(fluid().rate(c), 3.0, 1e-9);
  EXPECT_NEAR(fluid().rate(a), 7.0, 1e-9);
}

TEST_F(FluidTest, CapFreesShareForOthers) {
  // Two activities, capacity 10; a capped at 2 -> b gets 8.
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId a = fluid().start({1e9, {{cpu, 1.0}}, 2.0, "capped"}, [] {});
  const ActivityId b = fluid().start({1e9, {{cpu, 1.0}}, kTimeInfinity, "free"}, [] {});
  engine.run_until(0.1);
  EXPECT_NEAR(fluid().rate(a), 2.0, 1e-9);
  EXPECT_NEAR(fluid().rate(b), 8.0, 1e-9);
}

TEST_F(FluidTest, SimultaneousCompletionsBothFire) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  int completions = 0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { ++completions; });
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { ++completions; });
  engine.run();
  EXPECT_EQ(completions, 2);
  EXPECT_NEAR(engine.now(), 20.0, 1e-6);
}

TEST_F(FluidTest, CompletionCallbackCanStartNewActivity) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double second_done = -1.0;
  fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "first"}, [&] {
    fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "second"},
                  [&] { second_done = engine.now(); });
  });
  engine.run();
  EXPECT_NEAR(second_done, 10.0, 1e-9);
}

TEST_F(FluidTest, ChainOfHundredSequentialActivities) {
  const ResourceId cpu = fluid().add_resource("cpu", 1.0);
  int completed = 0;
  std::function<void()> next = [&] {
    if (++completed < 100) {
      fluid().start({1.0, {{cpu, 1.0}}, kTimeInfinity, "step"}, next);
    }
  };
  fluid().start({1.0, {{cpu, 1.0}}, kTimeInfinity, "step"}, next);
  engine.run();
  EXPECT_EQ(completed, 100);
  EXPECT_NEAR(engine.now(), 100.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Property sweep: randomized max-min instances
// ---------------------------------------------------------------------------

struct SolverCase {
  int resources;
  int activities;
  std::uint64_t seed;
};

class FluidSolverProperty : public testing::TestWithParam<SolverCase> {};

TEST_P(FluidSolverProperty, RatesAreFeasibleAndMaxMin) {
  const SolverCase param = GetParam();
  util::Rng rng(param.seed);
  Engine engine;
  FluidModel& fluid = engine.fluid();

  std::vector<ResourceId> resources;
  std::vector<double> capacity;
  for (int r = 0; r < param.resources; ++r) {
    capacity.push_back(rng.uniform(1.0, 100.0));
    resources.push_back(fluid.add_resource("r", capacity.back()));
  }

  struct Act {
    ActivityId id;
    std::vector<Demand> demands;
    double cap;
  };
  std::vector<Act> acts;
  for (int a = 0; a < param.activities; ++a) {
    Act act;
    const int uses = static_cast<int>(rng.uniform_int(1, std::min(3, param.resources)));
    std::vector<int> picks;
    for (int u = 0; u < uses; ++u) {
      int r;
      do {
        r = static_cast<int>(rng.uniform_int(0, param.resources - 1));
      } while (std::find(picks.begin(), picks.end(), r) != picks.end());
      picks.push_back(r);
      act.demands.push_back({resources[r], rng.uniform(0.5, 3.0)});
    }
    act.cap = rng.bernoulli(0.3) ? rng.uniform(0.5, 20.0) : kTimeInfinity;
    act.id = fluid.start({1e12, act.demands, act.cap, "p"}, [] {});
    acts.push_back(std::move(act));
  }
  engine.run_until(1e-6);  // force at least one settle; rates already set

  // Feasibility: per-resource consumption within capacity.
  std::vector<double> used(resources.size(), 0.0);
  for (const Act& act : acts) {
    const double rate = fluid.rate(act.id);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, act.cap * (1.0 + 1e-6));
    for (const Demand& demand : act.demands) used[demand.resource] += demand.weight * rate;
  }
  for (std::size_t r = 0; r < resources.size(); ++r) {
    EXPECT_LE(used[r], capacity[r] * (1.0 + 1e-6))
        << "resource " << r << " oversubscribed";
  }

  // Max-min / Pareto property: every activity below its cap must be blocked
  // by at least one saturated resource (otherwise its rate could increase).
  for (const Act& act : acts) {
    const double rate = fluid.rate(act.id);
    if (rate >= act.cap * (1.0 - 1e-6)) continue;  // cap-bound
    bool blocked = false;
    for (const Demand& demand : act.demands) {
      if (used[demand.resource] >= capacity[demand.resource] * (1.0 - 1e-6)) {
        blocked = true;
        break;
      }
    }
    EXPECT_TRUE(blocked) << "activity below cap is not resource-blocked (rate " << rate << ")";
  }
  // The model's own certificate (run under --validate) agrees.
  EXPECT_EQ(fluid.check_invariants(), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, FluidSolverProperty,
    testing::Values(SolverCase{1, 1, 1}, SolverCase{1, 5, 2}, SolverCase{2, 3, 3},
                    SolverCase{3, 8, 4}, SolverCase{4, 16, 5}, SolverCase{5, 25, 6},
                    SolverCase{8, 40, 7}, SolverCase{10, 80, 8}, SolverCase{2, 50, 9},
                    SolverCase{16, 100, 10}, SolverCase{6, 12, 11}, SolverCase{3, 30, 12}));

// ---------------------------------------------------------------------------
// Metamorphic properties of the solve
// ---------------------------------------------------------------------------

struct RandomInstance {
  std::vector<double> capacity;
  struct Act {
    std::vector<Demand> demands;
    double cap;
    double work;
  };
  std::vector<Act> acts;
};

RandomInstance random_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomInstance instance;
  const int resources = static_cast<int>(rng.uniform_int(2, 10));
  const int activities = static_cast<int>(rng.uniform_int(3, 40));
  for (int r = 0; r < resources; ++r) instance.capacity.push_back(rng.uniform(1.0, 100.0));
  for (int a = 0; a < activities; ++a) {
    RandomInstance::Act act;
    const int uses = static_cast<int>(rng.uniform_int(1, std::min(3, resources)));
    for (int u = 0; u < uses; ++u) {
      const auto r = static_cast<ResourceId>(rng.uniform_int(0, resources - 1));
      bool repeated = false;
      for (const Demand& demand : act.demands) repeated = repeated || demand.resource == r;
      if (!repeated) act.demands.push_back({r, rng.uniform(0.5, 3.0)});
    }
    act.cap = rng.bernoulli(0.3) ? rng.uniform(0.5, 20.0) : kTimeInfinity;
    act.work = rng.uniform(10.0, 1000.0);
    instance.acts.push_back(std::move(act));
  }
  return instance;
}

class FluidMetamorphic : public testing::TestWithParam<std::uint64_t> {};

// Scaling every capacity and rate cap by k scales every rate by k, so every
// completion time by 1/k (k = 4 keeps the scaled inputs exact).
TEST_P(FluidMetamorphic, ScalingCapacitiesScalesCompletionTimes) {
  const RandomInstance instance = random_instance(GetParam());
  const auto completions = [&](double k) {
    Engine engine;
    for (double capacity : instance.capacity) engine.fluid().add_resource("r", capacity * k);
    std::vector<double> done(instance.acts.size(), -1.0);
    for (std::size_t a = 0; a < instance.acts.size(); ++a) {
      const RandomInstance::Act& act = instance.acts[a];
      engine.fluid().start({act.work, act.demands, act.cap * k, "m"},
                           [&done, &engine, a] { done[a] = engine.now(); });
    }
    engine.run();
    return done;
  };
  const std::vector<double> base = completions(1.0);
  const std::vector<double> scaled = completions(4.0);
  for (std::size_t a = 0; a < base.size(); ++a) {
    ASSERT_GT(base[a], 0.0) << "activity " << a << " never completed";
    EXPECT_NEAR(scaled[a], base[a] / 4.0, 1e-12 * base[a] / 4.0) << "activity " << a;
  }
}

// The order activities start in at one instant does not change the max-min
// allocation: rates agree to rounding of the per-resource sums.
TEST_P(FluidMetamorphic, StartOrderLeavesRatesUnchanged) {
  const RandomInstance instance = random_instance(GetParam());
  const auto rates = [&](const std::vector<std::size_t>& order) {
    Engine engine;
    for (double capacity : instance.capacity) engine.fluid().add_resource("r", capacity);
    std::vector<ActivityId> ids(instance.acts.size(), kInvalidActivityId);
    for (std::size_t a : order) {
      const RandomInstance::Act& act = instance.acts[a];
      ids[a] = engine.fluid().start({act.work, act.demands, act.cap, "m"}, [] {});
    }
    EXPECT_EQ(engine.fluid().check_invariants(), std::nullopt);
    std::vector<double> out;
    for (ActivityId id : ids) out.push_back(engine.fluid().rate(id));
    return out;
  };
  std::vector<std::size_t> order(instance.acts.size());
  for (std::size_t a = 0; a < order.size(); ++a) order[a] = a;
  const std::vector<double> base = rates(order);
  util::Rng rng(GetParam() ^ 0x5eedULL);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  const std::vector<double> permuted = rates(order);
  for (std::size_t a = 0; a < base.size(); ++a) {
    EXPECT_NEAR(permuted[a], base[a], 1e-12 * base[a]) << "activity " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidMetamorphic,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 4242));

// Work-conservation property: total completion time of identical activities
// equals the serialized optimum regardless of arrival pattern.
class FluidConservation : public testing::TestWithParam<int> {};

TEST_P(FluidConservation, TotalWorkConserved) {
  const int n = GetParam();
  Engine engine;
  const ResourceId cpu = engine.fluid().add_resource("cpu", 7.0);
  // n activities of 70 units each: machine busy at full rate until all done,
  // so the last completion is exactly n * 10 seconds.
  int completions = 0;
  for (int i = 0; i < n; ++i) {
    engine.fluid().start({70.0, {{cpu, 1.0}}, kTimeInfinity, "w"}, [&] { ++completions; });
  }
  engine.run();
  EXPECT_EQ(completions, n);
  EXPECT_NEAR(engine.now(), 10.0 * n, 1e-6 * n);
}

INSTANTIATE_TEST_SUITE_P(Counts, FluidConservation, testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace elastisim::sim
