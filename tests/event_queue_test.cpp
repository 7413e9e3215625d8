#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/engine.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/rng.h"

namespace elastisim::sim {
namespace {

// The lazy-deletion queue the slot heap replaced, kept as the differential
// reference: a (time, seq) min-heap plus an id -> callback map; cancel drops
// the map entry and pops skip ids no longer in it.
class ReferenceQueue {
 public:
  EventId push(SimTime when, EventQueue::Callback callback) {
    const EventId id = next_id_++;
    heap_.push(Entry{when, next_seq_++, id});
    callbacks_.emplace(id, std::move(callback));
    return id;
  }
  bool cancel(EventId id) { return callbacks_.erase(id) > 0; }
  bool empty() const { return callbacks_.empty(); }
  std::size_t size() const { return callbacks_.size(); }
  SimTime next_time() {
    drop_cancelled();
    return heap_.empty() ? kTimeInfinity : heap_.top().time;
  }
  std::pair<SimTime, EventQueue::Callback> pop() {
    drop_cancelled();
    const Entry entry = heap_.top();
    heap_.pop();
    auto it = callbacks_.find(entry.id);
    EventQueue::Callback callback = std::move(it->second);
    callbacks_.erase(it);
    return {entry.time, std::move(callback)};
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  void drop_cancelled() {
    while (!heap_.empty() && callbacks_.count(heap_.top().id) == 0) heap_.pop();
  }
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_map<EventId, EventQueue::Callback> callbacks_;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
};

TEST(EventQueue, EmptyInitially) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsNoop) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(1.0, [&] { order.push_back(1); });
  const EventId id = queue.push(2.0, [&] { order.push_back(2); });
  queue.push(3.0, [&] { order.push_back(3); });
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 2u);
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  queue.push(5.0, [] {});
  queue.cancel(id);
  EXPECT_DOUBLE_EQ(queue.next_time(), 5.0);
}

TEST(EventQueue, PopReturnsTime) {
  EventQueue queue;
  queue.push(4.25, [] {});
  auto [time, callback] = queue.pop();
  EXPECT_DOUBLE_EQ(time, 4.25);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue queue;
  std::vector<double> times;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    queue.push(t, [&times, t] { times.push_back(t); });
  }
  while (!queue.empty()) queue.pop().second();
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
}

TEST(EventQueue, RescheduleMovesEarlierAndLater) {
  EventQueue queue;
  std::vector<int> order;
  const EventId a = queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  const EventId c = queue.push(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(queue.reschedule(a, 4.0));
  EXPECT_TRUE(queue.reschedule(c, 0.5));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pushes(), 3u);  // moves are not pushes
  EXPECT_DOUBLE_EQ(queue.next_time(), 0.5);
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(EventQueue, RescheduleToEqualTimeQueuesBehind) {
  // A moved event takes a fresh tie-break seq: it fires after every event
  // already scheduled for its new instant, as cancel + push would.
  EventQueue queue;
  std::vector<int> order;
  const EventId first = queue.push(5.0, [&] { order.push_back(0); });
  queue.push(5.0, [&] { order.push_back(1); });
  queue.push(5.0, [&] { order.push_back(2); });
  EXPECT_TRUE(queue.reschedule(first, 5.0));
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(EventQueue, StaleIdOfFiredEventLeavesReusedSlotAlone) {
  EventQueue queue;
  const EventId fired = queue.push(1.0, [] {});
  queue.pop();
  int hits = 0;
  const EventId newer = queue.push(7.0, [&] { ++hits; });  // reuses the freed slot
  EXPECT_NE(newer, fired);
  EXPECT_FALSE(queue.cancel(fired));
  EXPECT_FALSE(queue.reschedule(fired, 2.0));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_DOUBLE_EQ(queue.next_time(), 7.0);
  auto [time, callback] = queue.pop();
  callback();
  EXPECT_DOUBLE_EQ(time, 7.0);
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, StaleIdOfCancelledEventLeavesReusedSlotAlone) {
  EventQueue queue;
  const EventId cancelled = queue.push(1.0, [] {});
  EXPECT_TRUE(queue.cancel(cancelled));
  const EventId newer = queue.push(3.0, [] {});
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_FALSE(queue.reschedule(cancelled, 0.5));
  EXPECT_EQ(queue.pending_time(newer), std::optional<SimTime>(3.0));
  EXPECT_EQ(queue.pending_time(cancelled), std::nullopt);
  EXPECT_FALSE(queue.cancel(kInvalidEventId));
  EXPECT_FALSE(queue.reschedule(kInvalidEventId, 1.0));
}

TEST(EventQueue, NanTimeIsRejected) {
  EventQueue queue;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(queue.push(nan, [] {}), util::CheckError);
  EXPECT_TRUE(queue.empty());
  const EventId id = queue.push(1.0, [] {});
  EXPECT_THROW(queue.reschedule(id, nan), util::CheckError);
  EXPECT_EQ(queue.pending_time(id), std::optional<SimTime>(1.0));
  EXPECT_EQ(queue.check_invariants(), std::nullopt);
}

// Differential oracle: seeded random push/cancel/reschedule/pop sequences
// over a few distinct times (many ties) must pop in the same (time, payload)
// order as the reference queue, where reschedule is cancel + push.
class EventQueueDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueDifferential, MatchesLazyDeletionReference) {
  util::Rng rng(GetParam());
  EventQueue queue;
  ReferenceQueue reference;
  struct Handle {
    EventId fast;
    EventId ref;
  };
  std::vector<Handle> handles;
  std::vector<int> fast_fired, ref_fired;
  const auto random_time = [&] { return static_cast<double>(rng.uniform_int(0, 12)) * 0.5; };
  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.uniform_int(0, 9);
    if (op < 4 || handles.empty()) {
      const SimTime when = random_time();
      const int payload = static_cast<int>(handles.size());
      handles.push_back({queue.push(when, [&fast_fired, payload] { fast_fired.push_back(payload); }),
                         reference.push(when, [&ref_fired, payload] { ref_fired.push_back(payload); })});
    } else if (op < 6) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      EXPECT_EQ(queue.cancel(handles[pick].fast), reference.cancel(handles[pick].ref));
    } else if (op < 8) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      const SimTime when = random_time();
      const bool moved = queue.reschedule(handles[pick].fast, when);
      const bool was_pending = reference.cancel(handles[pick].ref);
      ASSERT_EQ(moved, was_pending) << "step " << step;
      if (was_pending) {
        const int payload = static_cast<int>(pick);
        handles[pick].ref =
            reference.push(when, [&ref_fired, payload] { ref_fired.push_back(payload); });
      }
    } else if (!reference.empty()) {
      ASSERT_FALSE(queue.empty());
      auto [fast_time, fast_callback] = queue.pop();
      auto [ref_time, ref_callback] = reference.pop();
      fast_callback();
      ref_callback();
      ASSERT_EQ(fast_time, ref_time) << "step " << step;
      ASSERT_EQ(fast_fired.back(), ref_fired.back()) << "step " << step;
    }
    ASSERT_EQ(queue.size(), reference.size()) << "step " << step;
    ASSERT_EQ(queue.next_time(), reference.next_time()) << "step " << step;
    ASSERT_EQ(queue.check_invariants(), std::nullopt) << "step " << step;
  }
  while (!reference.empty()) {
    auto [fast_time, fast_callback] = queue.pop();
    auto [ref_time, ref_callback] = reference.pop();
    fast_callback();
    ref_callback();
    ASSERT_EQ(fast_time, ref_time);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(fast_fired, ref_fired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential, testing::Values(1, 2, 3, 42, 4242));

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(Engine, StartsAtZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(10.0, [&] { seen = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_in(2.5, [&] { seen = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Engine, PastEventsClampToNow) {
  Engine engine;
  double seen = -1.0;
  engine.schedule_at(10.0, [&] {
    engine.schedule_at(3.0, [&] { seen = engine.now(); });  // in the past
  });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  engine.schedule_at(3.0, [&] { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline fire
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine engine;
  engine.run_until(42.0);
  EXPECT_DOUBLE_EQ(engine.now(), 42.0);
}

TEST(Engine, StepProcessesOneEvent) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
}

TEST(Engine, CancelWorksThroughEngine) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  engine.cancel(id);
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RescheduleClampsToNow) {
  Engine engine;
  double seen = -1.0;
  const EventId id = engine.schedule_at(50.0, [&] { seen = engine.now(); });
  engine.schedule_at(10.0, [&] { EXPECT_TRUE(engine.reschedule(id, 3.0)); });  // in the past
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
  EXPECT_FALSE(engine.reschedule(id, 60.0));  // already fired
}

TEST(Engine, CountsProcessedEvents) {
  Engine engine;
  for (int i = 0; i < 5; ++i) engine.schedule_at(i, [] {});
  engine.run();
  EXPECT_EQ(engine.events_processed(), 5u);
}

TEST(Engine, SelfSchedulingChainTerminates) {
  Engine engine;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) engine.schedule_in(1.0, tick);
  };
  engine.schedule_in(1.0, tick);
  engine.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 100.0);
}

}  // namespace
}  // namespace elastisim::sim
