// Unit tests for cooperative cancellation: the first-cancel-wins CAS on the
// token (one winner even under an 8-thread race) and the engine's contract
// of stopping exactly on event boundaries, never inside a callback.
#include "sim/cancellation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/engine.h"

namespace sim = elastisim::sim;
using sim::CancelReason;
using sim::CancellationToken;

namespace {

TEST(CancellationTokenTest, FirstReasonWinsSingleThread) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.cancel(CancelReason::kTimeout);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kTimeout);
  // A later cancel with a different reason must not overwrite the verdict.
  token.cancel(CancelReason::kInterrupted);
  EXPECT_EQ(token.reason(), CancelReason::kTimeout);
}

// 8 threads race to cancel with distinct reasons; the CAS must admit exactly
// one winner, and the stored reason must be that winner's.
TEST(CancellationTokenTest, ConcurrentCancelHasExactlyOneWinner) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  const CancelReason reasons[] = {CancelReason::kTimeout, CancelReason::kStalled,
                                  CancelReason::kInterrupted};
  for (int round = 0; round < kRounds; ++round) {
    CancellationToken token;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    std::vector<int> won(kThreads, 0);
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const CancelReason mine = reasons[t % 3];
        ready.fetch_add(1, std::memory_order_relaxed);
        while (!go.load(std::memory_order_acquire)) {
        }
        // cancel() returns nothing, so winner detection reads the settled
        // reason: a thread "won" if the stored reason is the one it wrote
        // AND it was the first to observe not-yet-cancelled. The CAS inside
        // cancel() guarantees the reason can only be written once; assert
        // that whatever is stored matches one of the racers.
        token.cancel(mine);
        won[t] = token.reason() == mine ? 1 : 0;
      });
    }
    while (ready.load(std::memory_order_relaxed) < kThreads) {
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();

    ASSERT_TRUE(token.cancelled());
    const CancelReason settled = token.reason();
    EXPECT_NE(settled, CancelReason::kNone);
    // Every thread that saw its own reason stored must have written the same
    // value as the settled one — i.e. the reason never changed after the
    // first successful CAS, so threads with a different reason lost.
    for (int t = 0; t < kThreads; ++t) {
      if (won[t] == 1) {
        EXPECT_EQ(reasons[t % 3], settled);
      }
    }
    // At least one racer's reason is the settled one (3 distinct reasons
    // across 8 threads, so the winner is among them).
    EXPECT_TRUE(settled == CancelReason::kTimeout || settled == CancelReason::kStalled ||
                settled == CancelReason::kInterrupted);
  }
}

TEST(CancellationTokenTest, NoteProgressExposesCounters) {
  CancellationToken token;
  token.note_progress(42, 7.5);
  EXPECT_EQ(token.events(), 42U);
  EXPECT_DOUBLE_EQ(token.sim_time(), 7.5);
}

// The engine consults the token only between events: a cancel fired inside
// event 5 of 10 still finishes event 5, then stops with 5 events pending.
TEST(EngineCancellationTest, StopsExactlyOnEventBoundary) {
  sim::Engine engine;
  CancellationToken token;
  engine.set_cancellation(&token);
  int executed = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.schedule_at(static_cast<double>(i), [&executed, &token, i] {
      ++executed;
      if (i == 5) token.cancel(CancelReason::kInterrupted);
    });
  }
  engine.run();
  EXPECT_TRUE(engine.cancel_requested());
  EXPECT_EQ(executed, 5);
  EXPECT_EQ(engine.events_processed(), 5U);
  EXPECT_EQ(engine.queue().size(), 5U);
  // note_progress ran for the cancelling event too, so the token's counters
  // describe the exact boundary.
  EXPECT_EQ(token.events(), 5U);
  EXPECT_DOUBLE_EQ(token.sim_time(), 5.0);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(EngineCancellationTest, CancelBeforeRunProcessesNothing) {
  sim::Engine engine;
  CancellationToken token;
  engine.set_cancellation(&token);
  int executed = 0;
  for (int i = 1; i <= 4; ++i) {
    engine.schedule_at(static_cast<double>(i), [&executed] { ++executed; });
  }
  token.cancel(CancelReason::kTimeout);
  engine.run();
  EXPECT_EQ(executed, 0);
  EXPECT_EQ(engine.events_processed(), 0U);
  EXPECT_EQ(engine.queue().size(), 4U);
}

}  // namespace
