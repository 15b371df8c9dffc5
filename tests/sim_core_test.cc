#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/task.h"

namespace rlsim {
namespace {

TEST(SimulatorTest, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::Origin());
}

TEST(SimulatorTest, ScheduleAdvancesClock) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(Duration::Millis(5), [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, TimePoint::Origin() + Duration::Millis(5));
  EXPECT_EQ(sim.now(), TimePoint::Origin() + Duration::Millis(5));
}

TEST(SimulatorTest, EventsRunInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Millis(3), [&] { order.push_back(3); });
  sim.Schedule(Duration::Millis(1), [&] { order.push_back(1); });
  sim.Schedule(Duration::Millis(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Millis(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] {
    sim.Schedule(Duration::Millis(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().nanos(), Duration::Millis(2).nanos());
}

TEST(SimulatorTest, SchedulingInThePastFails) {
  Simulator sim;
  EXPECT_THROW(sim.Schedule(Duration::Millis(-1), [] {}), CheckFailure);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] { ++fired; });
  sim.Schedule(Duration::Millis(10), [&] { ++fired; });
  sim.RunUntil(TimePoint::Origin() + Duration::Millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::Origin() + Duration::Millis(5));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Duration::Millis(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

Task<int> Return42() { co_return 42; }

Task<int> AddOne(Simulator& sim) {
  co_await sim.Sleep(Duration::Millis(1));
  const int v = co_await Return42();
  co_return v + 1;
}

TEST(SimulatorTest, SpawnedTaskRunsAndCompletes) {
  Simulator sim;
  int result = 0;
  sim.Spawn([](Simulator& s, int& out) -> Task<void> {
    out = co_await AddOne(s);
  }(sim, result));
  sim.Run();
  EXPECT_EQ(result, 43);
  EXPECT_EQ(sim.pending_tasks(), 0u);
}

TEST(SimulatorTest, SleepAdvancesVirtualTimeOnly) {
  Simulator sim;
  TimePoint woke;
  sim.Spawn([](Simulator& s, TimePoint& out) -> Task<void> {
    co_await s.Sleep(Duration::Seconds(3600));
    out = s.now();
  }(sim, woke));
  sim.Run();
  EXPECT_EQ(woke, TimePoint::Origin() + Duration::Seconds(3600));
}

TEST(SimulatorTest, ZeroSleepYields) {
  Simulator sim;
  std::vector<int> order;
  // Spawn starts the task synchronously: it records 1 and parks its wakeup
  // behind the already-queued event recording 2.
  sim.Schedule(Duration::Zero(), [&] { order.push_back(2); });
  sim.Spawn([](Simulator& s, std::vector<int>& o) -> Task<void> {
    o.push_back(1);
    co_await s.Sleep(Duration::Zero());
    o.push_back(3);
  }(sim, order));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ManyInterleavedTasks) {
  Simulator sim;
  int total = 0;
  for (int i = 0; i < 100; ++i) {
    sim.Spawn([](Simulator& s, int delay, int& sum) -> Task<void> {
      for (int k = 0; k < 10; ++k) {
        co_await s.Sleep(Duration::Micros(delay));
        ++sum;
      }
    }(sim, i + 1, total));
  }
  sim.Run();
  EXPECT_EQ(total, 1000);
}

TEST(SimulatorTest, TaskExceptionPropagatesFromRun) {
  Simulator sim;
  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.Run(), std::runtime_error);
}

// Roots are reaped in spawn order, not completion order: of two roots that
// threw since the last reap, Run() rethrows the earlier-spawned one, even
// though the later one finished first. A rethrown root stays queued (and so
// does every root behind it), so the next Run() rethrows it again rather than
// skipping past it.
TEST(SimulatorTest, RootExceptionsRethrowInSpawnOrder) {
  Simulator sim;
  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(2));
    throw std::runtime_error("first-spawned");
  }(sim));
  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    throw std::logic_error("second-spawned");
  }(sim));
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      sim.Run();
      ADD_FAILURE() << "Run() did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "first-spawned");
    } catch (const std::logic_error&) {
      ADD_FAILURE() << "later-spawned root rethrown first";
    }
  }
  EXPECT_EQ(sim.pending_tasks(), 0u);
}

// A root that finishes synchronously inside Spawn is not pending, nor is one
// that finished but has not been reaped yet.
TEST(SimulatorTest, PendingTasksExcludesFinishedUnreapedRoots) {
  Simulator sim;
  sim.Spawn([]() -> Task<void> { co_return; }());
  EXPECT_EQ(sim.pending_tasks(), 0u);

  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
  }(sim));
  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(5));
  }(sim));
  EXPECT_EQ(sim.pending_tasks(), 2u);
  size_t pending_at_2ms = 0;
  sim.Schedule(Duration::Millis(2),
               [&] { pending_at_2ms = sim.pending_tasks(); });
  sim.Run();
  EXPECT_EQ(pending_at_2ms, 1u);
  EXPECT_EQ(sim.pending_tasks(), 0u);
}

// Records its id when the coroutine frame holding it is destroyed. Moving
// disarms the source, so only the frame's copy of the parameter records.
struct DestroyRecorder {
  DestroyRecorder(std::vector<int>* log, int id) : log(log), id(id) {}
  DestroyRecorder(DestroyRecorder&& other) noexcept
      : log(std::exchange(other.log, nullptr)), id(other.id) {}
  DestroyRecorder(const DestroyRecorder&) = delete;
  DestroyRecorder& operator=(const DestroyRecorder&) = delete;
  DestroyRecorder& operator=(DestroyRecorder&&) = delete;
  ~DestroyRecorder() {
    if (log != nullptr) {
      log->push_back(id);
    }
  }
  std::vector<int>* log;
  int id;
};

Task<void> SleepHolding(Simulator& sim, Duration d, DestroyRecorder) {
  co_await sim.Sleep(d);
}

// Finished frames live until the next reap, which destroys them in spawn
// order whatever order they finished in.
TEST(SimulatorTest, ReapDestroysFinishedFramesInSpawnOrder) {
  Simulator sim;
  std::vector<int> destroyed;
  const int finish_ms[] = {2, 3, 1};  // root 2 finishes first, root 1 last
  for (int id = 0; id < 3; ++id) {
    sim.Spawn(SleepHolding(sim, Duration::Millis(finish_ms[id]),
                           DestroyRecorder(&destroyed, id)));
  }
  std::vector<int> before_reap;
  sim.Schedule(Duration::Millis(4), [&] { before_reap = destroyed; });
  sim.Run();
  EXPECT_TRUE(before_reap.empty());
  EXPECT_EQ(destroyed, (std::vector<int>{0, 1, 2}));
}

// Tearing the simulator down destroys still-suspended root frames in spawn
// order too.
TEST(SimulatorTest, DestructorDestroysSuspendedFramesInSpawnOrder) {
  std::vector<int> destroyed;
  {
    Simulator sim;
    const int wake_ms[] = {30, 10, 20};
    for (int id = 0; id < 3; ++id) {
      sim.Spawn(SleepHolding(sim, Duration::Millis(wake_ms[id]),
                             DestroyRecorder(&destroyed, id)));
    }
    sim.RunUntil(TimePoint::Origin() + Duration::Millis(5));
    EXPECT_TRUE(destroyed.empty());
  }
  EXPECT_EQ(destroyed, (std::vector<int>{0, 1, 2}));
}

TEST(SimulatorTest, AwaitedTaskExceptionReachesParent) {
  Simulator sim;
  bool caught = false;
  sim.Spawn([](Simulator& s, bool& c) -> Task<void> {
    try {
      co_await [](Simulator& s2) -> Task<void> {
        co_await s2.Sleep(Duration::Millis(1));
        throw std::runtime_error("child boom");
      }(s);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    Simulator sim(seed);
    std::vector<int64_t> trace;
    for (int i = 0; i < 10; ++i) {
      sim.Spawn([](Simulator& s, std::vector<int64_t>& t) -> Task<void> {
        Rng rng = s.rng().Fork();
        for (int k = 0; k < 20; ++k) {
          co_await s.Sleep(Duration::Micros(rng.UniformInt(1, 50)));
          t.push_back(s.now().nanos());
        }
      }(sim, trace));
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(SimulatorTest, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Duration::Millis(i + 1), [] {});
  }
  EXPECT_EQ(sim.Run(), 5u);
}

}  // namespace
}  // namespace rlsim
