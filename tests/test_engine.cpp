#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <utility>
#include <vector>

namespace pc = padico::core;

// Counting global operator new for this binary: the footprint test
// reads how many bytes a construction requests.  The deletes stay out
// of line so GCC does not see `free` on an inlined `new` result and
// warn (-Wmismatched-new-delete).
namespace {
std::size_t g_new_bytes = 0;
}  // namespace

void* operator new(std::size_t n) {
  g_new_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

TEST(Engine, RunsEventsInTimeOrder) {
  pc::Engine e;
  std::vector<int> order;
  e.schedule_at(300, [&] { order.push_back(3); });
  e.schedule_at(100, [&] { order.push_back(1); });
  e.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(e.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300u);
}

TEST(Engine, FifoWithinSameInstant) {
  pc::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  e.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, NowVisibleInsideCallback) {
  pc::Engine e;
  pc::SimTime seen = 0;
  e.schedule_at(777, [&] { seen = e.now(); });
  e.run_until_idle();
  EXPECT_EQ(seen, 777u);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  pc::Engine e;
  std::vector<pc::SimTime> times;
  std::function<void()> tick = [&] {
    times.push_back(e.now());
    if (times.size() < 4) e.schedule_after(10, tick);
  };
  e.schedule_at(0, tick);
  e.run_until_idle();
  EXPECT_EQ(times, (std::vector<pc::SimTime>{0, 10, 20, 30}));
}

TEST(Engine, PastTimestampClampsToNow) {
  pc::Engine e;
  pc::SimTime seen = 1234;
  e.schedule_at(100, [&] {
    e.schedule_at(5, [&] { seen = e.now(); });  // 5 < now()=100
  });
  e.run_until_idle();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, RunWhilePendingStopsOnPredicate) {
  pc::Engine e;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(static_cast<pc::SimTime>(i), [&] { ++fired; });
  }
  const std::size_t n = e.run_while_pending([&] { return fired >= 4; });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_TRUE(e.pending());
  EXPECT_EQ(e.pending_count(), 6u);
}

TEST(Engine, RunWhilePendingStopsOnExhaustion) {
  pc::Engine e;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(static_cast<pc::SimTime>(i), [&] { ++fired; });
  }
  // Predicate never satisfied: the loop must exit on queue exhaustion.
  const std::size_t n = e.run_while_pending([] { return false; });
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_FALSE(e.pending());
}

TEST(Engine, DeterministicTraceAcrossRuns) {
  auto run = [] {
    pc::Engine e;
    std::vector<std::pair<pc::SimTime, int>> trace;
    for (int i = 0; i < 32; ++i) {
      // Deliberately colliding timestamps exercise the FIFO tiebreak.
      e.schedule_at(static_cast<pc::SimTime>((i * 7) % 5),
                    [&trace, &e, i] { trace.emplace_back(e.now(), i); });
    }
    e.run_until_idle();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(Engine, QueueGaugesTrackShape) {
  pc::QueueConfig cfg;
  cfg.ring_ticks = 1024;
  pc::Engine e(cfg);
  e.schedule_at(10, [] {});         // fine ring
  e.schedule_at(10, [] {});         // same bucket
  e.schedule_at(50'000, [] {});     // beyond the fine ring: coarse wheel
  e.schedule_at(1'000'000, [] {});  // beyond the wheel: overflow heap

  EXPECT_EQ(e.pending_count(), 4u);
  EXPECT_EQ(e.obs().gauge("engine.pending").value(), 4);
  e.publish_queue_gauges();
  EXPECT_EQ(e.obs().gauge("engine.ring").value(), 3);  // fine + coarse
  EXPECT_EQ(e.obs().gauge("engine.overflow").value(), 1);
  EXPECT_EQ(e.obs().gauge("engine.buckets").value(), 1);  // fine only

  e.run_until_idle();
  e.publish_queue_gauges();
  EXPECT_EQ(e.obs().gauge("engine.ring").value(), 0);
  EXPECT_EQ(e.obs().gauge("engine.overflow").value(), 0);
  EXPECT_EQ(e.obs().gauge("engine.buckets").value(), 0);
}

TEST(Engine, ConstructionFootprintIsBounded) {
  // Small grids are built by the dozen (Table 1 rows, the Fig. 3
  // sweep): an engine, queue levels included, must stay small to build.
  const std::size_t before = g_new_bytes;
  {
    pc::Engine e;
    EXPECT_EQ(e.queue().ring_ticks(), pc::QueueConfig{}.ring_ticks);
  }
  EXPECT_LE(g_new_bytes - before, std::size_t{160} * 1024);
}

TEST(Engine, LargeClosuresTakeTheHeapFallback) {
  // InplaceFn inlines up to 48 bytes; anything bigger must still work
  // (one heap allocation, like std::function's big-capture path).
  pc::Engine e;
  std::array<std::uint64_t, 16> big{};  // 128 bytes of capture
  big[0] = 7;
  big[15] = 9;
  std::uint64_t sum = 0;
  e.schedule_at(1, [big, &sum] { sum = big[0] + big[15]; });
  e.run_until_idle();
  EXPECT_EQ(sum, 16u);
}

TEST(Engine, LvalueCallablesAreCopiedIn) {
  pc::Engine e;
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  e.schedule_at(1, fn);  // copy
  e.schedule_at(2, fn);  // copy again; fn stays usable
  e.run_until_idle();
  fn();
  EXPECT_EQ(hits, 3);
}
