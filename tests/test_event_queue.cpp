// EventQueue ordering invariants: the calendar queue must dispatch in
// exactly the old `std::map<(t, seq), fn>` order — strictly
// non-decreasing time, FIFO within an instant, past timestamps clamped
// to now — under every configuration (default geometry, 1-bucket
// degenerate, tiny rings whose coarse wheels span a few hundred ns).
//
// The oracle is a miniature map-engine reimplemented here from the
// seed's semantics (not from the code under test), driven by the same
// seeded generator.  Plus a recorded-digest constant: the 1k-node
// scenario must reproduce the digest recorded before the queue swap.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace pc = padico::core;
namespace sc = padico::scenario;

namespace {

// ---------------------------------------------------------------------------
// Oracle: the seed engine's queue semantics in ~20 lines
// ---------------------------------------------------------------------------

class MapOracle {
 public:
  pc::SimTime now() const { return now_; }

  void schedule_at(pc::SimTime t, std::function<void()> fn) {
    if (t < now_) t = now_;  // past clamps to now
    q_.emplace(std::pair{t, seq_++}, std::move(fn));
  }

  void run_until_idle() {
    while (!q_.empty()) {
      auto node = q_.extract(q_.begin());
      now_ = node.key().first;
      node.mapped()();
    }
  }

 private:
  std::map<std::pair<pc::SimTime, std::uint64_t>, std::function<void()>> q_;
  pc::SimTime now_ = 0;
  std::uint64_t seq_ = 0;
};

// ---------------------------------------------------------------------------
// Generator: a random schedule-churn program, identical per seed
// ---------------------------------------------------------------------------

/// Drive `eng` through `total` events: every dispatched event records
/// its id and schedules 1–2 children at random offsets — the same
/// instant, near future (fine ring), mid future (10 us–16 ms: the
/// coarse wheel at the default geometry), far future (past the default
/// coarse span: the heap), and the PAST (negative offsets, which must
/// clamp).  All decisions come off
/// one seeded Rng, so two engines with identical dispatch order see
/// identical programs; any ordering divergence derails the comparison
/// visibly.
template <typename EngineT>
std::vector<std::uint32_t> run_program(EngineT& eng, std::uint32_t total,
                                       std::uint64_t seed) {
  std::vector<std::uint32_t> order;
  order.reserve(total);
  pc::Rng rng(seed);
  std::uint32_t next_id = 0;
  std::uint32_t budget = total;

  std::function<void(std::uint32_t)> fire = [&](std::uint32_t id) {
    order.push_back(id);
    // 1–2 children keeps the branching process supercritical, so the
    // whole budget is consumed instead of the population dying out.
    const int children = 1 + static_cast<int>(rng.uniform_int(0, 1));
    for (int c = 0; c < children && budget > 0; ++c) {
      --budget;
      const std::uint64_t kind = rng.uniform_int(0, 4);
      const pc::SimTime now = eng.now();
      pc::SimTime t = now;
      switch (kind) {
        case 0:  // same instant (FIFO with everything queued at now)
          break;
        case 1:  // near future, inside the default fine ring
          t = now + 1 + rng.uniform_int(0, 4000);
          break;
        case 2:  // mid future: LAN to WAN hops, coarse-wheel work
          t = now + 10'000 + rng.uniform_int(0, 15'990'000);
          break;
        case 3:  // far future, beyond the default ~16.8 ms coarse span
          t = now + 20'000'000 + rng.uniform_int(0, 40'000'000);
          break;
        default:  // the past — must clamp to now
          t = now - std::min<pc::SimTime>(now, rng.uniform_int(1, 10'000));
          break;
      }
      const std::uint32_t id2 = next_id++;
      eng.schedule_at(t, [&fire, id2] { fire(id2); });
    }
  };

  // Seed the program with a spread of roots so every level is
  // populated before the first dispatch.
  for (int r = 0; r < 64 && budget > 0; ++r) {
    --budget;
    const std::uint32_t id = next_id++;
    eng.schedule_at(rng.uniform_int(0, 30'000'000),
                    [&fire, id] { fire(id); });
  }
  eng.run_until_idle();
  return order;
}

std::vector<std::uint32_t> run_config(const pc::QueueConfig& cfg,
                                      std::uint32_t total,
                                      std::uint64_t seed) {
  pc::Engine eng(cfg);
  return run_program(eng, total, seed);
}

}  // namespace

TEST(EventQueueOrdering, HundredThousandRandomEventsMatchMapSemantics) {
  constexpr std::uint32_t kTotal = 100'000;
  constexpr std::uint64_t kSeed = 0x0bd5'ca1e'0000'0001ull;

  MapOracle oracle;
  const std::vector<std::uint32_t> expect =
      run_program(oracle, kTotal, kSeed);
  ASSERT_EQ(expect.size(), kTotal);

  // Default geometry, then the degenerate everything-via-the-heap ring,
  // then rings whose coarse span (ring_ticks^2 / 4 ticks) is tiny, so
  // cascades and heap->wheel migrations run on almost every pop.
  for (const std::uint32_t ring : {pc::QueueConfig{}.ring_ticks, 1u, 2u, 4u,
                                   64u, 1024u}) {
    SCOPED_TRACE(ring);
    EXPECT_EQ(run_config(pc::QueueConfig{ring}, kTotal, kSeed), expect);
  }
}

TEST(EventQueueOrdering, OneTickFedFromAllThreeLevelsPopsInPushOrder) {
  // ring_ticks 64: coarse slots of 32 ticks, the fine ring covers slots
  // [A, A+2) and the wheel [A+2, A+34) for anchor slot A.
  pc::EventQueue q(pc::QueueConfig{64});
  constexpr pc::SimTime kTick = 156 * 32 + 7;
  std::vector<int> order;
  std::uint64_t seq = 0;
  pc::SimTime t = 0;
  pc::EventFn fn;

  q.push(kTick, seq++, [&order] { order.push_back(0); });  // heap
  q.push(130 * 32, seq++, [] {});
  ASSERT_TRUE(q.pop(t, fn));  // anchor -> 130: kTick's slot is coarse
  EXPECT_EQ(t, 130u * 32);
  q.push(kTick, seq++, [&order] { order.push_back(1); });  // coarse
  q.push(155 * 32, seq++, [] {});
  ASSERT_TRUE(q.pop(t, fn));  // anchor -> 155: cascades kTick's slot
  EXPECT_EQ(t, 155u * 32);
  q.push(kTick, seq++, [&order] { order.push_back(2); });  // fine

  EXPECT_EQ(q.pushes().heap, 2u);
  EXPECT_EQ(q.pushes().coarse, 2u);
  EXPECT_EQ(q.pushes().fine, 1u);
  while (q.pop(t, fn)) {
    EXPECT_EQ(t, kTick);
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueOrdering, QueueShapeAccountingStaysConsistent) {
  // ring_ticks 1024: slots of 512 ticks; fine [0, 1024), wheel up to
  // slot 514 (t < 263'168), heap beyond.
  pc::EventQueue q(pc::QueueConfig{1024});
  q.push(10, 0, [] {});
  q.push(5'000, 1, [] {});
  q.push(5'000, 2, [] {});
  q.push(300'000, 3, [] {});
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.ring_size(), 3u);  // fine + coarse
  EXPECT_EQ(q.overflow_size(), 1u);
  EXPECT_EQ(q.occupied_buckets(), 1u);
  EXPECT_EQ(q.pushes().fine, 1u);
  EXPECT_EQ(q.pushes().coarse, 2u);
  EXPECT_EQ(q.pushes().heap, 1u);

  pc::SimTime t = 0;
  pc::EventFn fn;
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 10u);
  // The fine ring drained: the anchor jumped to 5'000's slot and both
  // coarse entries cascaded into one fine bucket; 300'000 is still
  // beyond the wheel.
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 5'000u);
  EXPECT_EQ(q.ring_size(), 1u);
  EXPECT_EQ(q.overflow_size(), 1u);
  EXPECT_EQ(q.occupied_buckets(), 1u);
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 5'000u);
  EXPECT_EQ(q.ring_size(), 0u);
  EXPECT_EQ(q.occupied_buckets(), 0u);
  ASSERT_TRUE(q.pop(t, fn));
  EXPECT_EQ(t, 300'000u);
  EXPECT_FALSE(q.pop(t, fn));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.overflow_size(), 0u);
  EXPECT_EQ(q.occupied_buckets(), 0u);
  // Cascades and migrations are not pushes.
  EXPECT_EQ(q.pushes().fine + q.pushes().coarse + q.pushes().heap, 4u);
}

// ---------------------------------------------------------------------------
// Recorded digest: the queue swap may not move a single event
// ---------------------------------------------------------------------------

namespace {

/// 32x32 = 1024 nodes, 6k bursty sessions, all five churn kinds.  The
/// constants below were recorded on the std::map engine BEFORE the
/// calendar-queue refactor; every queue configuration must still
/// reproduce them exactly.
sc::ScenarioSpec thousand_node_spec() {
  sc::ScenarioSpec spec = sc::small_world(32, 32, 6'000, 2'000'000.0, 17);
  spec.workload.burst_depth = 0.5;
  spec.workload.burst_period = pc::milliseconds(1);
  spec.churn.push_back({sc::ChurnKind::node_join, pc::microseconds(500),
                        1, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::node_leave, pc::microseconds(900),
                        2, 0, 0.0});
  spec.churn.push_back({sc::ChurnKind::link_flap, pc::microseconds(1300),
                        3, pc::microseconds(400), 0.0});
  spec.churn.push_back({sc::ChurnKind::loss_burst, pc::microseconds(1700),
                        4, pc::microseconds(400), 0.5});
  spec.churn.push_back({sc::ChurnKind::wan_brownout, pc::microseconds(2100),
                        0, pc::milliseconds(1), 0.1});
  return spec;
}

constexpr char kRecordedDigest[] = "1cee436ecc42dee3";
constexpr std::uint64_t kRecordedEvents = 90'928;
constexpr std::uint64_t kRecordedDuration = 54'906'210;

sc::Report run_thousand(const pc::QueueConfig& cfg) {
  pc::ScopedQueueConfig scoped(cfg);
  sc::Scenario s(thousand_node_spec());
  return s.run();
}

}  // namespace

TEST(EventQueueDigest, ThousandNodeScenarioMatchesPreRefactorRecording) {
  const sc::Report r = run_thousand(pc::QueueConfig{});
  EXPECT_EQ(r.digest, kRecordedDigest);
  EXPECT_EQ(r.events, kRecordedEvents);
  EXPECT_EQ(r.duration, kRecordedDuration);
}

TEST(EventQueueDigest, DegenerateRingReproducesTheSameRecording) {
  pc::QueueConfig one_bucket;
  one_bucket.ring_ticks = 1;
  const sc::Report degenerate = run_thousand(one_bucket);
  EXPECT_EQ(degenerate.digest, kRecordedDigest);
  EXPECT_EQ(degenerate.events, kRecordedEvents);
  EXPECT_EQ(degenerate.duration, kRecordedDuration);
}

TEST(EventQueueLevels, SmallWorldWanTrafficNeverPushesToTheHeap) {
  // 8 ethernet clusters under the default VTHD WAN, at a session rate
  // the WAN carries without a backlog: every hop, the 8 ms WAN one plus
  // serialisation included, fits the default ~16.8 ms coarse span.  (A
  // WAN queue deeper than ~8.8 ms does reach the heap, by design.)
  sc::Scenario s(sc::small_world(8, 16, 4'000, 200'000.0, 7));
  const sc::Report r = s.run();
  EXPECT_EQ(r.opened, r.closed + r.failed);
  EXPECT_GT(s.grid().engine().obs().counter("net.vthd-wan.msgs").value(), 0u);
  const pc::EventQueue::LevelPushes& p = s.grid().engine().queue().pushes();
  EXPECT_GT(p.fine, 0u);
  EXPECT_GT(p.coarse, 0u);
  EXPECT_EQ(p.heap, 0u);
}
