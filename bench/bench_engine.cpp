// Engine fast-path microbench: ns/event (and cycles/event) for the
// calendar-queue Engine against a bench-local std::map event loop (the
// seed engine's queue, same shape as MapOracle in
// tests/test_event_queue.cpp), in ONE process so the ratio is
// machine-portable and can be CI-gated.
//
// Legs:
//
//   dispatch — steady-state schedule+dispatch churn: a fixed population
//              of self-rescheduling actors keeps the queue at constant
//              depth while a round budget of events drains.  This is
//              the headline: `dispatch.speedup_vs_map` must stay >= 2.
//   burst    — same-instant batches: B events at one future tick,
//              drained off the queue's cached-bucket fast path.
//   mid      — offsets of 50 us to 8 ms (LAN to WAN hops), past the fine
//              ring, so each event takes the coarse wheel and a cascade.
//   far      — every offset beyond the coarse span, so each event takes
//              the overflow-heap path (the queue's worst case).
//   scenario — the 10k-node generated workload end to end, wall
//              events/sec.  Virtual-time events/vsec is deterministic
//              and band-gated; the wall figure is recorded as an info
//              metric (machine-dependent by nature).
//
// Cycle counts come from rdtsc (per SNIPPETS.md exemplar 2) with a
// steady_clock fallback on non-x86; ns come from steady_clock.  Only
// in-process ratios and virtual-time rates are gated in
// bench/baselines/BENCH_engine.json — see tools/check_bench_json.py
// gate modes.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace {

namespace pc = padico::core;
namespace sc = padico::scenario;

// --------------------------------------------------------------------------
// Cycle counter (SNIPPETS.md exemplar 2: raw rdtsc, no serialization —
// we time batches of >=100k events, so pipeline skew is noise)
// --------------------------------------------------------------------------

inline std::uint64_t read_tsc() {
#if defined(__x86_64__)
  std::uint32_t hi, lo;
  __asm__ __volatile__("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#elif defined(__i386__)
  std::uint64_t x;
  __asm__ volatile(".byte 0x0f, 0x31" : "=A"(x));
  return x;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

// --------------------------------------------------------------------------
// The rival: the seed engine's std::map<(t, seq), std::function> queue.
// One RB-tree node per event AND one closure allocation per event (the
// shared_ptr restores the std::function heap hit the seed paid, which
// the 48-byte inline EventFn would otherwise hide).
// --------------------------------------------------------------------------

class MapEngine {
 public:
  pc::SimTime now() const { return now_; }
  std::uint64_t processed() const { return processed_; }

  void schedule_at(pc::SimTime t, pc::EventFn fn) {
    if (t < now_) t = now_;
    q_.emplace(std::pair{t, seq_++},
               [p = std::make_shared<pc::EventFn>(std::move(fn))] { (*p)(); });
  }
  void schedule_after(pc::Duration d, pc::EventFn fn) {
    schedule_at(now_ + d, std::move(fn));
  }

  void run_until_idle() {
    while (!q_.empty()) {
      auto node = q_.extract(q_.begin());
      now_ = node.key().first;
      ++processed_;
      node.mapped()();
    }
  }

 private:
  std::map<std::pair<pc::SimTime, std::uint64_t>, std::function<void()>> q_;
  pc::SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
};

struct Timed {
  double ns_per_event = 0;
  double cycles_per_event = 0;
};

/// Run `body`, which dispatches events on `eng`; charge wall ns and
/// tsc cycles to the events it processed.
template <typename EngineT, typename Body>
Timed timed_events(EngineT& eng, Body&& body) {
  const std::uint64_t ev0 = eng.processed();
  const std::uint64_t c0 = read_tsc();
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t c1 = read_tsc();
  const double events = static_cast<double>(eng.processed() - ev0);
  Timed out;
  if (events == 0) return out;
  out.ns_per_event =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / events;
  out.cycles_per_event = static_cast<double>(c1 - c0) / events;
  return out;
}

// --------------------------------------------------------------------------
// dispatch leg: self-rescheduling actors at constant queue depth
// --------------------------------------------------------------------------

template <typename EngineT>
struct Actor {
  EngineT* eng;
  pc::Rng* rng;
  std::uint64_t* left;
  pc::Duration min_offset;
  pc::Duration max_offset;

  void fire() {
    if (*left == 0) return;
    --*left;
    // Offsets stay inside [min_offset, max_offset] so the leg picks
    // which queue level (fine ring, coarse wheel, far heap) it
    // exercises.
    eng->schedule_after(
        min_offset + rng->uniform_int(0, max_offset - min_offset),
        [this] { fire(); });
  }
};

template <typename EngineT>
bench::Run churn_run(pc::Duration min_offset, pc::Duration max_offset,
                     int rounds, std::uint64_t events_per_round,
                     double* cycles_out) {
  EngineT eng;
  pc::Rng rng(0xbe7c'0de5'0000'0001ull);

  constexpr int kActors = 512;  // constant queue depth while draining
  std::vector<Actor<EngineT>> actors(kActors);
  std::uint64_t left = 0;
  for (auto& a : actors) {
    a = Actor<EngineT>{&eng, &rng, &left, min_offset, max_offset};
  }

  bench::Run run;
  run.warmup = 1;
  double cycles_acc = 0;
  for (int r = 0; r < rounds + run.warmup; ++r) {
    left = events_per_round;
    for (auto& a : actors) a.fire();  // seed the population
    const Timed t = timed_events(eng, [&] { eng.run_until_idle(); });
    if (r < run.warmup) continue;
    run.samples.push_back(t.ns_per_event);
    cycles_acc += t.cycles_per_event;
  }
  double sum = 0;
  for (double s : run.samples) sum += s;
  run.value = sum / static_cast<double>(run.samples.size());
  if (cycles_out) *cycles_out = cycles_acc / rounds;
  return run;
}

// --------------------------------------------------------------------------
// burst leg: B events at one instant, drained as a batch
// --------------------------------------------------------------------------

template <typename EngineT>
bench::Run burst_run(int rounds) {
  EngineT eng;
  constexpr int kBurst = 4096;
  volatile std::uint64_t sink = 0;

  bench::Run run;
  run.warmup = 1;
  for (int r = 0; r < rounds + run.warmup; ++r) {
    for (int i = 0; i < kBurst; ++i) {
      eng.schedule_after(1000, [&sink] { sink = sink + 1; });
    }
    const Timed t = timed_events(eng, [&] { eng.run_until_idle(); });
    if (r < run.warmup) continue;
    run.samples.push_back(t.ns_per_event);
  }
  double sum = 0;
  for (double s : run.samples) sum += s;
  run.value = sum / static_cast<double>(run.samples.size());
  return run;
}

// --------------------------------------------------------------------------
// scenario leg: the 10k-node generated workload, end to end
// --------------------------------------------------------------------------

struct ScenarioFigures {
  double events_per_wall_sec = 0;
  double events_per_vsec = 0;
  std::string digest;
};

ScenarioFigures scenario_run() {
  // 10k nodes (100 clusters x 100); 100k sessions keeps the leg a few
  // seconds — bench_scenario owns the full 1M-session scale.
  sc::ScenarioSpec spec = sc::small_world(100, 100, 100'000, 5'000'000.0, 2026);
  sc::Scenario s(spec);
  const auto t0 = std::chrono::steady_clock::now();
  const sc::Report r = s.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ScenarioFigures fig;
  fig.events_per_wall_sec =
      static_cast<double>(s.grid().engine().processed()) / wall;
  fig.events_per_vsec = r.events_per_vsec;
  fig.digest = r.digest;
  return fig;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "engine");
  std::printf("# Engine fast path: calendar queue vs a std::map event loop "
              "(one process, ratios are machine-portable)\n");

  constexpr int kRounds = 9;
  constexpr std::uint64_t kEventsPerRound = 200'000;
  // Offsets within the default fine ring exercise the O(1) buckets.
  const pc::Duration near = pc::QueueConfig{}.ring_ticks / 2;

  double cal_cycles = 0, map_cycles = 0;
  const bench::Run cal = churn_run<pc::Engine>(1, near, kRounds,
                                               kEventsPerRound, &cal_cycles);
  const bench::Run map = churn_run<MapEngine>(1, near, kRounds,
                                              kEventsPerRound, &map_cycles);
  const double speedup = map.value / cal.value;
  std::printf("dispatch  calendar %7.1f ns/ev (%6.0f cyc)   map %7.1f ns/ev "
              "(%6.0f cyc)   speedup %.2fx\n",
              cal.value, cal_cycles, map.value, map_cycles, speedup);
  session.metric("dispatch.calendar_ns_per_event", "ns", cal);
  session.metric("dispatch.map_ns_per_event", "ns", map);
  session.metric("dispatch.calendar_cycles_per_event", "cyc", cal_cycles);
  session.metric("dispatch.speedup_vs_map", "x", speedup);

  const bench::Run bcal = burst_run<pc::Engine>(kRounds);
  const bench::Run bmap = burst_run<MapEngine>(kRounds);
  const double bspeed = bmap.value / bcal.value;
  std::printf("burst     calendar %7.1f ns/ev                map %7.1f "
              "ns/ev                speedup %.2fx\n",
              bcal.value, bmap.value, bspeed);
  session.metric("burst.calendar_ns_per_event", "ns", bcal);
  session.metric("burst.speedup_vs_map", "x", bspeed);

  // Mid offsets: LAN to WAN hops, all coarse-wheel path at the default
  // geometry (fine ring 8 us, coarse span ~16.8 ms).
  const bench::Run mid =
      churn_run<pc::Engine>(pc::microseconds(50), pc::milliseconds(8),
                            kRounds, kEventsPerRound, nullptr);
  std::printf("mid-wheel calendar %7.1f ns/ev (coarse path)\n", mid.value);
  session.metric("mid.calendar_ns_per_event", "ns", mid);

  // Far-future offsets: 2x to 4x the coarse span (ring_ticks^2 / 4
  // ticks), all heap-path.
  const pc::Duration span = pc::Duration{pc::QueueConfig{}.ring_ticks} *
                            pc::QueueConfig{}.ring_ticks / 4;
  const bench::Run far = churn_run<pc::Engine>(2 * span, 4 * span, kRounds,
                                               kEventsPerRound, nullptr);
  std::printf("far-heap  calendar %7.1f ns/ev (overflow path)\n", far.value);
  session.metric("far.calendar_ns_per_event", "ns", far);

  const ScenarioFigures sf = scenario_run();
  std::printf("scenario  10k nodes: %0.3g ev/wall-s, %0.3g ev/vs, digest %s\n",
              sf.events_per_wall_sec, sf.events_per_vsec, sf.digest.c_str());
  session.metric("scenario10k.events_per_vsec", "ev/s", sf.events_per_vsec);
  session.metric("scenario10k.events_per_wall_sec", "ev/s",
                 sf.events_per_wall_sec);

  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: dispatch speedup vs map reference %.2fx < 2x\n",
                 speedup);
    return 1;
  }
  return 0;
}
