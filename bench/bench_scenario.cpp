// Scenario engine throughput: how many generated client sessions the
// virtual grid sustains, at two scales.
//
//   small — 256 nodes (8 clusters x 32), 20k bursty sessions;
//   large — 10,000 nodes (100 clusters x 100), 1M Poisson sessions.
//
// The large scale runs TWICE and the bench fails (exit 1) if the two
// digests differ: the CI bench job doubles as the large-topology
// replay gate.  Only virtual-time rates (events/s, bytes/s,
// sessions/s of SIMULATED time) land in BENCH_scenario.json — they are
// deterministic, so the baseline check can be tight.  Wall-clock cost,
// the process's peak RSS and the engine's pushes per queue level after
// the large leg go to stdout for humans.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "core/event_queue.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace {

namespace sc = padico::scenario;

sc::ScenarioSpec small_scale() {
  sc::ScenarioSpec spec =
      sc::small_world(8, 32, 20'000, 2'000'000.0, 2026);
  spec.workload.burst_depth = 0.5;
  spec.workload.burst_period = padico::core::milliseconds(1);
  return spec;
}

sc::ScenarioSpec large_scale() {
  return sc::small_world(100, 100, 1'000'000, 5'000'000.0, 2026);
}

struct TimedReport {
  sc::Report report;
  /// Wall-clock throughput — machine-dependent, recorded as an
  /// info/min-gated metric (see BENCH_scenario.json) rather than a
  /// band-gated one.
  double events_per_wall_sec = 0;
  /// Pushes per queue level (stdout only, like the wall figures).
  padico::core::EventQueue::LevelPushes pushes;
};

TimedReport timed_run(const char* label, const sc::ScenarioSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  sc::Scenario s(spec);
  const sc::Report r = s.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "%-8s %5zu nodes %9llu sessions  closed %llu  failed %llu  "
      "%10.3g ev/vs  %10.3g B/vs  %10.3g sess/vs  digest %s  "
      "[wall %.1f s]\n",
      label, s.grid().size(),
      static_cast<unsigned long long>(r.opened),
      static_cast<unsigned long long>(r.closed),
      static_cast<unsigned long long>(r.failed), r.events_per_vsec,
      r.bytes_per_vsec, r.sessions_per_vsec, r.digest.c_str(), wall);
  return TimedReport{
      r, static_cast<double>(s.grid().engine().processed()) / wall,
      s.grid().engine().queue().pushes()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv, "scenario");
  std::printf("# Scenario engine: generated sessions over the virtual "
              "grid (rates are per second of VIRTUAL time)\n");

  const TimedReport small = timed_run("small", small_scale());
  session.metric("small.events_per_vsec", "ev/s",
                 small.report.events_per_vsec);
  session.metric("small.bytes_per_vsec", "B/s", small.report.bytes_per_vsec);
  session.metric("small.sessions_per_vsec", "1/s",
                 small.report.sessions_per_vsec);

  const TimedReport large = timed_run("large", large_scale());
  session.metric("large.events_per_vsec", "ev/s",
                 large.report.events_per_vsec);
  session.metric("large.bytes_per_vsec", "B/s", large.report.bytes_per_vsec);
  session.metric("large.sessions_per_vsec", "1/s",
                 large.report.sessions_per_vsec);
  // High-water mark of the whole process so far: the large leg's peak
  // (ru_maxrss is in KiB on Linux; MB here means MiB, as in perfbench).
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("# peak RSS: %.1f MB\n",
              static_cast<double>(usage.ru_maxrss) / 1024.0);
  std::printf("# queue levels: fine %llu coarse %llu heap %llu pushes\n",
              static_cast<unsigned long long>(large.pushes.fine),
              static_cast<unsigned long long>(large.pushes.coarse),
              static_cast<unsigned long long>(large.pushes.heap));

  const TimedReport replay = timed_run("replay", large_scale());
  if (replay.report.digest != large.report.digest) {
    std::fprintf(stderr,
                 "FAIL: large-scale digest not replayable (%s vs %s)\n",
                 large.report.digest.c_str(), replay.report.digest.c_str());
    return 1;
  }
  std::printf("# large-scale digest replayed bit-identically (%s)\n",
              large.report.digest.c_str());

  // Wall-clock throughput at the 10k-node / 1M-session scale: the best
  // of the two identical large runs.  The baseline min-gates this at
  // 1.5x the recorded pre-calendar-queue rate (see the baseline's
  // "notes"), so the engine overhaul's speedup can't silently erode.
  const double wall_rate =
      std::max(large.events_per_wall_sec, replay.events_per_wall_sec);
  std::printf("# large-scale wall throughput: %.4g events/wall-second\n",
              wall_rate);
  session.metric("large.events_per_wall_sec", "ev/s", wall_rate);
  return 0;
}
