// The three scenario workloads: session_storm, san_bulk, churn_mix.
//
// Each repetition builds a fresh Scenario from the same spec (timed as
// set-up) and runs it to completion (timed as the run phase).  Every
// repetition of one (workload, seed) must replay the same digest; in
// the traced run, repetitions alternate untraced and traced, and the
// traced ones route every method-less connect through TimedPolicy.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "selector/selector.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sc = padico::scenario;
namespace sn = padico::simnet;
namespace pc = padico::core;

// The ROADMAP north-star grid: 100 clusters x 100 nodes on
// ethernet-100 under the vthd WAN; one round trip of 64 B up and
// 256 B down per session, Poisson at 5M/s over Zipf-0.99 keys.
constexpr std::uint64_t kStormSessions = 50'000;

// Two Myrinet clusters; uniform keys over the 8 servers put half the
// sessions on the SAN and half across the WAN.  The low arrival rate
// keeps in-flight replies bounded, so peak RSS measures buffers, not
// backlog.
constexpr std::uint64_t kSanSessions = 400;
constexpr std::uint32_t kSanRoundTrips = 20;

// About 1k nodes, SOAP flavor, bounded-Pareto arrivals, 3 round trips
// per session, four events of each churn kind spread over the arrival
// window (mean Pareto gap about 2.9 us, so 25k sessions arrive within
// about 75 ms of virtual time).
constexpr std::uint64_t kChurnSessions = 25'000;
constexpr pc::Duration kChurnWindow = pc::milliseconds(75);
constexpr int kChurnPerKind = 4;

sc::ScenarioSpec session_storm(std::uint64_t seed) {
  sc::ScenarioSpec s = sc::small_world(100, 100, kStormSessions, 5e6, seed);
  s.name = "session_storm";
  return s;
}

sc::ScenarioSpec san_bulk(std::uint64_t seed) {
  sc::ScenarioSpec s;
  s.name = "san_bulk";
  s.seed = seed;
  s.clusters.assign(2, sc::ClusterSpec{16, 4, sn::profiles::myrinet2000()});
  sc::WorkloadSpec& w = s.workload;
  w.sessions = kSanSessions;
  w.rate_per_sec = 50;
  w.flavor = sc::Flavor::jsock;
  w.requests_per_session = kSanRoundTrips;
  w.request_bytes = 512;
  w.reply_bytes = 64 * 1024;
  w.key_skew = 0;
  return s;
}

sc::ScenarioSpec churn_mix(std::uint64_t seed) {
  sc::ScenarioSpec s = sc::small_world(20, 50, kChurnSessions, 1e5, seed);
  s.name = "churn_mix";
  sc::WorkloadSpec& w = s.workload;
  w.arrival = sc::Arrival::pareto;
  w.pareto_alpha = 1.5;
  w.gap_min = pc::microseconds(1);
  w.gap_max = pc::milliseconds(1);
  w.flavor = sc::Flavor::soap;
  w.requests_per_session = 3;
  const int total = 5 * kChurnPerKind;
  for (int i = 0; i < total; ++i) {
    sc::ChurnEvent e;
    e.kind = static_cast<sc::ChurnKind>(i % 5);
    e.at = kChurnWindow * static_cast<pc::Duration>(i + 1) /
           static_cast<pc::Duration>(total + 1);
    e.cluster = static_cast<std::uint32_t>((7 * i) % 20);
    e.duration = pc::milliseconds(2);
    e.magnitude = e.kind == sc::ChurnKind::loss_burst ? 0.2 : 0.3;
    s.churn.push_back(e);
  }
  return s;
}

sc::ScenarioSpec spec_for(const std::string& workload, std::uint64_t seed) {
  if (workload == "session_storm") return session_storm(seed);
  if (workload == "san_bulk") return san_bulk(seed);
  if (workload == "churn_mix") return churn_mix(seed);
  throw std::invalid_argument("not a scenario workload: " + workload);
}

/// Forwards to the node's own chooser and times each decision.
class TimedPolicy final : public padico::vlink::SelectionPolicy {
 public:
  TimedPolicy(padico::selector::Chooser& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  padico::vlink::Driver* select(pc::NodeId dst, pc::Error* error) override {
    ScopedSpan span(log_, "selector.select");
    return inner_->select(dst, error);
  }
  void on_drivers_changed() override { inner_->on_drivers_changed(); }

 private:
  padico::selector::Chooser* inner_;
  SpanLog* log_;
};

struct Rep {
  sc::Report report;
  double setup_s = 0;
  double run_s = 0;
  double ops = 0;
  double attempted = 0;
  LayerCounts counts;
  std::size_t nodes = 0;
};

/// Completed ops of one run: round trips of closed sessions on
/// san_bulk (a failed session counts all of its round trips failed),
/// closed sessions elsewhere.
double ops_of(const sc::ScenarioSpec& spec, const sc::Report& r) {
  if (spec.name == "san_bulk") {
    return static_cast<double>(r.closed * spec.workload.requests_per_session);
  }
  return static_cast<double>(r.closed);
}

double attempted_of(const sc::ScenarioSpec& spec, const sc::Report& r) {
  if (spec.name == "san_bulk") {
    return static_cast<double>(r.opened * spec.workload.requests_per_session);
  }
  return static_cast<double>(r.opened);
}

Rep run_rep(const sc::ScenarioSpec& spec, SpanLog* log) {
  Rep rep;
  // Declared before the scenario so the grid's vlinks never hold a
  // dangling policy pointer while they are torn down.
  std::vector<std::unique_ptr<TimedPolicy>> policies;
  std::unique_ptr<sc::Scenario> s;
  {
    ScopedSpan whole(log, "rep");
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(log, "scenario.ctor");
      s = std::make_unique<sc::Scenario>(spec);
    }
    const std::int64_t t1 = now_ns();
    if (log != nullptr) {
      padico::grid::Grid& grid = s->grid();
      for (std::size_t n = 0; n < grid.size(); ++n) {
        policies.push_back(
            std::make_unique<TimedPolicy>(grid.node(n).chooser(), *log));
        grid.node(n).vlink().set_policy(policies.back().get());
      }
    }
    const std::int64_t t2 = now_ns();
    {
      ScopedSpan span(log, "scenario.run");
      rep.report = s->run();
    }
    const std::int64_t t3 = now_ns();
    rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    rep.run_s = static_cast<double>(t3 - t2) * 1e-9;
  }
  rep.ops = ops_of(spec, rep.report);
  rep.attempted = attempted_of(spec, rep.report);
  rep.counts.add(s->grid());
  rep.nodes = s->grid().size();
  return rep;
}

}  // namespace

bool is_scenario_workload(const std::string& name) {
  return name == "session_storm" || name == "san_bulk" || name == "churn_mix";
}

void run_scenario_workload(const Options& opt, Result& out) {
  const sc::ScenarioSpec spec = spec_for(opt.workload, opt.seed);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);

  // Set-up: build the topology repeatedly and take the median of the
  // builds made here and in a burst before every repetition (about 5%
  // of the repetition's wall time).  The first build also gives the
  // resident memory the topology costs.
  std::vector<double> setup;
  double rss_per_node_kb = 0;
  const auto build = [&]() -> std::int64_t {
    const std::uint64_t rss0 = rss_now_kb();
    const std::int64_t t0 = now_ns();
    auto s = std::make_unique<sc::Scenario>(spec);
    const std::int64_t t1 = now_ns();
    if (setup.empty()) {
      const std::uint64_t rss1 = rss_now_kb();
      rss_per_node_kb = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
                        static_cast<double>(s->grid().size());
    }
    return t1 - t0;
  };
  sample_setup(setup, 7, 250'000'000, build);

  // Run phase.  A warm-up repetition comes first (checked, not
  // timed): the first run in a process pays page faults later ones do
  // not.  The traced run then interleaves untraced and traced
  // repetitions in ABBA order, so drift in machine speed hits both.
  SpanLog log;
  TotalsByName totals;  // traced repetitions whose spans were folded
  std::vector<double> rates, traced_rates;
  std::vector<Rep> reps;
  Rep last_traced;
  // Every opened session is an attempted op.  A session the model
  // fails on purpose (its client left, its network flapped or lost the
  // reply) is a correct outcome, pinned by the digest replay below and
  // reported as failed_frac; an op counts failed only when a check of
  // the run fails (then all of them do, in run()).
  const auto account = [&](const Rep& rep) {
    out.attempted += static_cast<std::uint64_t>(rep.attempted);
  };
  reps.push_back(run_rep(spec, nullptr));
  account(reps.back());
  const std::size_t min_reps = opt.trace ? 4 : 3;
  std::vector<double> rep_setup;
  for (std::size_t n = 0; n < min_reps || now_ns() < deadline; ++n) {
    const Rep& prev = reps.back();
    sample_setup(setup, 1,
                 static_cast<std::int64_t>((prev.setup_s + prev.run_s) * 5e7),
                 build);
    const bool traced = opt.trace && (n % 4 == 1 || n % 4 == 2);
    if (traced) log.fold_into(totals);
    Rep rep = run_rep(spec, traced ? &log : nullptr);
    (traced ? traced_rates : rates).push_back(rep.ops / rep.run_s);
    rep_setup.push_back(rep.setup_s);
    account(rep);
    if (traced) last_traced = rep;
    reps.push_back(std::move(rep));
  }

  // Correctness: accounting, replay, and traced == untraced.
  const sc::Report& first = reps.front().report;
  bool accounting = true, replay = true, opened_all = true;
  for (const Rep& rep : reps) {
    const sc::Report& r = rep.report;
    accounting = accounting && r.opened == r.closed + r.failed;
    opened_all = opened_all && r.opened == spec.workload.sessions;
    replay = replay && r.digest == first.digest && r.events == first.events;
  }
  char detail[160];
  std::snprintf(detail, sizeof detail, "opened %llu closed %llu failed %llu",
                static_cast<unsigned long long>(first.opened),
                static_cast<unsigned long long>(first.closed),
                static_cast<unsigned long long>(first.failed));
  out.check("opened == closed + failed", accounting, detail);
  out.check("every arrival opened a session", opened_all, detail);
  out.check(opt.trace ? "digest replays, traced == untraced"
                      : "digest replays across repetitions",
            replay, first.digest);
  out.check("some sessions closed", first.closed > 0, detail);
  out.digests[opt.workload + "/" + std::to_string(opt.seed)] = first.digest;

  out.setup_s = median(setup);
  out.ops_per_s = median(rates);

  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu nodes, %zu repetitions (1 warm-up), %llu events "
                "each, digest %s, failed_frac %.6f",
                opt.workload.c_str(), reps.front().nodes, reps.size(),
                static_cast<unsigned long long>(first.events),
                first.digest.c_str(),
                first.opened > 0 ? static_cast<double>(first.failed) /
                                       static_cast<double>(first.opened)
                                 : 0.0);
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "setup_s: median %.6g over %zu builds; %.6g over the %zu "
                "repetitions' own builds (not in setup_s)",
                out.setup_s, setup.size(), median(rep_setup), rep_setup.size());
  out.notes.push_back(line);
  std::string per_rep = "ops_per_s by repetition:";
  for (double r : rates) per_rep += " " + std::to_string(static_cast<long long>(r));
  out.notes.push_back(per_rep);

  LayerFigures& lf = out.layers;
  lf.rss_per_node_kb = rss_per_node_kb;
  lf.churn_applied = static_cast<double>(first.churn_applied);
  lf.failed_frac = first.opened > 0 ? static_cast<double>(first.failed) /
                                          static_cast<double>(first.opened)
                                    : 0.0;
  if (!opt.trace) return;

  lf.counts = last_traced.counts;
  lf.ops = last_traced.ops;
  lf.run_ns = last_traced.run_s * 1e9;
  if (!opt.spans_path.empty() && !log.write_jsonl(opt.spans_path)) {
    out.check("spans written", false, opt.spans_path);
  }
  log.fold_into(totals);
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it != totals.end() ? it->second : SpanTotals{};
  };
  const std::size_t traced_reps = traced_rates.size();
  const SpanTotals sel = get("selector.select");
  lf.select_calls = static_cast<double>(sel.calls) / static_cast<double>(traced_reps);
  lf.select_ns = sel.calls > 0 ? static_cast<double>(sel.self_ns) /
                                     static_cast<double>(sel.calls)
                               : 0.0;
  // Only the scenario constructor and the selector are reachable from
  // outside Scenario::run(); the rest of run() stays unattributed.
  const SpanTotals whole = get("rep");
  lf.coverage = whole.total_ns > 0
                    ? static_cast<double>(get("scenario.ctor").total_ns +
                                          sel.self_ns) /
                          static_cast<double>(whole.total_ns)
                    : 0.0;
  const double untraced = median(rates);
  const double traced = median(traced_rates);
  lf.overhead_pct = (untraced / traced - 1.0) * 100.0;
}

}  // namespace perfbench
