// Shared benchmark scaffolding: the paper's testbed topology, plus
// per-middleware latency / bandwidth measurement drivers.
//
// All numbers are virtual-time (deterministic); see DESIGN.md "Timing
// model".  Each middleware driver genuinely pushes payloads through its
// full stack — the measured figures emerge from the framework code paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "grid/grid.hpp"
#include "madeleine/circuit.hpp"
#include "middleware/corba/orb.hpp"
#include "middleware/javasock/jsock.hpp"
#include "middleware/mpi/mpi.hpp"
#include "obs/obs.hpp"
#include "selector/selector.hpp"

namespace bench {

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;

/// The paper's platform: dual nodes with Myrinet-2000 + Ethernet-100.
inline void attach_testbed(gr::Grid& grid, int nodes = 2) {
  grid.add_nodes(nodes);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (int i = 0; i < nodes; ++i) {
    grid.attach(san, static_cast<pc::NodeId>(i));
    grid.attach(lan, static_cast<pc::NodeId>(i));
  }
}

/// Bytes per second -> MB/s with MB = 1e6 bytes (the paper's unit).
inline double mbps(std::uint64_t bytes, pc::Duration elapsed) {
  if (elapsed == 0) return 0;
  return static_cast<double>(bytes) / pc::to_seconds(elapsed) / 1e6;
}

/// How many messages of `size` to stream for a stable bandwidth figure.
inline int message_count(std::size_t size) {
  const std::uint64_t target = 16ull << 20;  // ~16 MB per point
  const std::uint64_t by_bytes = target / std::max<std::size_t>(size, 1);
  return static_cast<int>(std::clamp<std::uint64_t>(by_bytes, 8, 2000));
}

// ---------------------------------------------------------------------------
// Statistics: bootstrap-resampled confidence intervals
// ---------------------------------------------------------------------------

struct Stats {
  double mean = 0;
  double ci_lo = 0;  // 95% bootstrap CI on the mean
  double ci_hi = 0;
};

/// Mean + 95% percentile-bootstrap CI of `samples`.  The resampling
/// RNG is seeded, so the interval is bit-identical across runs — these
/// numbers land in checked-in BENCH_*.json baselines.
inline Stats bootstrap_stats(const std::vector<double>& samples,
                             int resamples = 1000,
                             std::uint64_t seed = 0xb007'57a9'0000'0001ull) {
  Stats st;
  if (samples.empty()) return st;
  double sum = 0;
  for (double s : samples) sum += s;
  st.mean = sum / static_cast<double>(samples.size());
  if (samples.size() == 1) {
    st.ci_lo = st.ci_hi = st.mean;
    return st;
  }
  pc::Rng rng(seed);
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    double acc = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      acc += samples[rng.uniform_int(0, samples.size() - 1)];
    }
    means.push_back(acc / static_cast<double>(samples.size()));
  }
  std::sort(means.begin(), means.end());
  const auto pct = [&](int per_mille) {
    std::size_t idx = (means.size() * static_cast<std::size_t>(per_mille)) /
                      1000;
    return means[std::min(idx, means.size() - 1)];
  };
  st.ci_lo = pct(25);   // 2.5th percentile
  st.ci_hi = pct(975);  // 97.5th percentile
  return st;
}

/// One measurement: the headline figure (identical to what the scalar
/// drivers return) plus the per-round / per-window samples behind it.
struct Run {
  double value = 0;
  std::vector<double> samples;
  int warmup = 0;  // unmeasured rounds before the first stamp

  int n() const noexcept { return static_cast<int>(samples.size()); }
  Stats stats() const { return bootstrap_stats(samples); }
};

/// Receive-side windows a bandwidth run is cut into for CI purposes.
inline constexpr int kBwWindows = 8;

/// Message index (1-based) ending window `w` of `windows` over `count`.
inline int window_edge(int count, int windows, int w) {
  return static_cast<int>((static_cast<std::int64_t>(count) * (w + 1)) /
                          windows);
}

// ---------------------------------------------------------------------------
// Observability session: --trace/--json flags, BENCH_*.json emission
// ---------------------------------------------------------------------------

/// Per-bench observability harness.  Construct first thing in main():
///
///   bench::Session session(argc, argv, "table1");
///   ...
///   session.metric("Circuit.latency", "us", lat_run);
///
/// Flags / environment (flags win):
///   --trace=FILE   or PADICO_TRACE=FILE        combined Chrome trace
///   --json=FILE    or PADICO_BENCH_JSON=DIR    BENCH_<name>.json
///
/// With tracing requested, every engine the bench creates starts with
/// all trace categories enabled (obs::set_default_trace_mask) and
/// flushes into one process-wide TraceSink when it dies; the registry
/// accumulator is always installed, so the JSON report embeds a
/// whole-run metrics snapshot.  Files are written in the destructor.
class Session {
 public:
  Session(int argc, char** argv, std::string bench_name)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace=", 0) == 0) {
        trace_file_ = arg.substr(8);
      } else if (arg.rfind("--json=", 0) == 0) {
        json_file_ = arg.substr(7);
      }
    }
    if (trace_file_.empty()) {
      if (const char* env = std::getenv("PADICO_TRACE")) trace_file_ = env;
    }
    if (json_file_.empty()) {
      if (const char* env = std::getenv("PADICO_BENCH_JSON")) {
        json_file_ = std::string(env) + "/BENCH_" + bench_ + ".json";
      }
    }
    if (!trace_file_.empty()) {
      padico::obs::set_default_trace_mask(padico::obs::kAllCats);
      padico::obs::set_global_trace_sink(&sink_);
    }
    padico::obs::set_global_registry(&registry_);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() {
    if (!json_file_.empty()) write_json();
    if (!trace_file_.empty()) {
      std::ofstream out(trace_file_);
      if (out) {
        out << sink_.chrome_json();
        std::printf("# trace: %s (%zu events)\n", trace_file_.c_str(),
                    sink_.size());
      } else {
        std::fprintf(stderr, "# trace: cannot write %s\n",
                     trace_file_.c_str());
      }
      padico::obs::set_default_trace_mask(0);
      padico::obs::set_global_trace_sink(nullptr);
    }
    padico::obs::set_global_registry(nullptr);
  }

  bool tracing() const noexcept { return !trace_file_.empty(); }

  /// Record one metric for the JSON report.  `run.value` becomes the
  /// baseline-compared mean; the CI comes from bootstrap over the
  /// run's samples.
  void metric(const std::string& name, const std::string& unit,
              const Run& run) {
    metrics_.push_back(Metric{name, unit, run.value, run.stats(), run.n(),
                              run.warmup});
  }

  /// Scalar convenience for figures without per-round samples.
  void metric(const std::string& name, const std::string& unit,
              double value) {
    Run run;
    run.value = value;
    metric(name, unit, run);
  }

 private:
  struct Metric {
    std::string name, unit;
    double value;
    Stats stats;
    int n, warmup;
  };

  static void append_escaped(std::string& out, const std::string& s) {
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
  }

  void write_json() const {
    std::string out;
    out += "{\n  \"schema\": 1,\n  \"bench\": \"";
    append_escaped(out, bench_);
    out += "\",\n  \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    \"";
      append_escaped(out, m.name);
      out += "\": {\"unit\": \"";
      append_escaped(out, m.unit);
      std::snprintf(buf, sizeof buf,
                    "\", \"mean\": %.6g, \"ci_lo\": %.6g, \"ci_hi\": %.6g, "
                    "\"n\": %d, \"warmup\": %d}",
                    m.value, m.stats.ci_lo, m.stats.ci_hi, m.n, m.warmup);
      out += buf;
    }
    out += "\n  },\n  \"registry\": \"";
    append_escaped(out, registry_.snapshot());
    out += "\"\n}\n";
    std::ofstream f(json_file_);
    if (f) {
      f << out;
      std::printf("# json: %s (%zu metrics)\n", json_file_.c_str(),
                  metrics_.size());
    } else {
      std::fprintf(stderr, "# json: cannot write %s\n", json_file_.c_str());
    }
  }

  std::string bench_;
  std::string trace_file_, json_file_;
  padico::obs::TraceSink sink_;
  padico::obs::Registry registry_;
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// MPI drivers
// ---------------------------------------------------------------------------

struct MpiPair {
  std::unique_ptr<gr::CircuitSet> set;
  std::unique_ptr<padico::mpi::Comm> c0, c1;
};

inline MpiPair make_mpi_pair(gr::Grid& grid, padico::net::Tag tag,
                             pc::Port port) {
  MpiPair p;
  p.set = std::make_unique<gr::CircuitSet>(
      grid.make_circuit("bench-mpi", padico::circuit::Group({0, 1}), tag, port));
  p.c0 = std::make_unique<padico::mpi::Comm>(p.set->at(0));
  p.c1 = std::make_unique<padico::mpi::Comm>(p.set->at(1));
  return p;
}

/// One-way latency from a ping-pong of `rounds` round trips, with
/// per-round samples (round-trip / 2, stamped between rounds).
inline Run mpi_latency_run(gr::Grid& grid, MpiPair& p, int rounds = 32,
                           int warmup = 0) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto rank0 = [&]() -> pc::Task {
    pc::Bytes ping(1, 0);
    for (int i = 0; i < warmup; ++i) {
      p.c0->isend(1, 0, pc::view_of(ping));
      co_await p.c0->recv(1, 0);
    }
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      p.c0->isend(1, 0, pc::view_of(ping));
      co_await p.c0->recv(1, 0);
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto rank1 = [&]() -> pc::Task {
    pc::Bytes pong(1, 0);
    for (int i = 0; i < warmup + rounds; ++i) {
      co_await p.c1->recv(0, 0);
      p.c1->isend(0, 0, pc::view_of(pong));
    }
  };
  auto ta = rank1();
  auto tb = rank0();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  run.warmup = warmup;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    run.samples.push_back(pc::to_micros(stamps[i] - stamps[i - 1]) / 2.0);
  }
  run.value = pc::to_micros(stamps.back() - stamps.front()) / (2.0 * rounds);
  return run;
}

inline double mpi_latency_us(gr::Grid& grid, MpiPair& p, int rounds = 32) {
  return mpi_latency_run(grid, p, rounds).value;
}

/// Streaming bandwidth at message size `size`, with per-window samples
/// (receive side cut into kBwWindows slices).
inline Run mpi_bandwidth_run(gr::Grid& grid, MpiPair& p, std::size_t size) {
  const int count = message_count(size);
  const int windows = std::min(kBwWindows, count);
  pc::SimTime t0 = 0;
  std::vector<pc::SimTime> marks;
  bool done = false;
  auto rank0 = [&]() -> pc::Task {
    pc::Bytes payload(size, 0x77);
    t0 = grid.engine().now();
    for (int i = 0; i < count; ++i) p.c0->isend(1, 1, pc::view_of(payload));
    co_return;
  };
  auto rank1 = [&]() -> pc::Task {
    int next_edge = 0;
    for (int i = 0; i < count; ++i) {
      co_await p.c1->recv(0, 1);
      if (i + 1 == window_edge(count, windows, next_edge)) {
        marks.push_back(grid.engine().now());
        ++next_edge;
      }
    }
    done = true;
  };
  auto ta = rank1();
  auto tb = rank0();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  pc::SimTime prev = t0;
  int prev_edge = 0;
  for (int w = 0; w < windows; ++w) {
    const int edge = window_edge(count, windows, w);
    run.samples.push_back(
        mbps(static_cast<std::uint64_t>(edge - prev_edge) * size,
             marks[static_cast<std::size_t>(w)] - prev));
    prev = marks[static_cast<std::size_t>(w)];
    prev_edge = edge;
  }
  run.value = mbps(static_cast<std::uint64_t>(size) * count,
                   marks.back() - t0);
  return run;
}

inline double mpi_bandwidth_mbps(gr::Grid& grid, MpiPair& p,
                                 std::size_t size) {
  return mpi_bandwidth_run(grid, p, size).value;
}

// ---------------------------------------------------------------------------
// ORB drivers
// ---------------------------------------------------------------------------

struct OrbPair {
  std::unique_ptr<padico::orb::Orb> server, client;
  padico::orb::ObjectRef sink;
};

inline OrbPair make_orb_pair(gr::Grid& grid, padico::orb::OrbProfile profile,
                             pc::Port port) {
  OrbPair p;
  p.server = std::make_unique<padico::orb::Orb>(
      grid.node(1).host(), grid.node(1).vlink(), profile, port);
  p.server->activate("sink",
                     [](const std::string&, std::vector<padico::orb::Any>) {
                       return std::vector<padico::orb::Any>{};
                     });
  p.server->start();
  p.client = std::make_unique<padico::orb::Orb>(
      grid.node(0).host(), grid.node(0).vlink(), profile, port + 1);
  p.sink = p.server->ref_of("sink");
  return p;
}

/// Ping-pong latency; `warmup` counts the unmeasured connection
/// warm-up invokes (at least 1 — the connect itself must not pollute
/// round 0).
inline Run orb_latency_run(gr::Grid& grid, OrbPair& p, int rounds = 32,
                           int warmup = 1) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto prog = [&]() -> pc::Task {
    // Calls with owning argument temporaries stay OUT of co_await
    // full-expressions (GCC 12 coroutine gotcha; see DESIGN.md
    // "Conventions").
    const std::string null_method = "null";
    for (int i = 0; i < std::max(warmup, 1); ++i) {
      pc::Completion<padico::orb::Reply> warm =
          p.client->invoke(p.sink, null_method, {});
      co_await warm;
    }
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      pc::Completion<padico::orb::Reply> call =
          p.client->invoke(p.sink, null_method, {});
      co_await call;
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  run.warmup = std::max(warmup, 1);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    run.samples.push_back(pc::to_micros(stamps[i] - stamps[i - 1]) / 2.0);
  }
  run.value = pc::to_micros(stamps.back() - stamps.front()) / (2.0 * rounds);
  return run;
}

inline Run orb_bandwidth_run(gr::Grid& grid, OrbPair& p, std::size_t size) {
  const int count = message_count(size);
  const int windows = std::min(kBwWindows, count);
  pc::SimTime t0 = 0;
  std::vector<pc::SimTime> marks;
  bool done = false;
  auto prog = [&]() -> pc::Task {
    const std::string null_method = "null";
    pc::Completion<padico::orb::Reply> warm =
        p.client->invoke(p.sink, null_method, {});
    co_await warm;  // connection warm-up
    t0 = grid.engine().now();
    pc::Bytes payload(size, 0x55);
    // Oneway-style streaming: requests pipeline freely (the marshaller
    // and the wire pace them); only window-boundary replies are
    // awaited, in order, after everything has been issued — replies
    // come back FIFO, so each await resumes at that reply's arrival.
    std::vector<pc::Completion<padico::orb::Reply>> edges;
    int next_edge = 0;
    for (int i = 0; i < count; ++i) {
      std::vector<padico::orb::Any> args;
      args.emplace_back(payload);
      pc::Completion<padico::orb::Reply> call =
          p.client->invoke(p.sink, "put", std::move(args));
      if (i + 1 == window_edge(count, windows, next_edge)) {
        edges.push_back(call);
        ++next_edge;
      }
    }
    for (std::size_t w = 0; w < edges.size(); ++w) {
      co_await edges[w];
      marks.push_back(grid.engine().now());
    }
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  pc::SimTime prev = t0;
  int prev_edge = 0;
  for (int w = 0; w < windows; ++w) {
    const int edge = window_edge(count, windows, w);
    run.samples.push_back(
        mbps(static_cast<std::uint64_t>(edge - prev_edge) * size,
             marks[static_cast<std::size_t>(w)] - prev));
    prev = marks[static_cast<std::size_t>(w)];
    prev_edge = edge;
  }
  run.value = mbps(static_cast<std::uint64_t>(size) * count,
                   marks.back() - t0);
  return run;
}

// ---------------------------------------------------------------------------
// Java socket drivers
// ---------------------------------------------------------------------------

struct JsockPair {
  std::shared_ptr<padico::jsock::JavaSocket> client, server;
};

inline JsockPair make_jsock_pair(gr::Grid& grid, pc::Port port) {
  JsockPair p;
  padico::jsock::java_server_socket(
      grid.node(1).vlink(), port,
      [&p](std::shared_ptr<padico::jsock::JavaSocket> s) {
        p.server = std::move(s);
      });
  bool connected = false;
  auto prog = [&]() -> pc::Task {
    auto r = co_await padico::jsock::JavaSocket::connect(grid.node(0).vlink(),
                                                         {1, port});
    p.client = *r;
    connected = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return connected && p.server; });
  return p;
}

inline Run jsock_latency_run(gr::Grid& grid, JsockPair& p, int rounds = 32,
                             int warmup = 0) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto client = [&]() -> pc::Task {
    for (int i = 0; i < warmup; ++i) {
      co_await p.client->write(pc::view_of("x"));
      co_await p.client->read_n(1);
    }
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      co_await p.client->write(pc::view_of("x"));
      co_await p.client->read_n(1);
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < warmup + rounds; ++i) {
      pc::Bytes b = co_await p.server->read_n(1);
      co_await p.server->write(pc::view_of(b));
    }
  };
  auto ts = server();
  auto tc = client();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  run.warmup = warmup;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    run.samples.push_back(pc::to_micros(stamps[i] - stamps[i - 1]) / 2.0);
  }
  run.value = pc::to_micros(stamps.back() - stamps.front()) / (2.0 * rounds);
  return run;
}

inline Run jsock_bandwidth_run(gr::Grid& grid, JsockPair& p,
                               std::size_t size) {
  const int count = message_count(size);
  const int windows = std::min(kBwWindows, count);
  pc::SimTime t0 = 0;
  std::vector<pc::SimTime> marks;
  bool done = false;
  auto client = [&]() -> pc::Task {
    pc::Bytes payload(size, 0x33);
    t0 = grid.engine().now();
    for (int i = 0; i < count; ++i) co_await p.client->write(pc::view_of(payload));
    co_return;
  };
  auto server = [&]() -> pc::Task {
    int next_edge = 0;
    for (int i = 0; i < count; ++i) {
      co_await p.server->read_n(size);
      if (i + 1 == window_edge(count, windows, next_edge)) {
        marks.push_back(grid.engine().now());
        ++next_edge;
      }
    }
    done = true;
  };
  auto ts = server();
  auto tc = client();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  pc::SimTime prev = t0;
  int prev_edge = 0;
  for (int w = 0; w < windows; ++w) {
    const int edge = window_edge(count, windows, w);
    run.samples.push_back(
        mbps(static_cast<std::uint64_t>(edge - prev_edge) * size,
             marks[static_cast<std::size_t>(w)] - prev));
    prev = marks[static_cast<std::size_t>(w)];
    prev_edge = edge;
  }
  run.value = mbps(static_cast<std::uint64_t>(size) * count,
                   marks.back() - t0);
  return run;
}

// ---------------------------------------------------------------------------
// Raw VLink / Circuit / TCP drivers
// ---------------------------------------------------------------------------

struct LinkPair {
  std::unique_ptr<padico::vlink::Link> a, b;
};

/// Wire a node0 -> node1 link pair.  `method` names a driver, or
/// "auto": the server then listens on every driver and the connect
/// goes through node 0's chooser (`node.chooser()`), exactly like a
/// middleware that does not know the topology.  Throws (instead of
/// dereferencing null / hanging) when the driver is not registered or
/// the connect reports an error.
inline LinkPair make_link_pair(gr::Grid& grid, const std::string& method,
                               pc::Port port) {
  LinkPair p;
  std::string error;
  auto on_accept = [&p](std::unique_ptr<padico::vlink::Link> l) {
    p.b = std::move(l);
  };
  auto on_connect = [&p, &error](
                        pc::Result<std::unique_ptr<padico::vlink::Link>> r) {
    if (r.ok()) {
      p.a = std::move(*r);
    } else {
      error = r.error().message;
      if (error.empty()) error = "connect failed";
    }
  };
  if (method == "auto") {
    grid.node(1).vlink().listen(port, on_accept);
    grid.node(0).vlink().connect({1, port}, on_connect);
  } else {
    for (std::size_t n = 0; n < 2; ++n) {
      if (grid.node(n).vlink().driver(method) != nullptr) continue;
      std::string have;
      for (const auto& drv : grid.node(n).vlink().drivers()) {
        if (!have.empty()) have += ", ";
        have += drv->name();
      }
      throw std::runtime_error("driver not registered: " + method +
                               " (have: " + have + ")");
    }
    grid.node(1).vlink().driver(method)->listen(port, on_accept);
    grid.node(0).vlink().connect(method, {1, port}, on_connect);
  }
  grid.engine().run_while_pending(
      [&] { return (p.a && p.b) || !error.empty(); });
  if (!error.empty()) {
    throw std::runtime_error("make_link_pair(" + method + "): " + error);
  }
  return p;
}

/// WAN variant of make_mpi_pair: no common SAN across clusters, so the
/// communicator rides one link picked by the chooser (plain sysio or
/// pstream) — the §5 configuration.  The returned pair has no
/// CircuitSet.
inline MpiPair make_mpi_wan_pair(gr::Grid& grid, pc::Port port) {
  LinkPair l = make_link_pair(grid, "auto", port);
  // The accept callback borrowed make_link_pair's frame; drop it.
  grid.node(1).vlink().unlisten(port);
  MpiPair p;
  p.c0 =
      std::make_unique<padico::mpi::Comm>(std::move(l.a), 0, grid.engine());
  p.c1 =
      std::make_unique<padico::mpi::Comm>(std::move(l.b), 1, grid.engine());
  return p;
}

inline Run link_latency_run(gr::Grid& grid, LinkPair& p, int rounds = 32,
                            int warmup = 0) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto client = [&]() -> pc::Task {
    for (int i = 0; i < warmup; ++i) {
      p.a->post_write(pc::view_of("x"));
      co_await p.a->read_n(1);
    }
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      p.a->post_write(pc::view_of("x"));
      co_await p.a->read_n(1);
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < warmup + rounds; ++i) {
      pc::Bytes b = co_await p.b->read_n(1);
      p.b->post_write(pc::view_of(b));
    }
  };
  auto ts = server();
  auto tc = client();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  run.warmup = warmup;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    run.samples.push_back(pc::to_micros(stamps[i] - stamps[i - 1]) / 2.0);
  }
  run.value = pc::to_micros(stamps.back() - stamps.front()) / (2.0 * rounds);
  return run;
}

inline double link_latency_us(gr::Grid& grid, LinkPair& p, int rounds = 32) {
  return link_latency_run(grid, p, rounds).value;
}

inline Run link_bandwidth_run(gr::Grid& grid, LinkPair& p, std::size_t size,
                              int count = 0) {
  if (count == 0) count = message_count(size);
  const std::size_t total = size * static_cast<std::size_t>(count);
  const int windows = std::min<int>(kBwWindows, static_cast<int>(total));
  pc::SimTime t0 = 0;
  std::vector<pc::SimTime> marks;
  bool done = false;
  auto client = [&]() -> pc::Task {
    pc::Bytes payload(size, 0x11);
    // Stamp t0 inside the sender task, like every other driver here, so
    // figures stay comparable across drivers.
    t0 = grid.engine().now();
    for (int i = 0; i < count; ++i) p.a->post_write(pc::view_of(payload));
    co_return;
  };
  auto server = [&]() -> pc::Task {
    // Draining the stream in window-sized reads leaves the wire timing
    // untouched (reads consume the reassembly buffer, not the wire):
    // the final read completes at the same instant one big read would.
    std::size_t taken = 0;
    for (int w = 0; w < windows; ++w) {
      const std::size_t edge =
          (total * static_cast<std::size_t>(w + 1)) /
          static_cast<std::size_t>(windows);
      co_await p.b->read_n(edge - taken);
      taken = edge;
      marks.push_back(grid.engine().now());
    }
    done = true;
  };
  auto ts = server();
  auto tc = client();
  grid.engine().run_while_pending([&] { return done; });
  Run run;
  pc::SimTime prev = t0;
  std::size_t prev_edge = 0;
  for (int w = 0; w < windows; ++w) {
    const std::size_t edge = (total * static_cast<std::size_t>(w + 1)) /
                             static_cast<std::size_t>(windows);
    run.samples.push_back(mbps(edge - prev_edge,
                               marks[static_cast<std::size_t>(w)] - prev));
    prev = marks[static_cast<std::size_t>(w)];
    prev_edge = edge;
  }
  run.value = mbps(total, marks.back() - t0);
  return run;
}

inline double link_bandwidth_mbps(gr::Grid& grid, LinkPair& p,
                                  std::size_t size, int count = 0) {
  return link_bandwidth_run(grid, p, size, count).value;
}

/// Circuit-level ping-pong latency over a wired CircuitSet.
inline Run circuit_latency_run(gr::Grid& grid, gr::CircuitSet& set,
                               int rounds = 32, int warmup = 0) {
  std::vector<pc::SimTime> stamps;
  int pongs = 0;
  const int total = warmup + rounds;
  set.at(1).set_recv_handler([&](int, padico::mad::UnpackHandle&) {
    set.at(1).send(0, pc::view_of("o"));
  });
  set.at(0).set_recv_handler([&](int, padico::mad::UnpackHandle&) {
    ++pongs;
    if (pongs >= warmup) stamps.push_back(grid.engine().now());
    if (pongs < total) set.at(0).send(1, pc::view_of("i"));
  });
  if (warmup == 0) stamps.push_back(grid.engine().now());
  set.at(0).send(1, pc::view_of("i"));
  grid.engine().run_while_pending([&] { return pongs >= total; });
  // The handlers capture this frame's locals; don't leave them armed
  // on the caller's long-lived set.
  set.at(0).set_recv_handler({});
  set.at(1).set_recv_handler({});
  Run run;
  run.warmup = warmup;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    run.samples.push_back(pc::to_micros(stamps[i] - stamps[i - 1]) / 2.0);
  }
  run.value = pc::to_micros(stamps.back() - stamps.front()) / (2.0 * rounds);
  return run;
}

inline double circuit_latency_us(gr::Grid& grid, gr::CircuitSet& set,
                                 int rounds = 32) {
  return circuit_latency_run(grid, set, rounds).value;
}

inline Run circuit_bandwidth_run(gr::Grid& grid, gr::CircuitSet& set,
                                 std::size_t size) {
  const int count = message_count(size);
  const int windows = std::min(kBwWindows, count);
  pc::SimTime t0 = 0;
  std::vector<pc::SimTime> marks;
  int received = 0;
  int next_edge = 0;
  set.at(1).set_recv_handler([&](int, padico::mad::UnpackHandle&) {
    ++received;
    if (received == window_edge(count, windows, next_edge)) {
      marks.push_back(grid.engine().now());
      ++next_edge;
    }
  });
  pc::Bytes payload(size, 0x22);
  // Stamp t0 at the sender, right before the first send — the
  // convention link_bandwidth_mbps established, so figures stay
  // comparable across drivers.
  t0 = grid.engine().now();
  for (int i = 0; i < count; ++i) set.at(0).send(1, pc::view_of(payload));
  grid.engine().run_while_pending([&] { return received >= count; });
  set.at(1).set_recv_handler({});  // captured this frame's locals
  Run run;
  pc::SimTime prev = t0;
  int prev_edge = 0;
  for (int w = 0; w < windows; ++w) {
    const int edge = window_edge(count, windows, w);
    run.samples.push_back(
        mbps(static_cast<std::uint64_t>(edge - prev_edge) * size,
             marks[static_cast<std::size_t>(w)] - prev));
    prev = marks[static_cast<std::size_t>(w)];
    prev_edge = edge;
  }
  run.value = mbps(static_cast<std::uint64_t>(size) * count,
                   marks.back() - t0);
  return run;
}

inline double circuit_bandwidth_mbps(gr::Grid& grid, gr::CircuitSet& set,
                                     std::size_t size) {
  return circuit_bandwidth_run(grid, set, size).value;
}

}  // namespace bench
