// paper_stack: the paper's Myrinet testbed experiments as one pass.
//
//   * Table 1 rows: latency (32 ping-pong rounds) and bandwidth at 1 MB
//     for Circuit, VLink/MadIO, MPICH, omniORB-3, omniORB-4, Java
//     sockets, plus the Mico and ORBacus figures of the paper's
//     section 5;
//   * the Fig. 3 sweep: bandwidth from 32 B to 1 MB for the four ORBs,
//     MPICH, Java sockets and the TCP/Ethernet-100 reference;
//   * a VRP leg on the lossy trans-continental profile (reliable and
//     10% loss budget) and an AdOC leg (text and random payloads on
//     Ethernet-100 and the VTHD WAN), with a direct codec round trip.
//
// Every figure is virtual time, so each pass must reproduce the same
// cells bit for bit.  The measurement loops follow the stamping
// conventions of the repository's table 1 / figure 3 benches, so the
// cells equal the figures those benches print.  They are this
// benchmark's own copies rather than bench/common.hpp's, so that the
// benchmark stays fixed while bench/ changes, and so that the traced
// run can put a host-time span around each personality call and each
// engine drive.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "adapters/adoc.hpp"
#include "adapters/vrp.hpp"
#include "compress/lz.hpp"
#include "core/rng.hpp"
#include "grid/grid.hpp"
#include "madeleine/circuit.hpp"
#include "middleware/corba/orb.hpp"
#include "middleware/javasock/jsock.hpp"
#include "middleware/mpi/mpi.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace orb = padico::orb;
namespace jsock = padico::jsock;
namespace mpi = padico::mpi;
namespace cz = padico::compress;

/// Everything one pass accumulates.
struct Pass {
  SpanLog* log = nullptr;
  bool table1_only = false;
  LayerCounts counts;
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;
  double ops = 0;
  std::vector<PaperCell> table1;
  std::map<std::string, double> cells;
  // Host time and message counts per personality (run phase only).
  std::int64_t circuit_ns = 0, mpi_ns = 0, corba_ns = 0, jsock_ns = 0;
  double circuit_msgs = 0, mpi_msgs = 0, corba_calls = 0, jsock_msgs = 0;
  std::int64_t codec_ns = 0;
  double codec_kb = 0;
  double vrp_retx = 0;
  double adoc_switches = 0;
};

void cell(Pass& p, const std::string& name, double value) {
  p.cells[name] = value;
}

double mbps(std::uint64_t bytes, pc::Duration elapsed) {
  if (elapsed == 0) return 0;
  return static_cast<double>(bytes) / pc::to_seconds(elapsed) / 1e6;
}

int message_count(std::size_t size) {
  const std::uint64_t target = 16ull << 20;  // ~16 MB per point
  const std::uint64_t by_bytes = target / std::max<std::size_t>(size, 1);
  return static_cast<int>(std::clamp<std::uint64_t>(by_bytes, 8, 2000));
}

double one_way_us(const std::vector<pc::SimTime>& stamps, int rounds) {
  return pc::to_micros(stamps.back() - stamps.front()) / (2.0 * rounds);
}

/// The topology of one leg, built and timed as set-up.
template <typename Wire>
std::unique_ptr<gr::Grid> build_grid(Pass& p, Wire&& wire,
                                     const gr::BuildOptions& opts = {}) {
  const std::int64_t t0 = now_ns();
  auto grid = std::make_unique<gr::Grid>();
  {
    ScopedSpan span(p.log, "grid.build");
    wire(*grid);
    grid->build(opts);
  }
  p.setup_ns += now_ns() - t0;
  return grid;
}

/// The paper's platform: two nodes on Myrinet-2000 + Ethernet-100.
std::unique_ptr<gr::Grid> testbed(Pass& p) {
  return build_grid(p, [](gr::Grid& g) {
    g.add_nodes(2);
    const sn::NetId san = g.add_network(sn::profiles::myrinet2000());
    const sn::NetId lan = g.add_network(sn::profiles::ethernet100());
    for (pc::NodeId i = 0; i < 2; ++i) {
      g.attach(san, i);
      g.attach(lan, i);
    }
  });
}

std::unique_ptr<gr::Grid> pair_on(Pass& p, const sn::LinkModel& model,
                                  const gr::BuildOptions& opts = {}) {
  return build_grid(
      p,
      [&model](gr::Grid& g) {
        g.add_nodes(2);
        const sn::NetId net = g.add_network(model);
        g.attach(net, 0);
        g.attach(net, 1);
      },
      opts);
}

/// Engine::run_while_pending in one span: the engine steps that carry
/// a leg's traffic, with the personality calls they resume as child
/// spans.  (Timing every step on its own added about 15% to a pass.)
template <typename Stop>
void drive(Pass& p, gr::Grid& grid, Stop&& stop) {
  ScopedSpan span(p.log, "engine.run_while_pending");
  grid.engine().run_while_pending(std::forward<Stop>(stop));
}

/// Times one leg's run phase into the pass total and, when given, the
/// bucket of the personality the leg drives.
class Leg {
 public:
  Leg(Pass& p, const char* name, std::int64_t* bucket)
      : p_(&p), bucket_(bucket), span_(p.log, name), t0_(now_ns()) {}
  ~Leg() {
    const std::int64_t dt = now_ns() - t0_;
    p_->run_ns += dt;
    if (bucket_ != nullptr) *bucket_ += dt;
  }
  Leg(const Leg&) = delete;
  Leg& operator=(const Leg&) = delete;

 private:
  Pass* p_;
  std::int64_t* bucket_;
  ScopedSpan span_;
  std::int64_t t0_;
};

// ---------------------------------------------------------------------------
// Raw VLink links
// ---------------------------------------------------------------------------

struct LinkPair {
  std::unique_ptr<padico::vlink::Link> a, b;
};

LinkPair link_pair(Pass& p, gr::Grid& grid, const std::string& method,
                   pc::Port port) {
  LinkPair lp;
  std::string error;
  for (std::size_t n = 0; n < 2; ++n) {
    if (grid.node(n).vlink().driver(method) == nullptr) {
      throw std::runtime_error("driver not registered: " + method);
    }
  }
  grid.node(1).vlink().driver(method)->listen(
      port, [&lp](std::unique_ptr<padico::vlink::Link> l) { lp.b = std::move(l); });
  grid.node(0).vlink().connect(
      method, {1, port},
      [&lp, &error](pc::Result<std::unique_ptr<padico::vlink::Link>> r) {
        if (r.ok()) {
          lp.a = std::move(*r);
        } else {
          error = r.error().message.empty() ? "connect failed" : r.error().message;
        }
      });
  drive(p, grid, [&] { return (lp.a && lp.b) || !error.empty(); });
  if (!error.empty() || !lp.a || !lp.b) {
    throw std::runtime_error("link_pair(" + method + "): " + error);
  }
  return lp;
}

double link_latency_us(Pass& p, gr::Grid& grid, LinkPair& lp, int rounds = 32) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto client = [&]() -> pc::Task {
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      timed(p.log, "vlink.write", [&] { lp.a->post_write(pc::view_of("x")); });
      pc::Completion<pc::Bytes> r =
          timed(p.log, "vlink.read", [&] { return lp.a->read_n(1); });
      co_await r;
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < rounds; ++i) {
      pc::Completion<pc::Bytes> r =
          timed(p.log, "vlink.read", [&] { return lp.b->read_n(1); });
      pc::Bytes b = co_await r;
      timed(p.log, "vlink.write", [&] { lp.b->post_write(pc::view_of(b)); });
    }
  };
  auto ts = server();
  auto tc = client();
  drive(p, grid, [&] { return done; });
  p.ops += 2.0 * rounds;
  return one_way_us(stamps, rounds);
}

double link_bandwidth_mbps(Pass& p, gr::Grid& grid, LinkPair& lp,
                           std::size_t size, int count = 0) {
  if (count == 0) count = message_count(size);
  const std::size_t total = size * static_cast<std::size_t>(count);
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto client = [&]() -> pc::Task {
    pc::Bytes payload(size, 0x11);
    t0 = grid.engine().now();
    for (int i = 0; i < count; ++i) {
      timed(p.log, "vlink.write", [&] { lp.a->post_write(pc::view_of(payload)); });
    }
    co_return;
  };
  auto server = [&]() -> pc::Task {
    // Window-sized reads, as the table 1 bench drains the stream (the
    // final read completes at the same instant one big read would).
    const int windows = std::min<int>(8, static_cast<int>(total));
    std::size_t taken = 0;
    for (int w = 0; w < windows; ++w) {
      const std::size_t edge = (total * static_cast<std::size_t>(w + 1)) /
                               static_cast<std::size_t>(windows);
      pc::Completion<pc::Bytes> r =
          timed(p.log, "vlink.read", [&] { return lp.b->read_n(edge - taken); });
      co_await r;
      taken = edge;
    }
    t1 = grid.engine().now();
    done = true;
  };
  auto ts = server();
  auto tc = client();
  drive(p, grid, [&] { return done; });
  p.ops += count;
  return mbps(total, t1 - t0);
}

// ---------------------------------------------------------------------------
// Madeleine circuits
// ---------------------------------------------------------------------------

double circuit_latency_us(Pass& p, gr::Grid& grid, gr::CircuitSet& set,
                          int rounds = 32) {
  std::vector<pc::SimTime> stamps;
  int pongs = 0;
  set.at(1).set_recv_handler([&](int, padico::mad::UnpackHandle&) {
    timed(p.log, "circuit.send", [&] { set.at(1).send(0, pc::view_of("o")); });
  });
  set.at(0).set_recv_handler([&](int, padico::mad::UnpackHandle&) {
    ++pongs;
    stamps.push_back(grid.engine().now());
    if (pongs < rounds) {
      timed(p.log, "circuit.send", [&] { set.at(0).send(1, pc::view_of("i")); });
    }
  });
  stamps.push_back(grid.engine().now());
  timed(p.log, "circuit.send", [&] { set.at(0).send(1, pc::view_of("i")); });
  drive(p, grid, [&] { return pongs >= rounds; });
  set.at(0).set_recv_handler({});
  set.at(1).set_recv_handler({});
  p.ops += 2.0 * rounds;
  p.circuit_msgs += 2.0 * rounds;
  return one_way_us(stamps, rounds);
}

double circuit_bandwidth_mbps(Pass& p, gr::Grid& grid, gr::CircuitSet& set,
                              std::size_t size) {
  const int count = message_count(size);
  int received = 0;
  pc::SimTime t1 = 0;
  set.at(1).set_recv_handler([&](int, padico::mad::UnpackHandle&) {
    if (++received == count) t1 = grid.engine().now();
  });
  pc::Bytes payload(size, 0x22);
  const pc::SimTime t0 = grid.engine().now();
  for (int i = 0; i < count; ++i) {
    timed(p.log, "circuit.send", [&] { set.at(0).send(1, pc::view_of(payload)); });
  }
  drive(p, grid, [&] { return received >= count; });
  set.at(1).set_recv_handler({});
  p.ops += count;
  p.circuit_msgs += count;
  return mbps(static_cast<std::uint64_t>(size) * count, t1 - t0);
}

// ---------------------------------------------------------------------------
// MPI
// ---------------------------------------------------------------------------

struct MpiPair {
  std::unique_ptr<gr::CircuitSet> set;
  std::unique_ptr<mpi::Comm> c0, c1;
};

MpiPair mpi_pair(gr::Grid& grid, padico::net::Tag tag, pc::Port port) {
  MpiPair m;
  m.set = std::make_unique<gr::CircuitSet>(
      grid.make_circuit("bench-mpi", padico::circuit::Group({0, 1}), tag, port));
  m.c0 = std::make_unique<mpi::Comm>(m.set->at(0));
  m.c1 = std::make_unique<mpi::Comm>(m.set->at(1));
  return m;
}

double mpi_latency_us(Pass& p, gr::Grid& grid, MpiPair& m, int rounds = 32) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto rank0 = [&]() -> pc::Task {
    pc::Bytes ping(1, 0);
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      timed(p.log, "mpi.isend", [&] { m.c0->isend(1, 0, pc::view_of(ping)); });
      pc::Completion<pc::Bytes> r =
          timed(p.log, "mpi.recv", [&] { return m.c0->recv(1, 0); });
      co_await r;
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto rank1 = [&]() -> pc::Task {
    pc::Bytes pong(1, 0);
    for (int i = 0; i < rounds; ++i) {
      pc::Completion<pc::Bytes> r =
          timed(p.log, "mpi.recv", [&] { return m.c1->recv(0, 0); });
      co_await r;
      timed(p.log, "mpi.isend", [&] { m.c1->isend(0, 0, pc::view_of(pong)); });
    }
  };
  auto ta = rank1();
  auto tb = rank0();
  drive(p, grid, [&] { return done; });
  p.ops += 2.0 * rounds;
  p.mpi_msgs += 2.0 * rounds;
  return one_way_us(stamps, rounds);
}

double mpi_bandwidth_mbps(Pass& p, gr::Grid& grid, MpiPair& m, std::size_t size) {
  const int count = message_count(size);
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto rank0 = [&]() -> pc::Task {
    pc::Bytes payload(size, 0x77);
    t0 = grid.engine().now();
    for (int i = 0; i < count; ++i) {
      timed(p.log, "mpi.isend", [&] { m.c0->isend(1, 1, pc::view_of(payload)); });
    }
    co_return;
  };
  auto rank1 = [&]() -> pc::Task {
    for (int i = 0; i < count; ++i) {
      pc::Completion<pc::Bytes> r =
          timed(p.log, "mpi.recv", [&] { return m.c1->recv(0, 1); });
      co_await r;
    }
    t1 = grid.engine().now();
    done = true;
  };
  auto ta = rank1();
  auto tb = rank0();
  drive(p, grid, [&] { return done; });
  p.ops += count;
  p.mpi_msgs += count;
  return mbps(static_cast<std::uint64_t>(size) * count, t1 - t0);
}

// ---------------------------------------------------------------------------
// CORBA
// ---------------------------------------------------------------------------

struct OrbPair {
  std::unique_ptr<orb::Orb> server, client;
  orb::ObjectRef sink;
};

OrbPair orb_pair(gr::Grid& grid, const orb::OrbProfile& profile, pc::Port port) {
  OrbPair o;
  o.server = std::make_unique<orb::Orb>(grid.node(1).host(), grid.node(1).vlink(),
                                        profile, port);
  o.server->activate("sink", [](const std::string&, std::vector<orb::Any>) {
    return std::vector<orb::Any>{};
  });
  o.server->start();
  o.client = std::make_unique<orb::Orb>(grid.node(0).host(), grid.node(0).vlink(),
                                        profile, port + 1);
  o.sink = o.server->ref_of("sink");
  return o;
}

pc::Completion<orb::Reply> invoke(Pass& p, OrbPair& o, const std::string& method,
                                  std::vector<orb::Any> args) {
  ScopedSpan span(p.log, "orb.invoke");
  return o.client->invoke(o.sink, method, std::move(args));
}

double orb_latency_us(Pass& p, gr::Grid& grid, OrbPair& o, int rounds = 32) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto prog = [&]() -> pc::Task {
    // Owning temporaries stay out of co_await full-expressions (a
    // GCC 12 coroutine defect): bind, then await.
    const std::string null_method = "null";
    pc::Completion<orb::Reply> warm = invoke(p, o, null_method, {});
    co_await warm;
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      pc::Completion<orb::Reply> call = invoke(p, o, null_method, {});
      co_await call;
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto t = prog();
  drive(p, grid, [&] { return done; });
  p.ops += rounds + 1;
  p.corba_calls += rounds + 1;
  return one_way_us(stamps, rounds);
}

double orb_bandwidth_mbps(Pass& p, gr::Grid& grid, OrbPair& o, std::size_t size) {
  const int count = message_count(size);
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto prog = [&]() -> pc::Task {
    const std::string null_method = "null";
    const std::string put = "put";
    pc::Completion<orb::Reply> warm = invoke(p, o, null_method, {});
    co_await warm;
    t0 = grid.engine().now();
    pc::Bytes payload(size, 0x55);
    // Requests pipeline freely; replies come back in order, so the
    // last one completes when the stream has drained.
    pc::Completion<orb::Reply> last;
    for (int i = 0; i < count; ++i) {
      std::vector<orb::Any> args;
      args.emplace_back(payload);
      last = invoke(p, o, put, std::move(args));
    }
    co_await last;
    t1 = grid.engine().now();
    done = true;
  };
  auto t = prog();
  drive(p, grid, [&] { return done; });
  p.ops += count + 1;
  p.corba_calls += count + 1;
  return mbps(static_cast<std::uint64_t>(size) * count, t1 - t0);
}

// ---------------------------------------------------------------------------
// Java sockets
// ---------------------------------------------------------------------------

struct JsockPair {
  std::shared_ptr<jsock::JavaSocket> client, server;
};

JsockPair jsock_pair(Pass& p, gr::Grid& grid, pc::Port port) {
  JsockPair j;
  jsock::java_server_socket(grid.node(1).vlink(), port,
                            [&j](std::shared_ptr<jsock::JavaSocket> s) {
                              j.server = std::move(s);
                            });
  bool connected = false;
  auto prog = [&]() -> pc::Task {
    auto call = jsock::JavaSocket::connect(grid.node(0).vlink(), {1, port});
    auto r = co_await call;
    if (r.ok()) j.client = *r;
    connected = true;
  };
  auto t = prog();
  drive(p, grid, [&] { return connected && j.server; });
  if (!j.client || !j.server) throw std::runtime_error("jsock_pair: connect failed");
  return j;
}

double jsock_latency_us(Pass& p, gr::Grid& grid, JsockPair& j, int rounds = 32) {
  std::vector<pc::SimTime> stamps;
  bool done = false;
  auto client = [&]() -> pc::Task {
    stamps.push_back(grid.engine().now());
    for (int i = 0; i < rounds; ++i) {
      pc::Completion<void> w =
          timed(p.log, "jsock.write", [&] { return j.client->write(pc::view_of("x")); });
      co_await w;
      pc::Completion<pc::Bytes> r =
          timed(p.log, "jsock.read", [&] { return j.client->read_n(1); });
      co_await r;
      stamps.push_back(grid.engine().now());
    }
    done = true;
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < rounds; ++i) {
      pc::Completion<pc::Bytes> r =
          timed(p.log, "jsock.read", [&] { return j.server->read_n(1); });
      pc::Bytes b = co_await r;
      pc::Completion<void> w =
          timed(p.log, "jsock.write", [&] { return j.server->write(pc::view_of(b)); });
      co_await w;
    }
  };
  auto ts = server();
  auto tc = client();
  drive(p, grid, [&] { return done; });
  p.ops += 2.0 * rounds;
  p.jsock_msgs += 2.0 * rounds;
  return one_way_us(stamps, rounds);
}

double jsock_bandwidth_mbps(Pass& p, gr::Grid& grid, JsockPair& j, std::size_t size) {
  const int count = message_count(size);
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto client = [&]() -> pc::Task {
    pc::Bytes payload(size, 0x33);
    t0 = grid.engine().now();
    for (int i = 0; i < count; ++i) {
      pc::Completion<void> w = timed(p.log, "jsock.write", [&] {
        return j.client->write(pc::view_of(payload));
      });
      co_await w;
    }
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < count; ++i) {
      pc::Completion<pc::Bytes> r =
          timed(p.log, "jsock.read", [&] { return j.server->read_n(size); });
      co_await r;
    }
    t1 = grid.engine().now();
    done = true;
  };
  auto ts = server();
  auto tc = client();
  drive(p, grid, [&] { return done; });
  p.ops += count;
  p.jsock_msgs += count;
  return mbps(static_cast<std::uint64_t>(size) * count, t1 - t0);
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

void table1_row(Pass& p, const std::string& name, double lat, double bw,
                double paper_lat, double paper_bw) {
  const std::string lat_name = "table1." + name + ".latency_us";
  const std::string bw_name = "table1." + name + ".bandwidth_mbps";
  cell(p, lat_name, lat);
  cell(p, bw_name, bw);
  p.table1.push_back({lat_name, lat, paper_lat});
  p.table1.push_back({bw_name, bw, paper_bw});
}

constexpr std::size_t kMiB = 1u << 20;

void table1(Pass& p) {
  {
    auto grid = testbed(p);
    {
      Leg leg(p, "leg.circuit", &p.circuit_ns);
      auto set = grid->make_circuit("t1", padico::circuit::Group({0, 1}), 0x51, 3400);
      const double lat = circuit_latency_us(p, *grid, set);
      const double bw = circuit_bandwidth_mbps(p, *grid, set, kMiB);
      table1_row(p, "Circuit", lat, bw, 8.4, 240.0);
    }
    p.counts.add(*grid);
  }
  {
    auto grid = testbed(p);
    {
      Leg leg(p, "leg.vlink", nullptr);
      LinkPair lp = link_pair(p, *grid, "madio", 3410);
      const double lat = link_latency_us(p, *grid, lp);
      const double bw = link_bandwidth_mbps(p, *grid, lp, kMiB, 64);
      table1_row(p, "VLink", lat, bw, 10.2, 239.0);
    }
    p.counts.add(*grid);
  }
  {
    auto grid = testbed(p);
    {
      Leg leg(p, "leg.mpi", &p.mpi_ns);
      MpiPair m = mpi_pair(*grid, 0x52, 3420);
      const double lat = mpi_latency_us(p, *grid, m);
      const double bw = mpi_bandwidth_mbps(p, *grid, m, kMiB);
      table1_row(p, "MPICH", lat, bw, 12.06, 238.7);
    }
    p.counts.add(*grid);
  }
  struct OrbRow {
    orb::OrbProfile profile;
    double paper_lat, paper_bw;
    pc::Port port;
  };
  // Mico and ORBacus are not in Table 1; the paper quotes them in
  // section 5 ("Mico peaks at 55 MB/s with a latency of 63us, and
  // ORBacus gets 63 MB/s with a latency of 54us").
  const OrbRow orbs[] = {{orb::profiles::omniorb3(), 20.3, 238.4, 3430},
                         {orb::profiles::omniorb4(), 18.4, 235.8, 3435},
                         {orb::profiles::mico(), 63.0, 55.0, 3450},
                         {orb::profiles::orbacus(), 54.0, 63.0, 3455}};
  for (const OrbRow& row : orbs) {
    auto grid = testbed(p);
    {
      Leg leg(p, "leg.corba", &p.corba_ns);
      OrbPair o = orb_pair(*grid, row.profile, row.port);
      const double lat = orb_latency_us(p, *grid, o);
      const double bw = orb_bandwidth_mbps(p, *grid, o, kMiB);
      table1_row(p, row.profile.name, lat, bw, row.paper_lat, row.paper_bw);
    }
    p.counts.add(*grid);
  }
  {
    auto grid = testbed(p);
    {
      Leg leg(p, "leg.jsock", &p.jsock_ns);
      JsockPair j = jsock_pair(p, *grid, 3440);
      const double lat = jsock_latency_us(p, *grid, j);
      const double bw = jsock_bandwidth_mbps(p, *grid, j, kMiB);
      table1_row(p, "Java-socket", lat, bw, 40.0, 237.9);
    }
    p.counts.add(*grid);
  }
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

void fig3(Pass& p) {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 32; s <= kMiB; s *= 4) sizes.push_back(s);
  sizes.push_back(kMiB);
  const orb::OrbProfile orbs[] = {orb::profiles::omniorb3(), orb::profiles::omniorb4(),
                                  orb::profiles::mico(), orb::profiles::orbacus()};
  for (std::size_t size : sizes) {
    // Appended in two steps: "." + std::to_string(...) trips a GCC 12
    // -Wrestrict false positive.
    std::string suffix = ".";
    suffix += std::to_string(size);
    pc::Port port = 3300;
    for (const orb::OrbProfile& profile : orbs) {
      auto grid = testbed(p);
      {
        Leg leg(p, "leg.corba", &p.corba_ns);
        OrbPair o = orb_pair(*grid, profile, port);
        cell(p, "fig3." + profile.name + suffix, orb_bandwidth_mbps(p, *grid, o, size));
      }
      p.counts.add(*grid);
      port = static_cast<pc::Port>(port + 10);
    }
    {
      auto grid = testbed(p);
      {
        Leg leg(p, "leg.mpi", &p.mpi_ns);
        MpiPair m = mpi_pair(*grid, 0x50, 3000);
        cell(p, "fig3.MPICH" + suffix, mpi_bandwidth_mbps(p, *grid, m, size));
      }
      p.counts.add(*grid);
    }
    {
      auto grid = testbed(p);
      {
        Leg leg(p, "leg.jsock", &p.jsock_ns);
        JsockPair j = jsock_pair(p, *grid, 3100);
        cell(p, "fig3.Java-socket" + suffix, jsock_bandwidth_mbps(p, *grid, j, size));
      }
      p.counts.add(*grid);
    }
    {
      auto grid = pair_on(p, sn::profiles::ethernet100());
      {
        Leg leg(p, "leg.tcp", nullptr);
        LinkPair lp = link_pair(p, *grid, "sysio", 3200);
        cell(p, "fig3.TCP-Eth100" + suffix, link_bandwidth_mbps(p, *grid, lp, size));
      }
      p.counts.add(*grid);
    }
  }
}

// ---------------------------------------------------------------------------
// Adapters: VRP and AdOC, plus a direct codec round trip
// ---------------------------------------------------------------------------

void vrp_leg(Pass& p, const char* label, double loss, double tolerance) {
  gr::BuildOptions opts;
  opts.vrp.max_loss = tolerance;
  auto grid = pair_on(p, sn::profiles::transcontinental_internet(loss), opts);
  {
    Leg leg(p, "leg.vrp", nullptr);
    LinkPair lp = link_pair(p, *grid, "vrp", 4700);
    auto* vrp = dynamic_cast<padico::vlink::VrpLink*>(lp.a.get());
    if (vrp == nullptr) throw std::runtime_error("\"vrp\" did not yield a VrpLink");
    std::size_t received = 0;
    const pc::SimTime t0 = grid->engine().now();
    pc::SimTime t1 = t0;
    bool eof = false;
    lp.b->set_ready_handler([&]() {
      const pc::Bytes got = lp.b->read_available();
      received += got.size();
      if (!got.empty()) t1 = grid->engine().now();
      if (lp.b->eof_seen()) eof = true;
    });
    pc::Bytes payload(512 * 1024, 0x5a);
    timed(p.log, "vlink.write", [&] { lp.a->post_write(pc::view_of(payload)); });
    lp.a->post_close();
    drive(p, *grid, [&] { return eof; });
    {
      ScopedSpan span(p.log, "engine.run_until_idle");
      grid->engine().run_until_idle();
    }
    const double kbps =
        t1 > t0 ? static_cast<double>(received) / pc::to_seconds(t1 - t0) / 1e3 : 0.0;
    cell(p, std::string("vrp.") + label + ".goodput_kbps", kbps);
    cell(p, std::string("vrp.") + label + ".retransmissions",
         static_cast<double>(vrp->retransmissions()));
    p.vrp_retx += static_cast<double>(vrp->retransmissions());
    p.ops += 1;
  }
  p.counts.add(*grid);
}

pc::Bytes text_payload(std::size_t n) {
  pc::Bytes b;
  const std::string w = "simulation state vector dump: temperature pressure ";
  while (b.size() < n) b.insert(b.end(), w.begin(), w.end());
  b.resize(n);
  return b;
}

pc::Bytes random_payload(std::size_t n) {
  pc::Rng rng(99);
  pc::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

void adoc_leg(Pass& p, const char* label, const sn::LinkModel& model,
              const pc::Bytes& payload) {
  auto grid = pair_on(p, model);
  {
    Leg leg(p, "leg.adoc", nullptr);
    LinkPair lp = link_pair(p, *grid, "adoc", 5000);
    auto* adoc = dynamic_cast<padico::vlink::AdocLink*>(lp.a.get());
    if (adoc == nullptr) throw std::runtime_error("\"adoc\" did not yield an AdocLink");
    const int count = 16;
    const pc::SimTime t0 = grid->engine().now();
    pc::SimTime t1 = 0;
    bool done = false;
    auto server = [&]() -> pc::Task {
      pc::Completion<pc::Bytes> r = timed(p.log, "vlink.read", [&] {
        return lp.b->read_n(payload.size() * count);
      });
      co_await r;
      t1 = grid->engine().now();
      done = true;
    };
    auto ts = server();
    for (int i = 0; i < count; ++i) {
      timed(p.log, "vlink.write", [&] { lp.a->post_write(pc::view_of(payload)); });
    }
    drive(p, *grid, [&] { return done; });
    cell(p, std::string("adoc.") + label + ".mbps",
         mbps(static_cast<std::uint64_t>(payload.size()) * count, t1 - t0));
    cell(p, std::string("adoc.") + label + ".level_switches",
         static_cast<double>(adoc->level_switches()));
    p.adoc_switches += static_cast<double>(adoc->level_switches());
    p.ops += count;
  }
  p.counts.add(*grid);
}

/// compress/decompress round trip at every level; returns false on a
/// mismatch.
bool codec_round_trip(Pass& p, const pc::Bytes& payload) {
  bool ok = true;
  const std::int64_t t0 = now_ns();
  for (cz::Level level : {cz::Level::stored, cz::Level::rle, cz::Level::lz}) {
    ScopedSpan span(p.log, "compress.round_trip");
    const pc::Bytes frame = cz::compress(pc::view_of(payload), level);
    const std::optional<pc::Bytes> back = cz::decompress(pc::view_of(frame));
    ok = ok && back.has_value() && *back == payload;
    p.codec_kb += static_cast<double>(payload.size()) / 1024.0;
  }
  const std::int64_t dt = now_ns() - t0;
  p.codec_ns += dt;
  p.run_ns += dt;
  return ok;
}

void adapters(Pass& p, bool& codec_ok) {
  vrp_leg(p, "reliable", 0.07, 0.0);
  vrp_leg(p, "budget10", 0.07, 0.10);
  const pc::Bytes text = text_payload(128 * 1024);
  const pc::Bytes random = random_payload(128 * 1024);
  adoc_leg(p, "Ethernet.text", sn::profiles::ethernet100(), text);
  adoc_leg(p, "Ethernet.random", sn::profiles::ethernet100(), random);
  adoc_leg(p, "Vthd.text", sn::profiles::vthd_wan(), text);
  adoc_leg(p, "Vthd.random", sn::profiles::vthd_wan(), random);
  codec_ok = codec_round_trip(p, text) && codec_round_trip(p, random);
}

bool run_pass(Pass& p) {
  table1(p);
  if (p.table1_only) return true;
  fig3(p);
  bool codec_ok = false;
  adapters(p, codec_ok);
  return codec_ok;
}

/// Grids of one pass, built and torn down without running: the
/// set-up cost on its own.
std::int64_t setup_only() {
  Pass p;
  // 8 Table 1 rows, then per Fig. 3 size 6 testbed series and the
  // Ethernet-100 TCP reference.
  for (int i = 0; i < 8 + 9 * 6; ++i) testbed(p);
  for (int i = 0; i < 9; ++i) pair_on(p, sn::profiles::ethernet100());
  for (double tolerance : {0.0, 0.10}) {
    gr::BuildOptions opts;
    opts.vrp.max_loss = tolerance;
    pair_on(p, sn::profiles::transcontinental_internet(0.07), opts);
  }
  for (int i = 0; i < 2; ++i) {
    pair_on(p, sn::profiles::ethernet100());
    pair_on(p, sn::profiles::vthd_wan());
  }
  return p.setup_ns;
}

}  // namespace

std::vector<PaperCell> table1_cells() {
  Pass p;
  p.table1_only = true;
  run_pass(p);
  return p.table1;
}

void run_paper_stack(const Options& opt, Result& out) {
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opt.seconds * 1e9);

  // Set-up: the median of the grid builds of whole passes, made here
  // and in a burst before every pass (about 5% of the pass's wall
  // time).
  std::vector<double> setup;
  sample_setup(setup, 7, 250'000'000, setup_only);

  // A warm-up pass first (checked, not timed), then passes until the
  // deadline; the traced run interleaves untraced and traced passes in
  // ABBA order, as the scenario workloads do.
  SpanLog log;
  TotalsByName totals;  // traced passes whose spans were folded
  std::vector<double> rates, traced_rates;
  std::vector<Pass> passes;
  Pass traced_sum;  // host times and counts summed over traced passes
  Pass last_traced;
  bool codec_ok = true;
  std::int64_t pass_wall_ns = 0;
  const auto one_pass = [&](bool traced) {
    if (traced) log.fold_into(totals);
    const std::int64_t t0 = now_ns();
    Pass p;
    p.log = traced ? &log : nullptr;
    codec_ok = run_pass(p) && codec_ok;
    out.attempted += static_cast<std::uint64_t>(p.ops);
    pass_wall_ns = now_ns() - t0;
    return p;
  };
  passes.push_back(one_pass(false));
  const std::size_t min_passes = opt.trace ? 4 : 3;
  for (std::size_t n = 0; n < min_passes || now_ns() < deadline; ++n) {
    sample_setup(setup, 1, pass_wall_ns / 20, setup_only);
    const bool traced = opt.trace && (n % 4 == 1 || n % 4 == 2);
    Pass p = one_pass(traced);
    (traced ? traced_rates : rates)
        .push_back(p.ops / (static_cast<double>(p.run_ns) * 1e-9));
    if (traced) {
      traced_sum.run_ns += p.run_ns;
      traced_sum.circuit_ns += p.circuit_ns;
      traced_sum.mpi_ns += p.mpi_ns;
      traced_sum.corba_ns += p.corba_ns;
      traced_sum.jsock_ns += p.jsock_ns;
      traced_sum.codec_ns += p.codec_ns;
      traced_sum.circuit_msgs += p.circuit_msgs;
      traced_sum.mpi_msgs += p.mpi_msgs;
      traced_sum.corba_calls += p.corba_calls;
      traced_sum.jsock_msgs += p.jsock_msgs;
      traced_sum.codec_kb += p.codec_kb;
      last_traced = p;
    }
    passes.push_back(std::move(p));
  }

  bool replay = true;
  for (const Pass& p : passes) replay = replay && p.cells == passes.front().cells;
  out.check(opt.trace ? "cells replay, traced == untraced" : "cells replay across passes",
            replay);
  out.check("codec round trips", codec_ok);
  out.cells = passes.front().cells;
  out.table1 = passes.front().table1;
  out.setup_s = median(setup);
  out.ops_per_s = median(rates);

  char line[200];
  std::snprintf(line, sizeof line,
                "paper_stack: %zu passes (1 warm-up), %.0f ops and %zu cells each",
                passes.size(), passes.front().ops, passes.front().cells.size());
  out.notes.push_back(line);
  if (!opt.trace) return;

  const Pass& t = traced_sum;
  LayerFigures& lf = out.layers;
  lf.counts = last_traced.counts;
  lf.ops = last_traced.ops;
  lf.run_ns = static_cast<double>(last_traced.run_ns);
  const auto per = [](std::int64_t ns, double n) {
    return n > 0 ? static_cast<double>(ns) / n : 0.0;
  };
  lf.circuit_ns_per_msg = per(t.circuit_ns, t.circuit_msgs);
  lf.mpi_ns_per_msg = per(t.mpi_ns, t.mpi_msgs);
  lf.corba_ns_per_call = per(t.corba_ns, t.corba_calls);
  lf.jsock_ns_per_msg = per(t.jsock_ns, t.jsock_msgs);
  lf.compress_ns_per_kb = per(t.codec_ns, t.codec_kb);
  lf.vrp_retransmissions = last_traced.vrp_retx;
  lf.adoc_level_switches = last_traced.adoc_switches;

  if (!opt.spans_path.empty() && !log.write_jsonl(opt.spans_path)) {
    out.check("spans written", false, opt.spans_path);
  }
  log.fold_into(totals);
  // Attributed: the self time of every span inside the run phase
  // except the legs themselves, whose self time is the benchmark's
  // own harness code.
  std::int64_t attributed = 0;
  for (const auto& [name, s] : totals) {
    if (name.rfind("leg.", 0) != 0 && name != "grid.build") attributed += s.self_ns;
  }
  lf.coverage = static_cast<double>(attributed) / static_cast<double>(t.run_ns);
  const double untraced = median(rates);
  const double traced = median(traced_rates);
  lf.overhead_pct = (untraced / traced - 1.0) * 100.0;
}

}  // namespace perfbench
