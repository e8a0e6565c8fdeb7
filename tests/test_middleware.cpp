// The middleware personalities layer: the Personality base (CostModel
// charging), the vlink Link as the virtual socket (VIO) they share, and
// the MPI / CORBA / Java-socket personalities end to end on the paper
// testbed.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "middleware/corba/cdr.hpp"
#include "middleware/corba/orb.hpp"
#include "middleware/javasock/jsock.hpp"
#include "middleware/mpi/mpi.hpp"
#include "middleware/personality.hpp"
#include "simnet/simnet.hpp"
#include "vlink/frame_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace mw = padico::middleware;
namespace vl = padico::vlink;

namespace {

/// Concrete personality for exercising the base class directly.
class TestPersonality : public mw::Personality {
 public:
  TestPersonality(std::string name, pc::Engine& engine,
                  mw::CostModel costs = {})
      : Personality(std::move(name), std::move(costs), engine) {}
};

void build_testbed(gr::Grid& grid, int nodes = 2) {
  grid.add_nodes(nodes);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (int i = 0; i < nodes; ++i) {
    grid.attach(san, static_cast<pc::NodeId>(i));
    grid.attach(lan, static_cast<pc::NodeId>(i));
  }
  grid.build();
}

// --- Personality base: cost charging -------------------------------------

TEST(Personality, CostModelMath) {
  mw::CostModel zero_copy{"zc", pc::microseconds(2), pc::microseconds(3), 0};
  EXPECT_EQ(zero_copy.send_cost(1 << 20), pc::microseconds(2));
  EXPECT_EQ(zero_copy.recv_cost(1 << 20), pc::microseconds(3));

  mw::CostModel copying{"cp", pc::microseconds(2), pc::microseconds(3),
                        50'000'000};  // 50 MB/s marshal pass
  // 1 MB at 50 MB/s is ~21 ms of copy on top of the fixed overhead.
  EXPECT_EQ(copying.copy_cost(50'000'000), pc::seconds(1));
  EXPECT_EQ(copying.send_cost(500'000),
            pc::microseconds(2) + pc::milliseconds(10));
}

TEST(Personality, CostClockSerializesCharges) {
  pc::Engine engine;
  mw::CostClock clock(engine);
  const pc::SimTime a = clock.reserve(pc::microseconds(5));
  const pc::SimTime b = clock.reserve(pc::microseconds(5));
  EXPECT_EQ(a, pc::microseconds(5));
  EXPECT_EQ(b, pc::microseconds(10));  // queued behind the first charge
}

TEST(Personality, ChargesShareOneClockAndCountCpu) {
  pc::Engine engine;
  TestPersonality p("probe", engine,
                    {"probe", pc::microseconds(2), pc::microseconds(3), 0});
  EXPECT_EQ(p.charge_send(64), pc::microseconds(2));
  EXPECT_EQ(p.charge_recv(64), pc::microseconds(5));  // behind the send
  EXPECT_EQ(engine.obs().counter("cpu.probe.ns").value(), 5000u);
}

// --- VIO: the virtual socket is a vlink Link ------------------------------

TEST(Vio, ConnectThroughChooserAndEcho) {
  gr::Grid grid;
  build_testbed(grid);
  std::unique_ptr<vl::Link> server, client;
  grid.node(1).vlink().listen(
      5000, [&](std::unique_ptr<vl::Link> l) { server = std::move(l); });
  // No method named: the node's chooser picks the SAN.
  grid.node(0).vlink().connect(
      {1, 5000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        client = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return client && server; });
  ASSERT_TRUE(client && server);
  auto& madio = dynamic_cast<vl::FrameDriver&>(
      *grid.node(0).vlink().driver("madio"));
  EXPECT_EQ(madio.open_connections(), 1u);

  bool echoed = false;
  auto srv = [&]() -> pc::Task {
    pc::Bytes req = co_await server->read_n(5);
    for (auto& b : req) b = static_cast<std::uint8_t>(std::toupper(b));
    server->post_write(pc::view_of(req));
  };
  auto cli = [&]() -> pc::Task {
    client->post_write(pc::view_of("ping!"));
    pc::Bytes back = co_await client->read_n(5);
    EXPECT_EQ(std::string(back.begin(), back.end()), "PING!");
    echoed = true;
  };
  auto t1 = srv();
  auto t2 = cli();
  grid.engine().run_while_pending([&] { return echoed; });
  EXPECT_TRUE(echoed);
}

TEST(Vio, ConnectToSilentPortIsRefused) {
  gr::Grid grid;
  build_testbed(grid);
  std::optional<pc::Status> status;
  grid.node(0).vlink().connect(
      {1, 5999},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) { status = r.status(); });
  grid.engine().run_while_pending([&] { return status.has_value(); });
  EXPECT_EQ(status, pc::Status::refused);
}

// --- MPI --------------------------------------------------------------------

TEST(Mpi, PingPongLatencyMatchesMpichProfile) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5100);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));
  EXPECT_EQ(c0.rank(), 0);
  EXPECT_EQ(c0.size(), 2);
  const int rounds = 16;
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto rank0 = [&]() -> pc::Task {
    pc::Bytes ping(1, 0);
    t0 = grid.engine().now();
    for (int i = 0; i < rounds; ++i) {
      c0.isend(1, 0, pc::view_of(ping));
      co_await c0.recv(1, 0);
    }
    t1 = grid.engine().now();
    done = true;
  };
  auto rank1 = [&]() -> pc::Task {
    pc::Bytes pong(1, 0);
    for (int i = 0; i < rounds; ++i) {
      co_await c1.recv(0, 0);
      c1.isend(0, 0, pc::view_of(pong));
    }
  };
  auto ta = rank1();
  auto tb = rank0();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  const double one_way = pc::to_micros(t1 - t0) / (2.0 * rounds);
  // Paper Table 1: 12.06 us for MPICH-1.2.5 over Myrinet-2000.
  EXPECT_GT(one_way, 9.0);
  EXPECT_LT(one_way, 15.0);
  EXPECT_EQ(c0.seq_gaps(), 0u);
  EXPECT_EQ(c1.seq_gaps(), 0u);
  EXPECT_EQ(c1.dropped(), 0u);
  EXPECT_EQ(c1.messages_received(), static_cast<std::uint64_t>(rounds));
}

TEST(Mpi, ShortForeignFramesAreCountedDropped) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5115);
  padico::mpi::Comm c1(set.at(1));
  // A miswired sender pushes a bare 1-byte circuit message (no MPI
  // envelope) onto the communicator's circuit.
  set.at(0).send(1, pc::view_of("x"));
  grid.engine().run_until_idle();
  EXPECT_EQ(c1.dropped(), 1u);
  EXPECT_EQ(c1.messages_received(), 0u);
}

TEST(Mpi, UnexpectedMessagesQueuePerSourceAndTag) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5110);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));
  // Three sends on two tags land before any recv is posted.
  c0.isend(1, 7, pc::view_of("a"));
  c0.isend(1, 7, pc::view_of("b"));
  c0.isend(1, 9, pc::view_of("c"));
  grid.engine().run_until_idle();
  std::vector<std::string> got;
  bool done = false;
  auto prog = [&]() -> pc::Task {
    pc::Bytes m1 = co_await c1.recv(0, 7);
    pc::Bytes m2 = co_await c1.recv(0, 9);
    pc::Bytes m3 = co_await c1.recv(0, 7);
    got = {std::string(m1.begin(), m1.end()),
           std::string(m2.begin(), m2.end()),
           std::string(m3.begin(), m3.end())};
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(got, (std::vector<std::string>{"a", "c", "b"}));  // FIFO per tag
}

TEST(Mpi, SendCompletesAndSendrecvExchanges) {
  gr::Grid grid;
  build_testbed(grid);
  auto set = grid.make_circuit("mpi", padico::circuit::Group({0, 1}), 0x52,
                               5120);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));
  bool done0 = false, done1 = false;
  auto rank0 = [&]() -> pc::Task {
    co_await c0.send(1, 1, pc::view_of("blocking"));
    pc::Bytes back = co_await c0.sendrecv(1, 2, pc::view_of("swap"), 1, 3);
    EXPECT_EQ(std::string(back.begin(), back.end()), "swapped");
    done0 = true;
  };
  auto rank1 = [&]() -> pc::Task {
    pc::Bytes a = co_await c1.recv(0, 1);
    EXPECT_EQ(a.size(), 8u);
    co_await c1.recv(0, 2);
    c1.isend(0, 3, pc::view_of("swapped"));
    done1 = true;
  };
  auto ta = rank1();
  auto tb = rank0();
  grid.engine().run_while_pending([&] { return done0 && done1; });
  EXPECT_TRUE(done0);
  EXPECT_TRUE(done1);
}

// --- CORBA ------------------------------------------------------------------

TEST(Orb, InvokeRoundTripsArguments) {
  gr::Grid grid;
  build_testbed(grid);
  padico::orb::Orb server(grid.node(1).host(), grid.node(1).vlink(),
                          padico::orb::profiles::omniorb4(), 5200);
  server.activate("calc", [](const std::string& method,
                             std::vector<padico::orb::Any> args)
                      -> std::vector<padico::orb::Any> {
    if (method == "sum") {
      std::uint64_t sum = 0;
      for (const auto& a : args) sum += a.u64();
      return {padico::orb::Any(sum)};
    }
    return args;  // echo
  });
  server.start();
  padico::orb::Orb client(grid.node(0).host(), grid.node(0).vlink(),
                          padico::orb::profiles::omniorb4(), 5201);
  auto ref = server.ref_of("calc");
  bool done = false;
  auto prog = [&]() -> pc::Task {
    // invoke() calls stay out of co_await full-expressions (GCC 12
    // coroutine gotcha; see DESIGN.md "Conventions").
    std::vector<padico::orb::Any> args;
    args.emplace_back(std::uint64_t{30});
    args.emplace_back(std::uint64_t{12});
    const std::string sum_m = "sum";
    auto sum_call = client.invoke(ref, sum_m, std::move(args));
    padico::orb::Reply r = co_await sum_call;
    EXPECT_EQ(r.status, pc::Status::ok);
    EXPECT_EQ(r.results.size(), 1u);
    if (r.results.size() == 1) {
      EXPECT_EQ(r.results[0].u64(), 42u);
    }

    std::vector<padico::orb::Any> echo_args;
    echo_args.emplace_back(std::string("name"));
    echo_args.emplace_back(pc::Bytes{1, 2, 3});
    const std::string echo_m = "echo";
    auto echo_call = client.invoke(ref, echo_m, std::move(echo_args));
    padico::orb::Reply e = co_await echo_call;
    EXPECT_EQ(e.status, pc::Status::ok);
    EXPECT_EQ(e.results.size(), 2u);
    if (e.results.size() == 2) {
      EXPECT_EQ(e.results[0].str(), "name");
      EXPECT_EQ(e.results[1].octets(), (pc::Bytes{1, 2, 3}));
    }
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(client.requests_sent(), 2u);
  EXPECT_EQ(server.protocol_errors(), 0u);
}

TEST(Orb, UnknownObjectAndSilentPortFail) {
  gr::Grid grid;
  build_testbed(grid);
  padico::orb::Orb server(grid.node(1).host(), grid.node(1).vlink(),
                          padico::orb::profiles::mico(), 5210);
  server.start();  // nothing activated
  padico::orb::Orb client(grid.node(0).host(), grid.node(0).vlink(),
                          padico::orb::profiles::mico(), 5211);
  bool done = false;
  auto prog = [&]() -> pc::Task {
    const padico::orb::ObjectRef ghost = server.ref_of("ghost");
    const std::string poke_m = "poke";
    auto ghost_call = client.invoke(ghost, poke_m, {});
    padico::orb::Reply r = co_await ghost_call;
    EXPECT_EQ(r.status, pc::Status::error);  // no such object
    const padico::orb::ObjectRef nowhere{1, 5999, "void"};
    auto nowhere_call = client.invoke(nowhere, poke_m, {});
    padico::orb::Reply n = co_await nowhere_call;
    EXPECT_EQ(n.status, pc::Status::refused);  // nobody listening
    done = true;
  };
  auto t = prog();
  grid.engine().run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
}

// --- Java sockets -----------------------------------------------------------

TEST(Jsock, RoundTripWithJvmCosts) {
  gr::Grid grid;
  build_testbed(grid);
  std::shared_ptr<padico::jsock::JavaSocket> server, client;
  padico::jsock::java_server_socket(
      grid.node(1).vlink(), 5300,
      [&](std::shared_ptr<padico::jsock::JavaSocket> s) {
        server = std::move(s);
      });
  bool done = false;
  pc::SimTime t0 = 0, t1 = 0;
  auto cli = [&]() -> pc::Task {
    auto r = co_await padico::jsock::JavaSocket::connect(
        grid.node(0).vlink(), {1, 5300});
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    client = *r;
    t0 = grid.engine().now();
    co_await client->write(pc::view_of("x"));
    co_await client->read_n(1);
    t1 = grid.engine().now();
    done = true;
  };
  auto srv = [&]() -> pc::Task {
    while (!server) co_await pc::sleep_for(grid.engine(), 100);
    pc::Bytes b = co_await server->read_n(1);
    co_await server->write(pc::view_of(b));
  };
  auto t1_ = srv();
  auto t2_ = cli();
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  // Paper Table 1: ~40 us one-way for Java sockets (a full JNI + copy
  // crossing per call on each side).
  const double one_way = pc::to_micros(t1 - t0) / 2.0;
  EXPECT_GT(one_way, 30.0);
  EXPECT_LT(one_way, 50.0);
  EXPECT_EQ(client->bytes_written(), 1u);
  EXPECT_EQ(client->bytes_read(), 1u);
}

TEST(Jsock, SharedJvmSerializes) {
  // Two sockets post one write each at the same instant.  On one shared
  // JVM the writes queue on its one CPU, so the second leaves exactly
  // one send cost after the first; with a JVM each they leave together.
  // The clients are dropped with their writes in flight: each write
  // event co-owns its link, so the bytes still reach the server.
  const pc::Bytes payload(2, 0x4a);
  const pc::Duration cost = padico::jsock::jvm_costs().send_cost(2);
  auto write_instants = [&](bool shared) {
    gr::Grid grid;
    build_testbed(grid);
    padico::jsock::Jvm jvm(grid.engine());
    padico::jsock::Jvm* vm = shared ? &jvm : nullptr;
    std::vector<std::shared_ptr<padico::jsock::JavaSocket>> servers, clients;
    padico::jsock::java_server_socket(
        grid.node(1).vlink(), 5310,
        [&](std::shared_ptr<padico::jsock::JavaSocket> s) {
          servers.push_back(std::move(s));
        });
    auto open = [&]() -> pc::Task {
      for (int i = 0; i < 2; ++i) {
        auto call = padico::jsock::JavaSocket::connect(grid.node(0).vlink(),
                                                       {1, 5310}, vm);
        auto r = co_await call;
        EXPECT_TRUE(r.ok());
        if (r.ok()) clients.push_back(*r);
      }
    };
    auto t = open();
    grid.engine().run_while_pending(
        [&] { return clients.size() == 2 && servers.size() == 2; });
    std::vector<pc::Duration> left;
    if (clients.size() != 2 || servers.size() != 2) {
      ADD_FAILURE() << "connects did not complete";
      return left;
    }

    const pc::SimTime t0 = grid.engine().now();
    int received = 0;
    auto writer = [&](padico::jsock::JavaSocket& s) -> pc::Task {
      co_await s.write(pc::view_of(payload));
      left.push_back(grid.engine().now() - t0);
    };
    auto reader = [&](padico::jsock::JavaSocket& s) -> pc::Task {
      pc::Bytes got = co_await s.read_n(payload.size());
      EXPECT_EQ(got, payload);
      ++received;
    };
    auto r0 = reader(*servers[0]);
    auto r1 = reader(*servers[1]);
    auto w0 = writer(*clients[0]);
    auto w1 = writer(*clients[1]);
    clients.clear();
    grid.engine().run_while_pending([&] { return received == 2; });
    EXPECT_EQ(received, 2);
    return left;
  };
  EXPECT_EQ(write_instants(true), (std::vector<pc::Duration>{cost, 2 * cost}));
  EXPECT_EQ(write_instants(false), (std::vector<pc::Duration>{cost, cost}));
}

// --- CDR --------------------------------------------------------------------

TEST(Cdr, CopyingAndZeroCopyAgreeOnTheWireImage) {
  pc::Bytes bulk(4096, 0xAB);
  padico::orb::CdrOut copying(true);
  copying.put_string("key");
  copying.put_octets(pc::view_of(bulk));
  padico::orb::CdrOut zero(false);
  zero.put_string("key");
  zero.put_octets(pc::view_of(bulk));
  EXPECT_EQ(copying.flatten(), zero.flatten());
  EXPECT_GT(zero.iov().segments(), 1u);  // the bulk stayed referenced

  padico::orb::CdrIn in(pc::view_of(bulk));
  (void)in.get_u64();
  EXPECT_TRUE(in.ok());
}

TEST(Cdr, TruncatedReadsPoisonTheStream) {
  padico::orb::CdrOut out(true);
  out.put_u32(7);
  pc::Bytes frame = out.flatten();
  padico::orb::CdrIn in(pc::view_of(frame));
  EXPECT_EQ(in.get_u32(), 7u);
  EXPECT_TRUE(in.done());
  (void)in.get_u64();  // past the end
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.get_u32(), 0u);  // sticky
  padico::orb::CdrIn counted(pc::view_of(frame));
  (void)counted.get_octets();  // length 7 > remaining 0
  EXPECT_FALSE(counted.ok());
}

}  // namespace
