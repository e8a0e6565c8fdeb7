// The MadIO/arbitration layer: SAN driver cost model and
// rendezvous, Madeleine channels, MadIO tag multiplexing, the
// header-combining code paths, and the SysIO/MadIO arbitration pump.
#include "net/madio.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "drivers/san_driver.hpp"
#include "grid/grid.hpp"
#include "madeleine/madeleine.hpp"
#include "net/madio_driver.hpp"
#include "net/arbitration.hpp"
#include "simnet/simnet.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;
namespace dr = padico::drv;
namespace md = padico::mad;
namespace net = padico::net;

namespace {

// The full stack on a two-node Myrinet, wired by hand (no Grid).
struct Stack {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san;
  std::unique_ptr<pc::Host> h0, h1;
  std::unique_ptr<dr::SanDriver> d0, d1;
  std::unique_ptr<md::Madeleine> m0, m1;
  net::Arbitration a0{engine}, a1{engine};
  std::unique_ptr<net::MadIO> io0, io1;

  explicit Stack(bool combining = true)
      : san(fabric.add_network(sn::profiles::myrinet2000())) {
    fabric.attach(san, 0);
    fabric.attach(san, 1);
    h0 = std::make_unique<pc::Host>(engine, 0);
    h1 = std::make_unique<pc::Host>(engine, 1);
    d0 = std::make_unique<dr::SanDriver>(*h0, fabric, san, dr::gm_costs(),
                                         "gm");
    d1 = std::make_unique<dr::SanDriver>(*h1, fabric, san, dr::gm_costs(),
                                         "gm");
    m0 = std::make_unique<md::Madeleine>(*h0, *d0);
    m1 = std::make_unique<md::Madeleine>(*h1, *d1);
    io0 = std::make_unique<net::MadIO>(a0, *m0, combining);
    io1 = std::make_unique<net::MadIO>(a1, *m1, combining);
  }

};

}  // namespace

// ---------------------------------------------------------------------------
// SanDriver
// ---------------------------------------------------------------------------

TEST(SanDriver, EagerDeliveryPaysInjectionAndWireCosts) {
  Stack s;
  pc::SimTime arrival = 0;
  pc::Bytes got;
  s.d1->set_receiver([&](pc::NodeId src, pc::Bytes msg) {
    EXPECT_EQ(src, 0u);
    arrival = s.engine.now();
    got = std::move(msg);
  });
  s.d0->send(1, pc::Bytes(16, 0x42));
  s.engine.run_until_idle();

  ASSERT_EQ(got.size(), 16u);
  EXPECT_EQ(got[0], 0x42);
  EXPECT_EQ(s.d0->eager_sent(), 1u);
  // One-way = injection (per-message + per-byte) + tx + 7 us latency.
  EXPECT_GT(pc::to_micros(arrival), 7.5);
  EXPECT_LT(pc::to_micros(arrival), 9.0);
}

TEST(SanDriver, BackToBackSendsSerialiseOnTheHostCpu) {
  Stack s;
  std::vector<pc::SimTime> arrivals;
  s.d1->set_receiver(
      [&](pc::NodeId, pc::Bytes) { arrivals.push_back(s.engine.now()); });
  for (int i = 0; i < 4; ++i) s.d0->send(1, pc::Bytes(8, 1));
  s.engine.run_until_idle();

  ASSERT_EQ(arrivals.size(), 4u);
  // Injection cost spaces the messages at least per_message apart.
  const pc::Duration gap = arrivals[1] - arrivals[0];
  EXPECT_GE(gap, dr::gm_costs().per_message);
  for (std::size_t i = 2; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], gap);
  }
}

TEST(SanDriver, LargeMessagesRendezvous) {
  Stack s;
  const std::size_t big = dr::gm_costs().eager_threshold + 1;
  pc::SimTime small_arrival = 0, big_arrival = 0;
  std::vector<std::size_t> order;
  s.d1->set_receiver([&](pc::NodeId, pc::Bytes msg) {
    order.push_back(msg.size());
    (msg.size() == big ? big_arrival : small_arrival) = s.engine.now();
  });
  const std::uint64_t before = s.fabric.network(s.san).messages_sent();
  s.d0->send(1, pc::Bytes(big, 0x99));
  s.d0->send(1, pc::Bytes(4, 0x01));  // must NOT overtake the big one
  s.engine.run_until_idle();

  EXPECT_EQ(s.d0->rendezvous_sent(), 1u);
  EXPECT_EQ(s.d0->eager_sent(), 1u);
  // REQ + ACK + DATA + the eager message = 4 wire messages.
  EXPECT_EQ(s.fabric.network(s.san).messages_sent() - before, 4u);
  // FIFO across the eager / rendezvous boundary.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], big);
  EXPECT_EQ(order[1], 4u);
  EXPECT_GT(big_arrival, pc::microseconds(21));  // REQ + ACK + data wire trips
  EXPECT_GT(small_arrival, big_arrival);
}

TEST(SanDriver, RefusesLossyNetworks) {
  // GM-style SANs are reliable hardware; the MadIO header pairing and
  // the rendezvous protocol depend on it.  A lossy model must be
  // rejected loudly at construction, not corrupt streams silently.
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId net =
      fabric.add_network(sn::profiles::transcontinental_internet(0.05));
  fabric.attach(net, 0);
  pc::Host host(engine, 0);
  EXPECT_THROW(dr::SanDriver(host, fabric, net, dr::gm_costs(), "gm"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Madeleine
// ---------------------------------------------------------------------------

TEST(Madeleine, ChannelsDemultiplexAndSegmentsRoundTrip) {
  Stack s;
  md::Channel* tx_a = s.m0->open_channel();
  md::Channel* tx_b = s.m0->open_channel();
  md::Channel* rx_a = s.m1->open_channel();
  md::Channel* rx_b = s.m1->open_channel();
  ASSERT_EQ(tx_a->id, rx_a->id);
  ASSERT_EQ(tx_b->id, rx_b->id);

  std::string got_a, got_b;
  s.m1->set_recv_handler(*rx_a, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView head = u.unpack(3);
    const pc::ByteView tail = u.unpack(64);  // clamped to what is left
    got_a.assign(head.begin(), head.end());
    got_a.append(tail.begin(), tail.end());
    EXPECT_EQ(u.remaining(), 0u);
  });
  s.m1->set_recv_handler(*rx_b, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView v = u.remaining_view();
    got_b.assign(v.begin(), v.end());
  });

  md::PackHandle pa = s.m0->begin_packing(*tx_a, 1);
  pa.pack(pc::view_of("one"), md::SendMode::safer);
  pa.pack(pc::view_of("-two"), md::SendMode::later);
  s.m0->end_packing(std::move(pa));

  md::PackHandle pb = s.m0->begin_packing(*tx_b, 1);
  pb.pack(pc::view_of("channel-b"), md::SendMode::cheaper);
  s.m0->end_packing(std::move(pb));
  s.engine.run_until_idle();

  EXPECT_EQ(got_a, "one-two");
  EXPECT_EQ(got_b, "channel-b");
  EXPECT_EQ(s.m1->messages_received(), 2u);
  EXPECT_EQ(s.m1->malformed(), 0u);
}

// ---------------------------------------------------------------------------
// MadIO
// ---------------------------------------------------------------------------

TEST(MadIO, TagsMultiplexOverOneChannel) {
  Stack s;
  std::string got1, got2;
  s.io1->set_handler(1, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView v = u.remaining_view();
    got1.assign(v.begin(), v.end());
  });
  s.io1->set_handler(2, [&](pc::NodeId, md::UnpackHandle& u) {
    const pc::ByteView v = u.remaining_view();
    got2.assign(v.begin(), v.end());
  });
  s.io0->send(1, 1, pc::view_of("for tag one"));
  s.io0->send(2, 1, pc::view_of("for tag two"));
  s.engine.run_until_idle();
  EXPECT_EQ(got1, "for tag one");
  EXPECT_EQ(got2, "for tag two");
  EXPECT_EQ(s.io1->dropped(), 0u);
  EXPECT_EQ(s.io1->seq_gaps(), 0u);  // reliable SAN: gap-free sequences
}

TEST(MadIO, CombiningSendsOneHardwareMessagePerSend) {
  for (const bool combining : {true, false}) {
    Stack s(combining);
    int delivered = 0;
    s.io1->set_handler(7, [&](pc::NodeId, md::UnpackHandle&) { ++delivered; });
    const std::uint64_t before = s.fabric.network(s.san).messages_sent();
    for (int i = 0; i < 5; ++i) s.io0->send(7, 1, pc::view_of("x"));
    s.engine.run_until_idle();
    EXPECT_EQ(delivered, 5);
    // Combined: header rides the data message.  Naive: every send costs
    // a second hardware message for the detached header.
    EXPECT_EQ(s.fabric.network(s.san).messages_sent() - before,
              combining ? 5u : 10u);
    EXPECT_EQ(s.io1->seq_gaps(), 0u);
  }
}

TEST(MadIO, CombiningStrictlyLowersDeliveryLatency) {
  auto one_way = [](bool combining) {
    Stack s(combining);
    pc::SimTime arrival = 0;
    s.io1->set_handler(3, [&](pc::NodeId, md::UnpackHandle&) {
      arrival = s.engine.now();
    });
    s.io0->send(3, 1, pc::view_of("ping"));
    s.engine.run_until_idle();
    return arrival;
  };
  const pc::SimTime combined = one_way(true);
  const pc::SimTime naive = one_way(false);
  EXPECT_LT(combined, naive);
  // The naive path pays an extra per-message injection (partly offset
  // by the 24 header bytes its payload message no longer carries).
  EXPECT_GE(naive - combined, dr::gm_costs().per_message / 2);
}

TEST(MadIO, UnknownTagIsDroppedCleanly) {
  // A tag that never had a handler and one whose handler was cleared
  // drop alike, in both combining modes: one drop per send, no handler
  // runs — not even the one installed on a neighbouring tag — and a
  // drop never counts as a dispatch.
  for (const bool combining : {true, false}) {
    for (const bool cleared : {false, true}) {
      SCOPED_TRACE(std::string(combining ? "combining" : "naive") +
                   (cleared ? ", cleared handler" : ", never handled"));
      Stack s(combining);
      int ran = 0;
      s.io1->set_handler(41, [&](pc::NodeId, md::UnpackHandle&) { ++ran; });
      if (cleared) {
        s.io1->set_handler(42, [&](pc::NodeId, md::UnpackHandle&) { ++ran; });
        s.io1->set_handler(42, {});
      }
      for (int i = 0; i < 3; ++i) {
        s.io0->send(42, 1, pc::view_of("nobody listens"));
      }
      s.engine.run_until_idle();
      EXPECT_EQ(s.io1->dropped(), 3u);
      EXPECT_EQ(ran, 0);
      EXPECT_EQ(s.io1->seq_gaps(), 0u);
      EXPECT_EQ(s.io0->dropped(), 0u);
      const auto& dispatches = s.engine.obs().counter("madio.dispatches");
      EXPECT_EQ(dispatches.value(), 0u);

      // The neighbouring handled tag still counts its one dispatch.
      s.io0->send(41, 1, pc::view_of("handled"));
      s.engine.run_until_idle();
      EXPECT_EQ(ran, 1);
      EXPECT_EQ(dispatches.value(), 1u);
      EXPECT_EQ(s.io1->dropped(), 3u);
    }
  }
}

// ---------------------------------------------------------------------------
// Arbitration
// ---------------------------------------------------------------------------

TEST(Arbitration, WeightsShapeTheInterleaveAndKeepFifoPerClass) {
  auto dispatch_order = [](int sys_w, int mad_w) {
    pc::Engine engine;
    net::Arbitration arb(engine);
    arb.set_policy(sys_w, mad_w);
    std::string order;
    for (int i = 0; i < 4; ++i) {
      arb.enqueue(net::Substrate::sys,
                  [&order, i] { order += static_cast<char>('a' + i); });
      arb.enqueue(net::Substrate::mad,
                  [&order, i] { order += static_cast<char>('0' + i); });
    }
    engine.run_until_idle();
    return order;
  };
  // mad substrate is polled first; FIFO must hold within each class.
  EXPECT_EQ(dispatch_order(1, 1), "0a1b2c3d");
  EXPECT_EQ(dispatch_order(1, 4), "0123abcd");
  EXPECT_EQ(dispatch_order(4, 1), "0abcd123");
}

TEST(Arbitration, SwitchingSubstratesCostsMoreThanStaying) {
  pc::Engine engine;
  net::Arbitration arb(engine);
  arb.set_policy(1, 2);  // mad turn covers both mad events
  std::vector<pc::SimTime> stamps;
  auto mark = [&] { stamps.push_back(engine.now()); };
  arb.enqueue(net::Substrate::mad, mark);
  arb.enqueue(net::Substrate::mad, mark);
  arb.enqueue(net::Substrate::sys, mark);  // forces one switch
  engine.run_until_idle();
  ASSERT_EQ(stamps.size(), 3u);
  const pc::Duration stay = stamps[1] - stamps[0];
  const pc::Duration swap = stamps[2] - stamps[1];
  EXPECT_EQ(stay, arb.dispatch_cost());
  EXPECT_EQ(swap, arb.dispatch_cost() + arb.switch_cost());
  EXPECT_EQ(arb.dispatched(net::Substrate::mad), 2u);
  EXPECT_EQ(arb.dispatched(net::Substrate::sys), 1u);
}

TEST(Arbitration, BacklogThatNeverDrainsStaysFifo) {
  // Each dispatch queues two more events, so the sys queue grows past
  // its compaction point many times without ever running empty.
  pc::Engine engine;
  net::Arbitration arb(engine);
  std::vector<int> order;
  int next = 0;
  std::function<void(int)> fire = [&](int id) {
    order.push_back(id);
    for (int c = 0; c < 2 && next < 1000; ++c) {
      const int child = next++;
      arb.enqueue(net::Substrate::sys, [&fire, child] { fire(child); });
    }
  };
  const int root = next++;
  arb.enqueue(net::Substrate::sys, [&fire, root] { fire(root); });
  engine.run_until_idle();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(arb.queued(net::Substrate::sys), 0u);
  EXPECT_EQ(arb.dispatched(net::Substrate::sys), 1000u);
}

TEST(Arbitration, PolicyClampsToPositiveWeights) {
  pc::Engine engine;
  net::Arbitration arb(engine);
  arb.set_policy(0, -3);
  EXPECT_EQ(arb.sys_weight(), 1);
  EXPECT_EQ(arb.mad_weight(), 1);
}

// ---------------------------------------------------------------------------
// Grid integration: the "madio" vlink method over the full stack
// ---------------------------------------------------------------------------

namespace {

double grid_madio_latency_us(bool combining) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  grid.attach(san, 0);
  grid.attach(san, 1);
  gr::BuildOptions opts;
  opts.header_combining = combining;
  grid.build(opts);

  std::unique_ptr<vl::Link> a, b;
  grid.node(1).vlink().driver("madio")->listen(
      7100, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      "madio", {1, 7100}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });

  const int rounds = 16;
  pc::SimTime t0 = 0, t1 = 0;
  bool done = false;
  auto client = [&]() -> pc::Task {
    t0 = grid.engine().now();
    for (int i = 0; i < rounds; ++i) {
      a->post_write(pc::view_of("x"));
      co_await a->read_n(1);
    }
    t1 = grid.engine().now();
    done = true;
  };
  auto server = [&]() -> pc::Task {
    for (int i = 0; i < rounds; ++i) {
      pc::Bytes ball = co_await b->read_n(1);
      b->post_write(pc::view_of(ball));
    }
  };
  auto ts = server();
  auto tc = client();
  grid.engine().run_while_pending([&] { return done; });
  return pc::to_micros(t1 - t0) / (2.0 * rounds);
}

}  // namespace

TEST(GridMadIO, NodeExposesTheArbitrationStack) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (pc::NodeId i = 0; i < 2; ++i) {
    grid.attach(san, i);
    grid.attach(lan, i);
  }
  grid.build();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NE(grid.node(i).madio(), nullptr);
    EXPECT_EQ(grid.node(i).madio(1), nullptr);  // only one SAN
    EXPECT_TRUE(grid.node(i).madio()->header_combining());
    grid.node(i).arbitration().set_policy(2, 3);
    EXPECT_EQ(grid.node(i).arbitration().mad_weight(), 3);
  }
}

TEST(GridMadIO, HeaderCombiningAblationShowsAtTheVlinkLevel) {
  const double combined = grid_madio_latency_us(true);
  const double naive = grid_madio_latency_us(false);
  EXPECT_LT(combined, naive);
  // Full stack one-way through MadIO on Myrinet: latency (7 us) +
  // injection + headers; the paper's full-stack figure is ~10 us.
  EXPECT_GT(combined, 7.5);
  EXPECT_LT(combined, 12.0);
}

TEST(GridMadIO, SysAndMadTrafficShareOneArbitration) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  for (pc::NodeId i = 0; i < 2; ++i) {
    grid.attach(san, i);
    grid.attach(lan, i);
  }
  grid.build();

  std::unique_ptr<vl::Link> sa, sb, la, lb;
  grid.node(1).vlink().driver("madio")->listen(
      7200, [&](std::unique_ptr<vl::Link> l) { sb = std::move(l); });
  grid.node(1).vlink().driver("sysio")->listen(
      7201, [&](std::unique_ptr<vl::Link> l) { lb = std::move(l); });
  grid.node(0).vlink().connect(
      "madio", {1, 7200},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) { sa = std::move(*r); });
  grid.node(0).vlink().connect(
      "sysio", {1, 7201},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) { la = std::move(*r); });
  grid.engine().run_while_pending([&] { return sa && sb && la && lb; });
  ASSERT_TRUE(sa && sb && la && lb);

  sa->post_write(pc::view_of("san"));
  la->post_write(pc::view_of("lan"));
  grid.engine().run_until_idle();
  EXPECT_EQ(sb->available(), 3u);
  EXPECT_EQ(lb->available(), 3u);

  // Both substrates dispatched through node 1's single arbitration.
  net::Arbitration& arb = grid.node(1).arbitration();
  EXPECT_GT(arb.dispatched(net::Substrate::mad), 0u);
  EXPECT_GT(arb.dispatched(net::Substrate::sys), 0u);
}
