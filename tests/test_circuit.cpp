// Madeleine circuit layer: Group rank math, CircuitSet wiring through
// Grid::make_circuit, 2-node and multi-node round trips, SendMode
// semantics end to end, and the establishment / error paths.
#include "madeleine/circuit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "net/madio.hpp"
#include "simnet/simnet.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace cc = padico::circuit;
namespace mad = padico::mad;

namespace {

/// A grid of `n` nodes all attached to one Myrinet-2000 SAN.
void build_san_grid(gr::Grid& grid, int n) {
  grid.add_nodes(n);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  for (int i = 0; i < n; ++i) grid.attach(san, static_cast<pc::NodeId>(i));
  grid.build();
}

std::string to_string(pc::ByteView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

}  // namespace

TEST(CircuitGroup, RankMath) {
  const cc::Group g({7, 3, 5});
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.node(0), 7u);
  EXPECT_EQ(g.node(1), 3u);
  EXPECT_EQ(g.node(2), 5u);
  EXPECT_EQ(g.rank_of(7), 0);
  EXPECT_EQ(g.rank_of(3), 1);
  EXPECT_EQ(g.rank_of(5), 2);
  EXPECT_EQ(g.rank_of(4), -1);
  EXPECT_TRUE(g.contains(3));
  EXPECT_FALSE(g.contains(0));
  EXPECT_THROW(g.node(3), std::out_of_range);
  EXPECT_THROW(g.node(-1), std::out_of_range);
}

TEST(CircuitGroup, RejectsDuplicateMembers) {
  EXPECT_THROW(cc::Group({1, 2, 1}), std::invalid_argument);
  EXPECT_NO_THROW(cc::Group({1, 2, 3}));
}

TEST(Circuit, EstablishmentWiresEveryEndpoint) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("est", cc::Group({0, 1}), 0x10, 4000);
  EXPECT_TRUE(set.established());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.name(), "est");
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(set.at(r).established()) << "rank " << r;
    EXPECT_FALSE(set.at(r).refused());
    EXPECT_EQ(set.at(r).rank(), r);
    EXPECT_EQ(set.at(r).tag(), 0x10);
    EXPECT_EQ(set.at(r).port(), 4000);
    // Channel 0 belongs to MadIO; the first circuit takes channel 1 on
    // every member.
    EXPECT_EQ(set.at(r).channel_id(), 1);
  }
  EXPECT_THROW(set.at(2), std::out_of_range);
  EXPECT_THROW(set.at(-1), std::out_of_range);
}

TEST(Circuit, TwoNodeRoundTrip) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("rt", cc::Group({0, 1}), 0x11, 4010);

  std::vector<std::string> got0, got1;
  set.at(1).set_recv_handler([&](int src, mad::UnpackHandle& h) {
    EXPECT_EQ(src, 0);
    got1.push_back(to_string(h.unpack(h.remaining())));
    set.at(1).send(0, pc::view_of("pong"));
  });
  set.at(0).set_recv_handler([&](int src, mad::UnpackHandle& h) {
    EXPECT_EQ(src, 1);
    got0.push_back(to_string(h.unpack(h.remaining())));
  });

  set.at(0).send(1, pc::view_of("ping"));
  grid.engine().run_until_idle();

  ASSERT_EQ(got1.size(), 1u);
  EXPECT_EQ(got1[0], "ping");
  ASSERT_EQ(got0.size(), 1u);
  EXPECT_EQ(got0[0], "pong");
  EXPECT_EQ(set.at(0).messages_sent(), 1u);
  EXPECT_EQ(set.at(0).messages_received(), 1u);
  EXPECT_EQ(set.at(1).messages_sent(), 1u);
  EXPECT_EQ(set.at(1).messages_received(), 1u);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(set.at(r).dropped(), 0u) << "rank " << r;
    EXPECT_EQ(set.at(r).seq_gaps(), 0u) << "rank " << r;
  }
}

TEST(Circuit, FourNodeRingRoundTrip) {
  gr::Grid grid;
  build_san_grid(grid, 4);
  gr::CircuitSet set =
      grid.make_circuit("ring", cc::Group({0, 1, 2, 3}), 0x12, 4020);

  // A token circles the ring twice; every hop checks who sent it.
  const int laps = 2;
  std::vector<int> visits;
  for (int r = 0; r < 4; ++r) {
    set.at(r).set_recv_handler([&, r](int src, mad::UnpackHandle& h) {
      EXPECT_EQ(src, (r + 3) % 4);
      EXPECT_EQ(to_string(h.unpack(h.remaining())), "token");
      visits.push_back(r);
      if (static_cast<int>(visits.size()) < laps * 4) {
        set.at(r).send((r + 1) % 4, pc::view_of("token"));
      }
    });
  }
  set.at(0).send(1, pc::view_of("token"));
  grid.engine().run_until_idle();

  ASSERT_EQ(visits.size(), static_cast<std::size_t>(laps * 4));
  const std::vector<int> expected = {1, 2, 3, 0, 1, 2, 3, 0};
  EXPECT_EQ(visits, expected);
}

TEST(Circuit, GroupOrderDefinesRanksNotNodeIds) {
  gr::Grid grid;
  build_san_grid(grid, 4);
  // Ordered list {3, 1}: node 3 is rank 0 (the root), node 1 is rank 1.
  gr::CircuitSet set = grid.make_circuit("rev", cc::Group({3, 1}), 0x13, 4030);
  EXPECT_EQ(set.group().node(0), 3u);
  EXPECT_EQ(set.group().rank_of(1), 1);

  int from = -1;
  set.at(1).set_recv_handler(
      [&](int src, mad::UnpackHandle&) { from = src; });
  set.at(0).send(1, pc::view_of("x"));
  grid.engine().run_until_idle();
  EXPECT_EQ(from, 0);
}

TEST(Circuit, SendModeHonoredEndToEnd) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("sm", cc::Group({0, 1}), 0x14, 4040);

  std::vector<std::string> segs;
  set.at(1).set_recv_handler([&](int, mad::UnpackHandle& h) {
    segs.push_back(to_string(h.unpack(4)));
    segs.push_back(to_string(h.unpack(4)));
    EXPECT_EQ(h.remaining(), 0u);
  });

  pc::Bytes copied(4, 'A');
  pc::Bytes borrowed(4, 'B');
  mad::PackHandle h = set.at(0).begin(1);
  h.pack(pc::view_of(copied), mad::SendMode::safer);
  h.pack(pc::view_of(borrowed), mad::SendMode::later);
  // safer snapshots at pack time; later borrows the caller's buffer
  // until the flush, so this mutation IS the payload.
  copied.assign(4, 'X');
  borrowed.assign(4, 'Y');
  set.at(0).end(std::move(h));
  grid.engine().run_until_idle();

  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], "AAAA");
  EXPECT_EQ(segs[1], "YYYY");
}

TEST(Circuit, CheaperModeBorrowsLikeLater) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("ch", cc::Group({0, 1}), 0x15, 4050);

  std::string got;
  set.at(1).set_recv_handler([&](int, mad::UnpackHandle& h) {
    got = to_string(h.unpack(h.remaining()));
  });
  pc::Bytes buf(3, 'c');
  mad::PackHandle h = set.at(0).begin(1);
  h.pack(pc::view_of(buf), mad::SendMode::cheaper);
  buf.assign(3, 'Z');
  set.at(0).end(std::move(h));
  grid.engine().run_until_idle();
  EXPECT_EQ(got, "ZZZ");
}

TEST(Circuit, OverlappingGroupsAgreeOnChannels) {
  gr::Grid grid;
  build_san_grid(grid, 3);
  gr::CircuitSet a = grid.make_circuit("a", cc::Group({0, 1}), 0x16, 4060);
  gr::CircuitSet b = grid.make_circuit("b", cc::Group({1, 2}), 0x17, 4061);
  // Channel ids are grid-allocated: node 1 is a member of both circuits
  // and must agree with nodes 0 and 2 about which channel is which.
  EXPECT_EQ(a.at(0).channel_id(), 1);
  EXPECT_EQ(a.at(1).channel_id(), 1);
  EXPECT_EQ(b.at(0).channel_id(), 2);
  EXPECT_EQ(b.at(1).channel_id(), 2);

  int a_got = 0, b_got = 0;
  a.at(1).set_recv_handler([&](int, mad::UnpackHandle&) { ++a_got; });
  b.at(0).set_recv_handler([&](int, mad::UnpackHandle&) { ++b_got; });
  a.at(0).send(1, pc::view_of("to-a"));   // node 0 -> node 1 on circuit a
  b.at(1).send(0, pc::view_of("to-b"));   // node 2 -> node 1 on circuit b
  grid.engine().run_until_idle();
  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a.at(1).dropped(), 0u);
  EXPECT_EQ(b.at(0).dropped(), 0u);
}

TEST(Circuit, DeliveriesWithoutHandlerCountAsDropped) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("nh", cc::Group({0, 1}), 0x18, 4070);
  set.at(0).send(1, pc::view_of("lost"));
  grid.engine().run_until_idle();
  EXPECT_EQ(set.at(1).messages_received(), 1u);
  EXPECT_EQ(set.at(1).dropped(), 1u);
}

TEST(Circuit, MakeCircuitErrorPaths) {
  {
    gr::Grid grid;
    grid.add_nodes(2);
    EXPECT_THROW(grid.make_circuit("x", cc::Group({0, 1}), 1, 4080),
                 std::logic_error);
  }
  {
    gr::Grid grid;
    build_san_grid(grid, 2);
    EXPECT_THROW(grid.make_circuit("x", cc::Group(std::vector<pc::NodeId>{}),
                                   1, 4081),
                 std::invalid_argument);
    EXPECT_THROW(grid.make_circuit("x", cc::Group({0, 5}), 1, 4082),
                 std::out_of_range);
  }
  {
    // Node 2 exists but has no SAN attachment.
    gr::Grid grid;
    grid.add_nodes(3);
    sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
    sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
    grid.attach(san, 0);
    grid.attach(san, 1);
    grid.attach(lan, 2);
    grid.build();
    EXPECT_THROW(grid.make_circuit("x", cc::Group({0, 2}), 1, 4083),
                 std::invalid_argument);
  }
  {
    // Both nodes have a SAN, but not the SAME SAN: validation must
    // reject the group up front instead of hanging in establishment.
    gr::Grid grid;
    grid.add_nodes(2);
    sn::NetId san_a = grid.add_network(sn::profiles::myrinet2000());
    sn::NetId san_b = grid.add_network(sn::profiles::myrinet2000());
    grid.attach(san_a, 0);
    grid.attach(san_b, 1);
    grid.build();
    EXPECT_THROW(grid.make_circuit("x", cc::Group({0, 1}), 1, 4084),
                 std::invalid_argument);
  }
  {
    // A manually opened channel squats id 1 on node 0: allocation must
    // skip to the lowest id free on EVERY member.
    gr::Grid grid;
    build_san_grid(grid, 2);
    grid.node(0).madio()->madeleine().open_channel();  // takes id 1
    gr::CircuitSet set = grid.make_circuit("x", cc::Group({0, 1}), 1, 4085);
    EXPECT_EQ(set.at(0).channel_id(), 2);
    EXPECT_EQ(set.at(1).channel_id(), 2);
  }
}

TEST(Circuit, ChannelIdsRecycleAfterDestruction) {
  // A long-lived grid that repeatedly wires and tears down circuits
  // must never exhaust channel ids: destruction closes the channel.
  gr::Grid grid;
  build_san_grid(grid, 2);
  for (int i = 0; i < 300; ++i) {
    gr::CircuitSet set =
        grid.make_circuit("cycle", cc::Group({0, 1}), 0x1C, 4120);
    EXPECT_EQ(set.at(0).channel_id(), 1) << "iteration " << i;
  }
  EXPECT_FALSE(grid.node(0).madio()->madeleine().channel_open(1));
}

TEST(Circuit, AbandonedPackHandleBurnsNoSequence) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("ab", cc::Group({0, 1}), 0x1D, 4130);
  int got = 0;
  set.at(1).set_recv_handler([&](int, mad::UnpackHandle&) { ++got; });
  {
    mad::PackHandle h = set.at(0).begin(1);
    h.pack(pc::view_of("never sent"));
    // Dropped without end(): the sequence is only consumed at flush,
    // so the next real send must arrive gap-free.
  }
  set.at(0).send(1, pc::view_of("real"));
  grid.engine().run_until_idle();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(set.at(1).seq_gaps(), 0u);
  EXPECT_EQ(set.at(0).messages_sent(), 1u);
}

TEST(Circuit, SendRankValidation) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("rv", cc::Group({0, 1}), 0x19, 4090);
  EXPECT_THROW(set.at(0).send(0, pc::view_of("self")), std::invalid_argument);
  EXPECT_THROW(set.at(0).send(2, pc::view_of("none")), std::out_of_range);
  EXPECT_THROW(set.at(0).begin(-1), std::out_of_range);
}

TEST(Circuit, MismatchedEstablishmentIsRefused) {
  // Hand-wire endpoints whose configurations diverge (different tags
  // on one channel id): the root must refuse the connect, and the
  // refused member must record it — the wire-level misconfiguration
  // detector make_circuit can never trip on its own.
  gr::Grid grid;
  build_san_grid(grid, 2);
  cc::Group g({0, 1});
  cc::Circuit root("mm", g, 0, /*tag=*/1, /*port=*/5000,
                   grid.node(0).arbitration(),
                   grid.node(0).madio()->madeleine(),
                   /*channel_id=*/9);
  cc::Circuit peer("mm", g, 1, /*tag=*/2, /*port=*/5000,
                   grid.node(1).arbitration(),
                   grid.node(1).madio()->madeleine(),
                   /*channel_id=*/9);
  grid.engine().run_until_idle();
  EXPECT_FALSE(root.established());
  EXPECT_FALSE(peer.established());
  EXPECT_TRUE(peer.refused());
  EXPECT_FALSE(root.refused());  // roots can never be refused
  EXPECT_EQ(root.dropped(), 1u);  // the mismatched connect
}

TEST(Circuit, EndRejectsForeignHandles) {
  gr::Grid grid;
  build_san_grid(grid, 3);
  gr::CircuitSet a = grid.make_circuit("fa", cc::Group({0, 1, 2}), 0x20, 4140);
  gr::CircuitSet b = grid.make_circuit("fb", cc::Group({0, 1, 2}), 0x21, 4141);
  {
    // Same group, same ranks — but the handle belongs to circuit a's
    // channel, so flushing it through b must be rejected, not silently
    // burn one of b's sequence numbers.
    mad::PackHandle h = a.at(0).begin(1);
    h.pack(pc::view_of("x"));
    EXPECT_THROW(b.at(0).end(std::move(h)), std::invalid_argument);
  }
  {
    // Within one set: a handle opened by rank 0 flushed through rank 1
    // would misattribute the sender (or even self-address), so it is
    // rejected too.
    mad::PackHandle h = a.at(0).begin(2);
    h.pack(pc::view_of("x"));
    EXPECT_THROW(a.at(1).end(std::move(h)), std::invalid_argument);
  }
}

TEST(Circuit, DestructionWithQueuedDeliveryIsSafe) {
  gr::Grid grid;
  build_san_grid(grid, 2);
  auto set = std::make_unique<gr::CircuitSet>(
      grid.make_circuit("dq", cc::Group({0, 1}), 0x1B, 4110));
  int calls = 0;
  set->at(1).set_recv_handler([&](int, mad::UnpackHandle&) { ++calls; });
  set->at(0).send(1, pc::view_of("x"));
  // Stop as soon as the endpoint has accepted the message but before
  // the arbitration pump has dispatched its handler.
  grid.engine().run_while_pending(
      [&] { return set->at(1).messages_received() == 1; });
  EXPECT_EQ(calls, 0);
  set.reset();  // the queued dispatch now targets a dead circuit
  grid.engine().run_until_idle();  // must no-op, not use-after-free
  EXPECT_EQ(calls, 0);
}

TEST(Circuit, TrafficCompetesInTheArbitrationPump) {
  // Circuit deliveries ride the mad side of the node's Arbitration, so they
  // show up in the same dispatch accounting as MadIO traffic.
  gr::Grid grid;
  build_san_grid(grid, 2);
  gr::CircuitSet set = grid.make_circuit("arb", cc::Group({0, 1}), 0x1A, 4100);
  const std::uint64_t before =
      grid.node(1).arbitration().dispatched(padico::net::Substrate::mad);
  int got = 0;
  set.at(1).set_recv_handler([&](int, mad::UnpackHandle&) { ++got; });
  set.at(0).send(1, pc::view_of("x"));
  grid.engine().run_until_idle();
  EXPECT_EQ(got, 1);
  EXPECT_GT(grid.node(1).arbitration().dispatched(padico::net::Substrate::mad),
            before);
}
