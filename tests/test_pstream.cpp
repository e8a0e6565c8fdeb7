// "pstream" parallel-stream driver coverage: establishment, striped
// reassembly (including forced out-of-order arrival), the width-1
// degenerate case, garbage sub-frames (hello and data paths), the
// per-sub-link flow accounting, and byte-identical determinism of a
// striped transfer across two runs.
#include "vlink/pstream_driver.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "grid/grid.hpp"
#include "selector/selector.hpp"
#include "simnet/simnet.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;
namespace ps = padico::vlink::pstream;

namespace {

/// Two nodes joined by the VTHD WAN; the grid wires sysio + pstream.
void wan_pair(gr::Grid& grid, int width) {
  grid.add_nodes(2);
  sn::NetId wan = grid.add_network(sn::profiles::vthd_wan());
  grid.attach(wan, 0);
  grid.attach(wan, 1);
  gr::BuildOptions opts;
  opts.pstream_width = width;
  grid.build(opts);
}

struct Pair {
  std::unique_ptr<vl::Link> a, b;
};

Pair pstream_pair(gr::Grid& grid, pc::Port port) {
  Pair p;
  grid.node(1).vlink().driver("pstream")->listen(
      port, [&p](std::unique_ptr<vl::Link> l) { p.b = std::move(l); });
  grid.node(0).vlink().connect(
      "pstream", {1, port}, [&p](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        p.a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return p.a && p.b; });
  EXPECT_TRUE(p.a && p.b);
  return p;
}

/// The base port node 1's pstream rendezvous on logical `port` uses.
pc::Port rendezvous(gr::Grid& grid, pc::Port port) {
  return dynamic_cast<vl::PstreamDriver&>(
             *grid.node(1).vlink().driver("pstream"))
      .rendezvous_port(port);
}

pc::Bytes pattern(std::size_t n, std::uint8_t salt = 0) {
  pc::Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return b;
}

}  // namespace

TEST(Pstream, StripedTransferIsByteIdentical) {
  gr::Grid grid;
  wan_pair(grid, 3);
  Pair p = pstream_pair(grid, 5200);
  auto* tx = dynamic_cast<vl::PstreamLink*>(p.a.get());
  auto* rx = dynamic_cast<vl::PstreamLink*>(p.b.get());
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(tx->width(), 3);
  EXPECT_EQ(rx->width(), 3);

  // Several writes of awkward sizes; reads cross every chunk and
  // write boundary.
  const pc::Bytes m1 = pattern(100 * 1024 + 7, 1);
  const pc::Bytes m2 = pattern(3, 2);
  const pc::Bytes m3 = pattern(40 * 1024, 3);
  bool done = false;
  pc::Bytes got;
  auto reader = [&]() -> pc::Task {
    pc::Bytes first = co_await p.b->read_n(64 * 1024);
    pc::Bytes rest = co_await p.b->read_n(m1.size() + m2.size() + m3.size() -
                                          64 * 1024);
    got = std::move(first);
    got.insert(got.end(), rest.begin(), rest.end());
    done = true;
  };
  auto t = reader();
  p.a->post_write(pc::view_of(m1));
  p.a->post_write(pc::view_of(m2));
  p.a->post_write(pc::view_of(m3));
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);

  pc::Bytes want = m1;
  want.insert(want.end(), m2.begin(), m2.end());
  want.insert(want.end(), m3.begin(), m3.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(rx->malformed_subframes(), 0u);
}

TEST(Pstream, RoundRobinFlowAccounting) {
  gr::Grid grid;
  wan_pair(grid, 3);
  Pair p = pstream_pair(grid, 5210);
  auto* tx = dynamic_cast<vl::PstreamLink*>(p.a.get());
  auto* rx = dynamic_cast<vl::PstreamLink*>(p.b.get());
  // 5 full chunks: seq 0..4 round-robin over 3 sub-links.
  p.a->post_write(pc::view_of(pattern(5 * ps::kChunkSize)));
  EXPECT_EQ(tx->sub_tx_bytes(0), 2 * ps::kChunkSize);  // seq 0, 3
  EXPECT_EQ(tx->sub_tx_bytes(1), 2 * ps::kChunkSize);  // seq 1, 4
  EXPECT_EQ(tx->sub_tx_bytes(2), 1 * ps::kChunkSize);  // seq 2
  grid.engine().run_until_idle();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rx->sub_rx_bytes(i), tx->sub_tx_bytes(i)) << "sub-link " << i;
    EXPECT_FALSE(rx->sub_poisoned(i));
  }
  EXPECT_EQ(p.b->available(), 5 * ps::kChunkSize);
}

TEST(Pstream, WidthOneDegeneratesToSysio) {
  gr::Grid grid;
  wan_pair(grid, 1);
  Pair p = pstream_pair(grid, 5220);
  auto* tx = dynamic_cast<vl::PstreamLink*>(p.a.get());
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->width(), 1);
  const pc::Bytes msg = pattern(50 * 1024);
  bool done = false;
  pc::Bytes got;
  auto reader = [&]() -> pc::Task {
    got = co_await p.b->read_n(msg.size());
    done = true;
  };
  auto t = reader();
  p.a->post_write(pc::view_of(msg));
  grid.engine().run_while_pending([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(got, msg);  // one sub-link, in-order, same byte stream
}

TEST(Pstream, ConnectRefusedWithoutListener) {
  gr::Grid grid;
  wan_pair(grid, 4);
  std::optional<pc::Status> status;
  grid.node(0).vlink().connect(
      "pstream", {1, 5230}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        status = r.status();
      });
  grid.engine().run_until_idle();
  EXPECT_EQ(status, pc::Status::refused);
}

TEST(Pstream, OutOfOrderSubFramesReassembleInSequence) {
  // Drive the acceptor's reassembly by hand: two raw base connections
  // join a stream group, then the chunk tagged seq 1 is sent (and
  // delivered) strictly before seq 0.  The striped link must still
  // release bytes in sequence order.
  gr::Grid grid;
  wan_pair(grid, 2);
  const pc::Port port = 5240;
  std::unique_ptr<vl::Link> accepted;
  grid.node(1).vlink().driver("pstream")->listen(
      port, [&](std::unique_ptr<vl::Link> l) { accepted = std::move(l); });

  vl::Driver* sysio = grid.node(0).vlink().driver("sysio");
  std::unique_ptr<vl::Link> raw0, raw1;
  sysio->connect({1, rendezvous(grid, port)},
                 [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                   ASSERT_TRUE(r.ok());
                   raw0 = std::move(*r);
                 });
  sysio->connect({1, rendezvous(grid, port)},
                 [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                   ASSERT_TRUE(r.ok());
                   raw1 = std::move(*r);
                 });
  grid.engine().run_while_pending([&] { return raw0 && raw1; });
  ASSERT_TRUE(raw0 && raw1);

  auto hello = [&](std::uint8_t index) {
    ps::SubHeader h;
    h.kind = ps::SubKind::hello;
    h.index = index;
    h.width = 2;
    h.port = port;
    h.id = 0xabc;
    return ps::encode_sub(h);
  };
  raw0->post_write(pc::view_of(hello(0)));
  raw1->post_write(pc::view_of(hello(1)));
  grid.engine().run_while_pending([&] { return accepted != nullptr; });
  ASSERT_TRUE(accepted);

  const pc::Bytes chunk0 = pattern(1000, 0);
  const pc::Bytes chunk1 = pattern(500, 1);
  auto data = [&](std::uint64_t seq, const pc::Bytes& payload) {
    ps::SubHeader h;
    h.kind = ps::SubKind::data;
    h.len = static_cast<std::uint32_t>(payload.size());
    h.id = seq;
    pc::Bytes frame = ps::encode_sub(h);
    frame.insert(frame.end(), payload.begin(), payload.end());
    return frame;
  };
  // seq 1 first — and fully delivered before seq 0 is even posted.
  raw1->post_write(pc::view_of(data(1, chunk1)));
  grid.engine().run_until_idle();
  EXPECT_EQ(accepted->available(), 0u);  // held back: seq 0 missing
  raw0->post_write(pc::view_of(data(0, chunk0)));
  grid.engine().run_until_idle();

  ASSERT_EQ(accepted->available(), chunk0.size() + chunk1.size());
  bool done = false;
  auto reader = [&]() -> pc::Task {
    pc::Bytes got = co_await accepted->read_n(chunk0.size() + chunk1.size());
    pc::Bytes want = chunk0;
    want.insert(want.end(), chunk1.begin(), chunk1.end());
    EXPECT_EQ(got, want);
    done = true;
  };
  auto t = reader();
  EXPECT_TRUE(done);
}

TEST(Pstream, GarbageHelloIsCountedAndDoesNotWedgeTheListener) {
  gr::Grid grid;
  wan_pair(grid, 2);
  const pc::Port port = 5250;
  std::unique_ptr<vl::Link> accepted;
  grid.node(1).vlink().driver("pstream")->listen(
      port, [&](std::unique_ptr<vl::Link> l) { accepted = std::move(l); });
  auto* drv = dynamic_cast<vl::PstreamDriver*>(
      grid.node(1).vlink().driver("pstream"));
  ASSERT_NE(drv, nullptr);

  // A raw peer connects to the rendezvous port and talks garbage.
  std::unique_ptr<vl::Link> raw;
  grid.node(0).vlink().driver("sysio")->connect(
      {1, rendezvous(grid, port)},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok());
        raw = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return raw != nullptr; });
  pc::Rng rng(0x5eed0005);
  pc::Bytes junk(ps::kSubHeaderSize, 0);
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  junk[0] = 0xff;  // never the magic
  raw->post_write(pc::view_of(junk));
  grid.engine().run_until_idle();
  EXPECT_EQ(drv->malformed_hellos(), 1u);
  EXPECT_FALSE(accepted);

  // A real connect on the same port still establishes.
  std::unique_ptr<vl::Link> a;
  grid.node(0).vlink().connect(
      "pstream", {1, port}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && accepted; });
  EXPECT_TRUE(a);
  EXPECT_TRUE(accepted);
}

TEST(Pstream, GarbageDataSubFramePoisonsOnlyItsSubLink) {
  // A width-1 group wired by hand (the wire fuzzer's injection point):
  // one valid chunk, then a garbage sub-frame.  The chunk must survive,
  // the sub-link must be poisoned and counted, and nothing crashes.
  gr::Grid grid;
  wan_pair(grid, 2);
  const pc::Port port = 5260;
  std::unique_ptr<vl::Link> accepted;
  grid.node(1).vlink().driver("pstream")->listen(
      port, [&](std::unique_ptr<vl::Link> l) { accepted = std::move(l); });
  std::unique_ptr<vl::Link> raw;
  grid.node(0).vlink().driver("sysio")->connect(
      {1, rendezvous(grid, port)},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok());
        raw = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return raw != nullptr; });

  ps::SubHeader hello;
  hello.kind = ps::SubKind::hello;
  hello.index = 0;
  hello.width = 1;
  hello.port = port;
  hello.id = 0xdef;
  raw->post_write(pc::view_of(ps::encode_sub(hello)));

  const pc::Bytes chunk = pattern(2048);
  ps::SubHeader h;
  h.kind = ps::SubKind::data;
  h.len = static_cast<std::uint32_t>(chunk.size());
  h.id = 0;
  pc::Bytes frame = ps::encode_sub(h);
  frame.insert(frame.end(), chunk.begin(), chunk.end());
  raw->post_write(pc::view_of(frame));

  pc::Rng rng(0x5eed0006);
  pc::Bytes junk(ps::kSubHeaderSize + 100, 0);
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  junk[0] = 0x00;  // never the magic
  raw->post_write(pc::view_of(junk));
  grid.engine().run_until_idle();

  ASSERT_TRUE(accepted);
  auto* striped = dynamic_cast<vl::PstreamLink*>(accepted.get());
  ASSERT_NE(striped, nullptr);
  EXPECT_EQ(striped->malformed_subframes(), 1u);
  EXPECT_TRUE(striped->sub_poisoned(0));
  // The chunk sequenced before the garbage was already released.
  ASSERT_EQ(accepted->available(), chunk.size());
  bool done = false;
  auto reader = [&]() -> pc::Task {
    pc::Bytes got = co_await accepted->read_n(chunk.size());
    EXPECT_EQ(got, chunk);
    done = true;
  };
  auto t = reader();
  EXPECT_TRUE(done);
}

TEST(Pstream, OversizedHelloWidthIsGarbageNotAStrandedGroup) {
  // The index field is one byte, so width > 255 can never complete;
  // the hello must be rejected outright instead of pinning sub-links
  // in a group that waits forever.
  gr::Grid grid;
  wan_pair(grid, 2);
  const pc::Port port = 5280;
  grid.node(1).vlink().driver("pstream")->listen(
      port, [](std::unique_ptr<vl::Link>) { FAIL() << "must not accept"; });
  auto* drv = dynamic_cast<vl::PstreamDriver*>(
      grid.node(1).vlink().driver("pstream"));
  std::unique_ptr<vl::Link> raw;
  grid.node(0).vlink().driver("sysio")->connect(
      {1, rendezvous(grid, port)},
      [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok());
        raw = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return raw != nullptr; });
  ps::SubHeader h;
  h.kind = ps::SubKind::hello;
  h.index = 0;
  h.width = 300;  // wider than the index field can ever address
  h.port = port;
  h.id = 0x123;
  raw->post_write(pc::view_of(ps::encode_sub(h)));
  grid.engine().run_until_idle();
  EXPECT_EQ(drv->malformed_hellos(), 1u);
  EXPECT_EQ(drv->pending_groups(), 0u);
}

TEST(Pstream, StripedTransferIsDeterministicAcrossRuns) {
  // Acceptance shape: a width-N transfer is byte-identical and its
  // virtual-time trace bit-identical across two seeded runs.
  auto run = [] {
    gr::Grid grid;
    wan_pair(grid, 4);
    Pair p = pstream_pair(grid, 5270);
    const pc::Bytes msg = pattern(300 * 1024);
    bool done = false;
    pc::Bytes got;
    pc::SimTime t_done = 0;
    auto reader = [&]() -> pc::Task {
      got = co_await p.b->read_n(msg.size());
      t_done = grid.engine().now();
      done = true;
    };
    auto t = reader();
    p.a->post_write(pc::view_of(msg));
    grid.engine().run_while_pending([&] { return done; });
    EXPECT_TRUE(done);
    EXPECT_EQ(got, msg);
    return std::make_tuple(std::move(got), t_done, grid.engine().processed());
  };
  EXPECT_EQ(run(), run());
}
