#include "vlink/vlink.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "simnet/simnet.hpp"
#include "vlink/net_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace vl = padico::vlink;

namespace {

// Minimal two-node rig wired by hand (no Grid): engine, one network,
// one Host + VLink + NetDriver per node.
struct Rig {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId net_id;
  std::unique_ptr<pc::Host> h0, h1;
  std::unique_ptr<vl::VLink> v0, v1;

  explicit Rig(const sn::LinkModel& model = sn::profiles::myrinet2000())
      : net_id(fabric.add_network(model)) {
    fabric.attach(net_id, 0);
    fabric.attach(net_id, 1);
    h0 = std::make_unique<pc::Host>(engine, 0);
    h1 = std::make_unique<pc::Host>(engine, 1);
    v0 = std::make_unique<vl::VLink>(*h0);
    v1 = std::make_unique<vl::VLink>(*h1);
    v0->add_driver(std::make_unique<vl::NetDriver>(
        *h0, fabric.network(net_id), model.driver));
    v1->add_driver(std::make_unique<vl::NetDriver>(
        *h1, fabric.network(net_id), model.driver));
  }

  std::pair<std::unique_ptr<vl::Link>, std::unique_ptr<vl::Link>> link_pair(
      const std::string& method, pc::Port port) {
    std::unique_ptr<vl::Link> a, b;
    v1->driver(method)->listen(
        port, [&b](std::unique_ptr<vl::Link> l) { b = std::move(l); });
    v0->connect(method, {1, port},
                [&a](pc::Result<std::unique_ptr<vl::Link>> r) {
                  ASSERT_TRUE(r.ok());
                  a = std::move(*r);
                });
    engine.run_while_pending([&] { return a && b; });
    EXPECT_TRUE(a);
    EXPECT_TRUE(b);
    return {std::move(a), std::move(b)};
  }
};

}  // namespace

TEST(VLink, ConnectEstablishesBothEnds) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4000);
  EXPECT_EQ(a->remote_node(), 1u);
  EXPECT_EQ(b->remote_node(), 0u);
  EXPECT_EQ(a->remote_port(), 4000);
  EXPECT_EQ(b->local_port(), 4000);
  // Connection setup costs one round trip of virtual time.
  EXPECT_GT(rig.engine.now(), 0u);
}

TEST(VLink, ConnectRefusedWithoutListener) {
  Rig rig;
  std::optional<pc::Status> status;
  rig.v0->connect("madio", {1, 9999},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    status = r.status();
                  });
  rig.engine.run_until_idle();
  EXPECT_EQ(status, pc::Status::refused);
}

TEST(VLink, ConnectUnknownMethodFails) {
  Rig rig;
  std::optional<pc::Status> status;
  rig.v0->connect("warp-drive", {1, 1},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    status = r.status();
                  });
  EXPECT_EQ(status, pc::Status::error);  // immediate, no events needed
}

TEST(VLink, ConnectUnattachedNodeUnreachable) {
  Rig rig;
  std::optional<pc::Status> status;
  rig.v0->connect("madio", {5, 1},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    status = r.status();
                  });
  EXPECT_EQ(status, pc::Status::unreachable);
}

TEST(VLink, EchoPingPong) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4100);

  bool done = false;
  pc::Bytes echoed;
  auto client = [&]() -> pc::Task {
    a->post_write(pc::view_of("ping"));
    echoed = co_await a->read_n(4);
    done = true;
  };
  auto server = [&]() -> pc::Task {
    pc::Bytes req = co_await b->read_n(4);
    EXPECT_EQ(req, pc::view_of("ping").to_bytes());
    b->post_write(pc::view_of(req));
  };
  auto ts = server();
  auto tc = client();
  rig.engine.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
  EXPECT_EQ(echoed, pc::view_of("ping").to_bytes());
}

TEST(VLink, ReadReassemblesAcrossWrites) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4200);

  bool done = false;
  auto reader = [&]() -> pc::Task {
    // 3 writes of 100 bytes; read 250 then 50: reassembly must split
    // and join wire messages transparently.
    pc::Bytes first = co_await b->read_n(250);
    EXPECT_EQ(first.size(), 250u);
    EXPECT_EQ(first[0], 0);
    EXPECT_EQ(first[249], 2);
    pc::Bytes rest = co_await b->read_n(50);
    EXPECT_EQ(rest.size(), 50u);
    EXPECT_EQ(rest[49], 2);
    done = true;
  };
  auto t = reader();
  for (std::uint8_t i = 0; i < 3; ++i) {
    pc::Bytes chunk(100, i);
    a->post_write(pc::view_of(chunk));
  }
  rig.engine.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
}

TEST(VLink, ReadCompletesImmediatelyWhenBuffered) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4300);
  a->post_write(pc::view_of("abcdef"));
  rig.engine.run_until_idle();  // data arrives before anyone reads
  EXPECT_EQ(b->available(), 6u);

  bool done = false;
  auto reader = [&]() -> pc::Task {
    pc::Bytes x = co_await b->read_n(6);  // already buffered: no suspend
    EXPECT_EQ(x.size(), 6u);
    done = true;
  };
  auto t = reader();
  EXPECT_TRUE(done);  // completed synchronously
}

TEST(VLink, QueuedReadsDrainInFifoOrderFromOneDelivery) {
  // Two readers queue on one link before any byte arrives, and the
  // first one's continuation re-enters read_n.  One delivery of 3+4+2
  // bytes must serve them in FIFO order with exact sizes; the
  // re-entrant read must queue behind the second reader, not take the
  // bytes that are already buffered ahead of it.
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4350);
  int deliveries = 0;
  b->set_ready_handler([&deliveries] { ++deliveries; });

  std::vector<std::string> got;
  auto as_string = [](const pc::Bytes& x) {
    return std::string(x.begin(), x.end());
  };
  auto first = [&]() -> pc::Task {
    pc::Bytes x = co_await b->read_n(3);
    got.push_back("first:" + as_string(x));
    pc::Bytes y = co_await b->read_n(2);  // re-entered from the drain
    got.push_back("again:" + as_string(y));
  };
  auto second = [&]() -> pc::Task {
    pc::Bytes x = co_await b->read_n(4);
    got.push_back("second:" + as_string(x));
  };
  auto t1 = first();
  auto t2 = second();
  EXPECT_TRUE(got.empty());

  a->post_write(pc::view_of("abcdefghi"));
  rig.engine.run_until_idle();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got, (std::vector<std::string>{"first:abc", "second:defg",
                                           "again:hi"}));
  EXPECT_EQ(b->available(), 0u);
}

TEST(VLink, GatherWriteTravelsAsOneMessage) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4400);

  pc::Bytes body(8, 0x55);
  pc::IoVec iov;
  iov.append(pc::Bytes{0xaa});        // owned header
  iov.append_ref(pc::view_of(body));  // borrowed payload
  a->post_write(iov);

  bool done = false;
  auto reader = [&]() -> pc::Task {
    pc::Bytes msg = co_await b->read_n(9);
    EXPECT_EQ(msg[0], 0xaa);
    EXPECT_EQ(msg[8], 0x55);
    done = true;
  };
  auto t = reader();
  rig.engine.run_while_pending([&] { return done; });
  EXPECT_TRUE(done);
}

TEST(VLink, LinkMayOutliveDriver) {
  std::unique_ptr<vl::Link> a, b;
  {
    Rig rig;
    std::tie(a, b) = rig.link_pair("madio", 4500);
  }  // engine, network and drivers all destroyed; links still held
  a->post_write(pc::view_of("into the void"));  // dropped, must not crash
  EXPECT_EQ(a->remote_node(), 1u);
  a.reset();
  b.reset();
}

TEST(VLink, RepeatedConnectsToOnePeerEachCostOneRoundTrip) {
  Rig rig;
  auto [a1, b1] = rig.link_pair("madio", 4600);
  const pc::SimTime first_rtt = rig.engine.now();
  auto [a2, b2] = rig.link_pair("madio", 4600);
  EXPECT_EQ(rig.engine.now(), 2 * first_rtt);
  EXPECT_EQ(a2->remote_node(), 1u);
  EXPECT_EQ(b2->remote_node(), 0u);
}

TEST(VLink, RevisitAfterDetachFailsCleanly) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4650);
  // A peer that connected before and has since left the medium fails
  // the reaches() precheck synchronously; no frame goes out.
  rig.fabric.network(rig.net_id).detach(1);
  std::optional<pc::Status> status;
  rig.v0->connect("madio", {1, 4650},
                  [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                    status = r.status();
                  });
  EXPECT_EQ(status, pc::Status::unreachable);
}

TEST(VLink, RefusedPortAcceptsAgainAfterReListen) {
  Rig rig;
  auto [a, b] = rig.link_pair("madio", 4700);
  rig.v1->driver("madio")->unlisten(4700);
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::optional<pc::Status> status;
    rig.v0->connect("madio", {1, 4700},
                    [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                      status = r.status();
                    });
    rig.engine.run_until_idle();
    EXPECT_EQ(status, pc::Status::refused);
  }
  auto [a2, b2] = rig.link_pair("madio", 4700);
  EXPECT_EQ(a2->remote_node(), 1u);
  EXPECT_EQ(b2->remote_node(), 0u);
}

TEST(VLink, AlternatingPortsReachTheirOwnAcceptors) {
  Rig rig;
  int on_a = 0, on_b = 0;
  rig.v1->driver("madio")->listen(
      4800, [&](std::unique_ptr<vl::Link>) { ++on_a; });
  rig.v1->driver("madio")->listen(
      4801, [&](std::unique_ptr<vl::Link>) { ++on_b; });
  for (int round = 0; round < 3; ++round) {
    for (pc::Port port : {pc::Port{4800}, pc::Port{4801}}) {
      bool ok = false;
      rig.v0->connect("madio", {1, port},
                      [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                        ok = r.ok();
                      });
      rig.engine.run_until_idle();
      EXPECT_TRUE(ok);
    }
  }
  EXPECT_EQ(on_a, 3);
  EXPECT_EQ(on_b, 3);
}

TEST(VLink, ListenReachesDriversRegisteredAfterTheListenCall) {
  // Regression: a listen() used to be forwarded only to the drivers
  // registered at the time of the call, so a late-registered driver
  // silently never accepted.  Listens are sticky now.
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san = fabric.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = fabric.add_network(sn::profiles::ethernet100());
  for (pc::NodeId n = 0; n < 2; ++n) {
    fabric.attach(san, n);
    fabric.attach(lan, n);
  }
  pc::Host h0(engine, 0), h1(engine, 1);
  vl::VLink v0(h0), v1(h1);
  v0.add_driver(std::make_unique<vl::NetDriver>(h0, fabric.network(lan), "sysio"));
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(san), "madio"));

  int accepted = 0;
  v1.listen(5500, [&](std::unique_ptr<vl::Link>) { ++accepted; });
  // The LAN driver registers only after the server started listening.
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(lan), "sysio"));

  std::unique_ptr<vl::Link> via_lan;
  v0.connect("sysio", {1, 5500}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    via_lan = std::move(*r);
  });
  engine.run_until_idle();
  EXPECT_TRUE(via_lan);
  EXPECT_EQ(accepted, 1);

  // unlisten() forgets the sticky registration too: a driver added
  // afterwards must not accept.
  v1.unlisten(5500);
  std::optional<pc::Status> status;
  v0.connect("sysio", {1, 5500}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    status = r.status();
  });
  engine.run_until_idle();
  EXPECT_EQ(status, pc::Status::refused);
}

TEST(VLink, VLinkListenAcceptsOnAllDrivers) {
  // Node with two networks: a listen() via VLink must accept from both.
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san = fabric.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = fabric.add_network(sn::profiles::ethernet100());
  for (pc::NodeId n = 0; n < 2; ++n) {
    fabric.attach(san, n);
    fabric.attach(lan, n);
  }
  pc::Host h0(engine, 0), h1(engine, 1);
  vl::VLink v0(h0), v1(h1);
  v0.add_driver(std::make_unique<vl::NetDriver>(h0, fabric.network(san), "madio"));
  v0.add_driver(std::make_unique<vl::NetDriver>(h0, fabric.network(lan), "sysio"));
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(san), "madio"));
  v1.add_driver(std::make_unique<vl::NetDriver>(h1, fabric.network(lan), "sysio"));

  int accepted = 0;
  v1.listen(5000, [&](std::unique_ptr<vl::Link>) { ++accepted; });

  std::unique_ptr<vl::Link> via_san, via_lan;
  v0.connect("madio", {1, 5000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok());
    via_san = std::move(*r);
  });
  v0.connect("sysio", {1, 5000}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
    ASSERT_TRUE(r.ok());
    via_lan = std::move(*r);
  });
  engine.run_until_idle();
  EXPECT_TRUE(via_san);
  EXPECT_TRUE(via_lan);
  EXPECT_EQ(accepted, 2);
}

// ---------------------------------------------------------------------------
// The connection slab: handle / generation demux.  TapDriver is a
// FrameDriver over a hand-cranked wire, so tests can hold frames back,
// and replay or forge control and data frames at the demux.
// ---------------------------------------------------------------------------

namespace {

namespace wire = padico::vlink::wire;

struct Frame {
  pc::NodeId src;
  pc::NodeId dst;
  pc::Bytes bytes;
};

class TapDriver;

// Frames queue here until flush(); `log` keeps every frame ever sent.
struct TapWire {
  std::map<pc::NodeId, TapDriver*> drivers;
  std::deque<Frame> queue;
  std::vector<Frame> log;

  void flush();

  /// The last logged frame of `type` from `src`.
  const Frame& last(pc::NodeId src, wire::FrameType type) const {
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      if (it->src == src && wire::decode(pc::view_of(it->bytes))->type == type)
        return *it;
    }
    throw std::logic_error("no such frame");
  }
};

class TapDriver final : public vl::FrameDriver {
 public:
  TapDriver(pc::Host& host, TapWire& w) : FrameDriver(host, "tap"), wire_(&w) {
    w.drivers[host.id()] = this;
  }
  bool reaches(pc::NodeId node) const override {
    return wire_->drivers.count(node) != 0;
  }
  void inject(pc::NodeId src, const pc::Bytes& frame) {
    handle_frame(src, pc::view_of(frame));
  }

 protected:
  void emit(pc::NodeId dst, const wire::Header& h, pc::ByteView payload,
            pc::SimTime* /*pace*/) override {
    Frame f{host().id(), dst, wire::encode(h, payload)};
    wire_->log.push_back(f);
    wire_->queue.push_back(std::move(f));
  }

 private:
  TapWire* wire_;
};

void TapWire::flush() {
  while (!queue.empty()) {
    Frame f = std::move(queue.front());
    queue.pop_front();
    drivers.at(f.dst)->inject(f.src, f.bytes);
  }
}

/// Client node 1, server node 2 (listening on port 7000), one wire.
struct TapRig {
  pc::Engine engine;
  pc::Host h1{engine, 1}, h2{engine, 2};
  TapWire w;
  TapDriver cli{h1, w}, srv{h2, w};
  std::unique_ptr<vl::Link> accepted;
  int connects = 0;

  TapRig() {
    srv.listen(7000, [this](std::unique_ptr<vl::Link> l) {
      accepted = std::move(l);
    });
  }

  /// Start a connect; the result lands in `out` once frames flush.
  void start(std::unique_ptr<vl::Link>& out) {
    cli.connect({2, 7000},
                [this, &out](pc::Result<std::unique_ptr<vl::Link>> r) {
                  ++connects;
                  ASSERT_TRUE(r.ok()) << r.error().message;
                  out = std::move(*r);
                });
  }

  /// Connect and flush: {client end, server end}.
  std::pair<std::unique_ptr<vl::Link>, std::unique_ptr<vl::Link>> open() {
    std::unique_ptr<vl::Link> a;
    start(a);
    w.flush();
    EXPECT_TRUE(a);
    EXPECT_TRUE(accepted);
    return {std::move(a), std::move(accepted)};
  }
};

pc::Bytes reframe(const pc::Bytes& frame, std::uint32_t peer,
                  std::uint64_t conn_id, const char* payload) {
  wire::Header h = *wire::decode(pc::view_of(frame));
  h.peer = peer;
  h.conn_id = conn_id;
  return wire::encode(h, pc::view_of(payload));
}

wire::Header header_of(const Frame& f) {
  return *wire::decode(pc::view_of(f.bytes));
}

}  // namespace

TEST(VLinkSlab, StaleDataForAReusedSlotNeverReachesTheNewLink) {
  TapRig rig;
  auto [a, b] = rig.open();
  a->post_write(pc::view_of("old"));
  const Frame stale = rig.w.last(1, wire::FrameType::data);
  rig.w.flush();
  EXPECT_EQ(b->read_available(), pc::view_of("old").to_bytes());
  a.reset();
  b.reset();

  // The next connection reuses both slots under a new generation.
  auto [a2, b2] = rig.open();
  EXPECT_EQ(rig.cli.slab_size(), 1u);
  EXPECT_EQ(rig.srv.slab_size(), 1u);
  a2->post_write(pc::view_of("new"));
  const Frame fresh = rig.w.last(1, wire::FrameType::data);
  rig.w.flush();
  EXPECT_EQ(b2->read_available(), pc::view_of("new").to_bytes());
  const wire::Header old_h = header_of(stale);
  const wire::Header new_h = header_of(fresh);
  ASSERT_EQ(old_h.peer & 0xFFFFF, new_h.peer & 0xFFFFF);  // same slot
  ASSERT_NE(old_h.peer, new_h.peer);                      // new generation
  ASSERT_NE(old_h.conn_id, new_h.conn_id);

  // The stale frame as it was sent ...
  rig.srv.inject(1, stale.bytes);
  // ... with the live conn id but the old generation (only the
  // generation check catches it) ...
  rig.srv.inject(1, reframe(stale.bytes, old_h.peer, new_h.conn_id, "gen"));
  // ... and with the live handle but the old conn id (only the conn id
  // check catches it).
  rig.srv.inject(1, reframe(stale.bytes, new_h.peer, old_h.conn_id, "cid"));
  EXPECT_EQ(b2->available(), 0u);

  // The live handle and conn id still deliver.
  rig.srv.inject(1, reframe(stale.bytes, new_h.peer, new_h.conn_id, "ok"));
  EXPECT_EQ(b2->read_available(), pc::view_of("ok").to_bytes());
}

TEST(VLinkSlab, DuplicateAcceptIsIgnored) {
  TapRig rig;
  auto [a, b] = rig.open();
  const Frame accept = rig.w.last(2, wire::FrameType::accept);
  EXPECT_EQ(rig.connects, 1);

  // Again while the link it established is live.
  rig.cli.inject(2, accept.bytes);
  EXPECT_EQ(rig.connects, 1);
  EXPECT_EQ(rig.cli.open_connections(), 1u);

  // Again after the slot was freed and taken by a new, still
  // unanswered connect: the old accept must not complete it.
  a.reset();
  b.reset();
  std::unique_ptr<vl::Link> a2;
  rig.start(a2);
  ASSERT_EQ(rig.cli.slab_size(), 1u);
  rig.cli.inject(2, accept.bytes);
  EXPECT_EQ(rig.connects, 1);
  EXPECT_FALSE(a2);

  // The real accept still completes it.
  rig.w.flush();
  EXPECT_EQ(rig.connects, 2);
  EXPECT_TRUE(a2);
}

TEST(VLinkSlab, AcceptOrRefuseCarryingAnotherNodesConnIdIsIgnored) {
  TapRig rig;
  std::unique_ptr<vl::Link> a;
  rig.start(a);
  const wire::Header c = header_of(rig.w.last(1, wire::FrameType::connect));
  // The same handle under node 3's origin bits.
  const std::uint64_t foreign =
      (std::uint64_t{3} << 40) | (c.conn_id & 0xFFFFFFFFull);
  ASSERT_NE(foreign, c.conn_id);
  for (wire::FrameType type :
       {wire::FrameType::accept, wire::FrameType::refuse}) {
    wire::Header forged{type, c.dst_port, c.src_port, 2, 0, foreign};
    rig.cli.inject(2, wire::encode(forged));
  }
  EXPECT_EQ(rig.connects, 0);
  EXPECT_EQ(rig.cli.open_connections(), 1u);

  rig.w.flush();
  EXPECT_EQ(rig.connects, 1);
  EXPECT_TRUE(a);
}

TEST(VLinkSlab, ConnectCloseCyclesReuseThePeakNumberOfSlots) {
  Rig rig;
  auto* d0 = dynamic_cast<vl::FrameDriver*>(rig.v0->driver("madio"));
  auto* d1 = dynamic_cast<vl::FrameDriver*>(rig.v1->driver("madio"));
  ASSERT_TRUE(d0 && d1);
  constexpr int kConcurrent = 3;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    std::vector<std::unique_ptr<vl::Link>> held;
    for (int i = 0; i < kConcurrent; ++i) {
      auto [a, b] = rig.link_pair("madio", 5000);
      held.push_back(std::move(a));
      held.push_back(std::move(b));
    }
    ASSERT_EQ(d0->open_connections(), std::size_t{kConcurrent});
  }
  EXPECT_EQ(d0->open_connections(), 0u);
  EXPECT_EQ(d1->open_connections(), 0u);
  EXPECT_EQ(d0->slab_size(), std::size_t{kConcurrent});
  EXPECT_EQ(d1->slab_size(), std::size_t{kConcurrent});
}

TEST(VLinkSlab, RefusedConnectsOnAPacedWanLeaveNoOpenSlot) {
  // vthd_wan caps each stream, so every connect is paced through its
  // slot; a refuse must free it (and the acceptor takes none).
  Rig rig(sn::profiles::vthd_wan());
  const std::string method = sn::profiles::vthd_wan().driver;
  ASSERT_GT(sn::profiles::vthd_wan().per_stream_bytes_per_second, 0u);
  int refused = 0;
  for (int i = 0; i < 500; ++i) {
    rig.v0->connect(method, {1, 9999},
                    [&](pc::Result<std::unique_ptr<vl::Link>> r) {
                      if (r.status() == pc::Status::refused) ++refused;
                    });
  }
  rig.engine.run_until_idle();
  EXPECT_EQ(refused, 500);
  auto* d0 = dynamic_cast<vl::FrameDriver*>(rig.v0->driver(method));
  auto* d1 = dynamic_cast<vl::FrameDriver*>(rig.v1->driver(method));
  ASSERT_TRUE(d0 && d1);
  EXPECT_EQ(d0->open_connections(), 0u);
  EXPECT_EQ(d1->open_connections(), 0u);
  EXPECT_EQ(d1->slab_size(), 0u);
}
