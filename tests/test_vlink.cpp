#include "vlink/vlink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

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
