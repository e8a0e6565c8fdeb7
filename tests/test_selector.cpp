// selector::Chooser coverage: classification on the paper's
// topologies, ranking (including the WAN override), path security,
// decisions under runtime churn (each compared against a fresh grid or
// the pre-churn picks), and the SelectionPolicy plumbing through
// VLink::connect.
#include "selector/selector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/core.hpp"
#include "grid/grid.hpp"
#include "simnet/simnet.hpp"
#include "vlink/net_driver.hpp"
#include "vlink/pstream_driver.hpp"

namespace pc = padico::core;
namespace sn = padico::simnet;
namespace gr = padico::grid;
namespace vl = padico::vlink;
namespace sel = padico::selector;

namespace {

/// bench_selector's topology: two 2-node Myrinet clusters joined by
/// the VTHD WAN.
void two_clusters(gr::Grid& grid, const std::string& wan_method = {}) {
  grid.add_nodes(4);
  sn::NetId sanA = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId sanB = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId wan = grid.add_network(sn::profiles::vthd_wan());
  grid.attach(sanA, 0);
  grid.attach(sanA, 1);
  grid.attach(sanB, 2);
  grid.attach(sanB, 3);
  for (pc::NodeId i = 0; i < 4; ++i) grid.attach(wan, i);
  gr::BuildOptions opts;
  opts.wan_method = wan_method;
  grid.build(opts);
}

/// Two SAN clusters joined by a lossy transcontinental WAN (the grid
/// stacks "vrp" on it).
void lossy_clusters(gr::Grid& grid) {
  grid.add_nodes(4);
  sn::NetId sanA = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId sanB = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId wan =
      grid.add_network(sn::profiles::transcontinental_internet(0.07));
  grid.attach(sanA, 0);
  grid.attach(sanA, 1);
  grid.attach(sanB, 2);
  grid.attach(sanB, 3);
  for (pc::NodeId i = 0; i < 4; ++i) grid.attach(wan, i);
  gr::BuildOptions opts;
  opts.vrp.max_loss = 0.1;
  grid.build(opts);
}

/// Every live node's decision towards every node, keyed (src, dst):
/// "<class> <method>[ secure]", with "-" where choose() throws.
using Picks = std::map<std::pair<pc::NodeId, pc::NodeId>, std::string>;

Picks all_picks(gr::Grid& grid) {
  Picks out;
  for (pc::NodeId src = 0; src < grid.size(); ++src) {
    if (!grid.alive(src)) continue;
    sel::Chooser& ch = grid.node(src).chooser();
    for (pc::NodeId dst = 0; dst < grid.size(); ++dst) {
      std::string method;
      try {
        method = ch.choose(dst);
      } catch (const std::runtime_error&) {
        method = "-";
      }
      std::string pick = sel::net_class_name(ch.classify(dst));
      pick += ' ';
      pick += method;
      if (ch.path_secure(dst)) pick += " secure";
      out[{src, dst}] = pick;
    }
  }
  return out;
}

}  // namespace

TEST(Selector, NetClassNames) {
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::loopback), "loopback");
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::san), "san");
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::lan), "lan");
  EXPECT_STREQ(sel::net_class_name(sel::NetClass::wan), "wan");
}

TEST(Selector, ClassifiesTwoClusterTopology) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(0), sel::NetClass::loopback);
  EXPECT_EQ(ch.classify(1), sel::NetClass::san);
  EXPECT_EQ(ch.classify(2), sel::NetClass::wan);
  EXPECT_EQ(ch.classify(3), sel::NetClass::wan);
}

TEST(Selector, ClassifiesLanOnTestbed) {
  // SAN + LAN dual-network testbed seen from a node that shares only
  // the LAN with the peer.
  gr::Grid grid;
  grid.add_nodes(3);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = grid.add_network(sn::profiles::ethernet100());
  grid.attach(san, 0);
  grid.attach(san, 1);
  for (pc::NodeId i = 0; i < 3; ++i) grid.attach(lan, i);
  grid.build();
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(1), sel::NetClass::san);  // tightest class wins
  EXPECT_EQ(ch.classify(2), sel::NetClass::lan);
  EXPECT_EQ(ch.choose(1), "madio");
  EXPECT_EQ(ch.choose(2), "sysio");
}

TEST(Selector, ChoosesMadioIntraClusterAndSysioAcrossWanByDefault) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.choose(0), "loopback");
  EXPECT_EQ(ch.choose(1), "madio");
  // Parallel streams are opt-in (the paper "activates" them); the
  // default wan method is plain TCP.
  EXPECT_EQ(ch.choose(2), "sysio");
}

TEST(Selector, WanMethodOverride) {
  gr::Grid grid;
  two_clusters(grid, "pstream");
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.choose(2), "pstream");
  // The override never leaks into nearer classes.
  EXPECT_EQ(ch.choose(1), "madio");
  // set_wan_method re-ranks (and "" restores the default).
  ch.set_wan_method("sysio");
  EXPECT_EQ(ch.choose(2), "sysio");
  ch.set_wan_method("");
  EXPECT_EQ(ch.choose(2), "sysio");
  // An override naming a driver that cannot reach the peer falls back
  // to the default ranking instead of failing the connect.
  ch.set_wan_method("madio");
  EXPECT_EQ(ch.choose(2), "sysio");
}

TEST(Selector, LossyWanPrefersTheVrpAdapter) {
  // Two SAN clusters joined by a LOSSY transcontinental link: the
  // default WAN pick would be the raw (frame-dropping) "sysio", so the
  // chooser swaps in the loss-tolerant "vrp" sibling the grid stacked
  // on it.
  gr::Grid grid;
  lossy_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(2), sel::NetClass::wan);
  EXPECT_EQ(ch.choose(2), "vrp");
  // Intra-cluster traffic is untouched by the refinement.
  EXPECT_EQ(ch.choose(1), "madio");
  // Pinning the raw lossy method is a deliberate ablation choice the
  // chooser honours (the override is exempt from the swap).
  ch.set_wan_method("sysio");
  EXPECT_EQ(ch.choose(2), "sysio");
  ch.set_wan_method("");
  EXPECT_EQ(ch.choose(2), "vrp");
}

TEST(Selector, PathSecurityFollowsTheProfiles) {
  gr::Grid grid;
  two_clusters(grid, "pstream");
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_TRUE(ch.path_secure(0));   // loopback never leaves the node
  EXPECT_TRUE(ch.path_secure(1));   // machine-room SAN
  EXPECT_FALSE(ch.path_secure(2));  // shared WAN backbone
}

TEST(Selector, DecisionsFollowTheWanOverrideAndTheRegistry) {
  gr::Grid grid;
  two_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.choose(2), "sysio");
  ch.set_wan_method("pstream");
  EXPECT_EQ(ch.choose(2), "pstream");
  EXPECT_EQ(ch.classify(2), sel::NetClass::wan);

  // Registry growth shows on the very next lookup: a WAN driver
  // registered as lan class turns node 2 into a lan-class peer, which
  // the wan override no longer applies to.
  auto extra = std::make_unique<vl::NetDriver>(
      grid.node(0).host(), grid.fabric().network(2), "wan-as-lan");
  extra->set_net_class(sel::NetClass::lan);
  grid.node(0).vlink().add_driver(std::move(extra));
  EXPECT_EQ(ch.classify(2), sel::NetClass::lan);
  EXPECT_EQ(ch.choose(2), "wan-as-lan");
  EXPECT_EQ(ch.choose(1), "madio");  // the SAN is still tighter
}

TEST(Selector, DetachFromOneMediumReroutesOnlyThatDestination) {
  gr::Grid grid;
  two_clusters(grid);
  const Picks before = all_picks(grid);
  // Node 3 leaves SAN B but stays on the WAN: its cluster peer falls
  // back to the WAN path towards it, and nothing else moves.
  grid.fabric().network(1).detach(3);
  sel::Chooser& ch = grid.node(2).chooser();
  EXPECT_EQ(ch.classify(3), sel::NetClass::wan);
  EXPECT_EQ(ch.choose(3), "sysio");
  EXPECT_FALSE(ch.path_secure(3));
  const Picks after = all_picks(grid);
  for (const auto& [pair, pick] : before) {
    if (pair == std::pair<pc::NodeId, pc::NodeId>{2, 3} ||
        pair == std::pair<pc::NodeId, pc::NodeId>{3, 2}) {
      continue;
    }
    EXPECT_EQ(after.at(pair), pick) << pair.first << " -> " << pair.second;
  }
}

TEST(Selector, NodeRemovalChangesOnlyDecisionsTowardsTheVictim) {
  gr::Grid grid;
  two_clusters(grid);
  const Picks before = all_picks(grid);
  grid.remove_node_live(3);
  for (pc::NodeId n = 0; n < 3; ++n) {
    sel::Chooser& ch = grid.node(n).chooser();
    EXPECT_THROW(ch.choose(3), std::runtime_error);
    pc::Error error;
    EXPECT_EQ(ch.select(3, &error), nullptr);
    EXPECT_EQ(error.status, pc::Status::unreachable);
  }
  const Picks after = all_picks(grid);
  for (const auto& [pair, pick] : before) {
    if (pair.first == 3 || pair.second == 3) continue;
    EXPECT_EQ(after.at(pair), pick) << pair.first << " -> " << pair.second;
  }
}

TEST(Selector, LiveAttachIsResolvedByEveryPeer) {
  gr::Grid grid;
  two_clusters(grid);
  const pc::NodeId joined = grid.add_node_live();
  for (pc::NodeId n = 0; n < 4; ++n) {
    EXPECT_THROW(grid.node(n).chooser().choose(joined), std::runtime_error);
  }
  grid.attach_live(1, joined);  // SAN B
  grid.attach_live(2, joined);  // the WAN
  EXPECT_EQ(grid.node(0).chooser().choose(joined), "sysio");
  EXPECT_EQ(grid.node(1).chooser().choose(joined), "sysio");
  EXPECT_EQ(grid.node(2).chooser().choose(joined), "madio");
  EXPECT_EQ(grid.node(3).chooser().choose(joined), "madio");
  sel::Chooser& own = grid.node(joined).chooser();
  EXPECT_EQ(own.choose(0), "sysio");
  EXPECT_EQ(own.choose(2), "madio");
  EXPECT_EQ(own.choose(joined), "loopback");
}

TEST(Selector, LinkChurnGivesTheSamePicksAsAFreshGrid) {
  gr::Grid churned;
  two_clusters(churned);
  const Picks before = all_picks(churned);

  // Admin down/up of SAN A: reachability is attachment, not link
  // state, so the picks stay put (sends fail at the wire instead).
  churned.fabric().network(0).set_up(false);
  {
    gr::Grid fresh;
    two_clusters(fresh);
    fresh.fabric().network(0).set_up(false);
    EXPECT_EQ(all_picks(churned), all_picks(fresh));
  }
  EXPECT_EQ(all_picks(churned), before);
  churned.fabric().network(0).set_up(true);
  EXPECT_EQ(all_picks(churned), before);

  // A model swap on the WAN.
  churned.fabric().network(2).set_model(
      sn::profiles::transcontinental_internet(0.07));
  gr::Grid fresh;
  two_clusters(fresh);
  fresh.fabric().network(2).set_model(
      sn::profiles::transcontinental_internet(0.07));
  EXPECT_EQ(all_picks(churned), all_picks(fresh));
}

TEST(Selector, WanModelSwapTogglesTheVrpPreference) {
  gr::Grid grid;
  lossy_clusters(grid);
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.choose(2), "vrp");
  // The brownout ends on a loss-free WAN: the raw driver is no longer
  // lossy, so the default ranking keeps it.
  sn::LinkModel clean = sn::profiles::transcontinental_internet(0.07);
  clean.loss_rate = 0.0;
  grid.fabric().network(2).set_model(clean);
  EXPECT_EQ(ch.choose(2), "sysio");
  grid.fabric().network(2).set_model(
      sn::profiles::transcontinental_internet(0.07));
  EXPECT_EQ(ch.choose(2), "vrp");
}

TEST(Selector, UnreachablePeerClassifiesWanAndFailsChoose) {
  gr::Grid grid;
  grid.add_nodes(2);
  sn::NetId san = grid.add_network(sn::profiles::myrinet2000());
  grid.attach(san, 0);
  grid.attach(san, 1);
  grid.build();
  sel::Chooser& ch = grid.node(0).chooser();
  EXPECT_EQ(ch.classify(7), sel::NetClass::wan);  // conservative default
  EXPECT_FALSE(ch.path_secure(7));
  EXPECT_THROW(ch.choose(7), std::runtime_error);
  pc::Error error;
  EXPECT_EQ(ch.select(7, &error), nullptr);
  EXPECT_EQ(error.status, pc::Status::unreachable);
}

TEST(Selector, VLinkConnectDelegatesToChooser) {
  gr::Grid grid;
  two_clusters(grid, "pstream");
  // Method-less connect across the WAN must come out of the pstream
  // driver: the established link is striped (width = pstream_width).
  std::unique_ptr<vl::Link> a, b;
  grid.node(2).vlink().driver("pstream")->listen(
      9100, [&](std::unique_ptr<vl::Link> l) { b = std::move(l); });
  grid.node(0).vlink().connect(
      {2, 9100}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        ASSERT_TRUE(r.ok()) << r.error().message;
        a = std::move(*r);
      });
  grid.engine().run_while_pending([&] { return a && b; });
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  auto* striped = dynamic_cast<vl::PstreamLink*>(a.get());
  ASSERT_NE(striped, nullptr);
  EXPECT_EQ(striped->width(), grid.options().pstream_width);

  // Connecting to the local node is a selection error, not a hang.
  std::optional<pc::Status> status;
  grid.node(0).vlink().connect(
      {0, 9101}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
        status = r.status();
      });
  EXPECT_EQ(status, pc::Status::unreachable);
}

namespace {

/// Two hand-built VLinks (no Grid, so no chooser installed) over a
/// 2-node SAN + LAN fabric, each with "sysio" (LAN) registered before
/// "madio" (SAN).
struct HandRig {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san = fabric.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = fabric.add_network(sn::profiles::ethernet100());
  pc::Host h0{engine, 0}, h1{engine, 1};
  vl::VLink v0{h0}, v1{h1};
  std::unique_ptr<vl::Link> accepted;

  HandRig() {
    for (pc::NodeId n = 0; n < 2; ++n) {
      fabric.attach(san, n);
      fabric.attach(lan, n);
    }
    add(v0, h0);
    add(v1, h1);
    v1.listen(9200, [this](std::unique_ptr<vl::Link> l) {
      accepted = std::move(l);
    });
  }

  void add(vl::VLink& v, pc::Host& h) {
    v.add_driver(
        std::make_unique<vl::NetDriver>(h, fabric.network(lan), "sysio"));
    auto madio =
        std::make_unique<vl::NetDriver>(h, fabric.network(san), "madio");
    madio->set_net_class(sel::NetClass::san);
    v.add_driver(std::move(madio));
  }

  std::size_t open(const char* method) {
    return static_cast<vl::NetDriver*>(v0.driver(method))->open_connections();
  }

  /// Method-less connect from node 0 to node 1, run to completion.
  pc::Result<std::unique_ptr<vl::Link>> connect() {
    std::optional<pc::Result<std::unique_ptr<vl::Link>>> out;
    v0.connect({1, 9200}, [&](pc::Result<std::unique_ptr<vl::Link>> r) {
      out.emplace(std::move(r));
    });
    engine.run_while_pending([&] { return out && accepted; });
    EXPECT_TRUE(out.has_value());
    return std::move(*out);
  }
};

}  // namespace

TEST(Selector, HandBuiltVLinkWithoutPolicyFailsMethodlessConnect) {
  // There is no built-in default policy: a VLink nobody installed a
  // policy on refuses method-less connects, like an unknown method.
  HandRig rig;
  auto r = rig.connect();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), pc::Status::error);
  rig.engine.run_until_idle();
  EXPECT_FALSE(rig.accepted);
  EXPECT_EQ(rig.open("sysio"), 0u);
  EXPECT_EQ(rig.open("madio"), 0u);
}

TEST(Selector, HandBuiltVLinkUsesTheInstalledPolicyUntilCleared) {
  HandRig rig;
  sel::Chooser chooser(rig.v0);
  rig.v0.set_policy(&chooser);
  ASSERT_EQ(chooser.choose(1), "madio");
  auto r = rig.connect();
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_TRUE(rig.accepted);
  // The chooser's pick (the SAN, registered second) carried the link.
  EXPECT_EQ(rig.open("madio"), 1u);
  EXPECT_EQ(rig.open("sysio"), 0u);
  EXPECT_LT(pc::to_micros(rig.engine.now()), 50.0);  // not the 50 us LAN

  rig.v0.set_policy(nullptr);
  rig.accepted.reset();
  auto again = rig.connect();
  EXPECT_EQ(again.status(), pc::Status::error);
  EXPECT_EQ(rig.open("madio"), 1u);  // only the first link
  EXPECT_EQ(rig.open("sysio"), 0u);
}

TEST(Selector, DriverLookupReturnsTheFirstRegistrationOfAName) {
  pc::Engine engine;
  sn::Fabric fabric{engine};
  sn::NetId san = fabric.add_network(sn::profiles::myrinet2000());
  sn::NetId lan = fabric.add_network(sn::profiles::ethernet100());
  fabric.attach(san, 0);
  fabric.attach(lan, 0);
  pc::Host host(engine, 0);
  vl::VLink v(host);
  auto first =
      std::make_unique<vl::NetDriver>(host, fabric.network(lan), "dup");
  vl::Driver* want = first.get();
  v.add_driver(std::move(first));
  v.add_driver(
      std::make_unique<vl::NetDriver>(host, fabric.network(san), "dup"));
  EXPECT_EQ(v.driver("dup"), want);
  EXPECT_EQ(v.driver("absent"), nullptr);
}
