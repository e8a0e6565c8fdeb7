// Compiles the real bench scaffolding (bench/common.hpp) against the
// bootstrap libraries and drives the vlink-level helpers end-to-end:
// attach_testbed, make_link_pair, link_latency_us, link_bandwidth_mbps.
#include "common.hpp"

#include <gtest/gtest.h>

TEST(BenchSmoke, MbpsGuardsZeroDuration) {
  EXPECT_EQ(bench::mbps(12345, 0), 0.0);
  // 1e6 bytes in one virtual second = 1 MB/s in the paper's units.
  EXPECT_DOUBLE_EQ(bench::mbps(1'000'000, bench::pc::seconds(1)), 1.0);
}

TEST(BenchSmoke, MessageCountClampsToUsefulRange) {
  EXPECT_EQ(bench::message_count(1), 2000);       // tiny messages capped
  EXPECT_EQ(bench::message_count(16u << 20), 8);  // huge messages floored
}

TEST(BenchSmoke, TestbedBuildsTwoNetworks) {
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.fabric().network_count(), 2u);
  EXPECT_NE(grid.node(0).vlink().driver("madio"), nullptr);
  EXPECT_NE(grid.node(1).vlink().driver("sysio"), nullptr);
}

TEST(BenchSmoke, VlinkLatencyOverMyrinetIsInRange) {
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  bench::LinkPair p = bench::make_link_pair(grid, "madio", 3410);
  ASSERT_TRUE(p.a && p.b);
  const double lat = bench::link_latency_us(grid, p);
  // Raw vlink over the Myrinet model: ~7 us now; the paper's 10.2 us
  // includes the MadIO and arbitration layers that land in later PRs.
  EXPECT_GT(lat, 5.0);
  EXPECT_LT(lat, 15.0);
}

TEST(BenchSmoke, VlinkBandwidthOverMyrinetApproachesLinkRate) {
  bench::gr::Grid grid;
  bench::attach_testbed(grid);
  grid.build();
  bench::LinkPair p = bench::make_link_pair(grid, "madio", 3420);
  const double bw = bench::link_bandwidth_mbps(grid, p, 1 << 20, 16);
  // 2 Gbit/s link => asymptote just under 250 MB/s.
  EXPECT_GT(bw, 200.0);
  EXPECT_LT(bw, 255.0);
}

TEST(BenchSmoke, TcpReferenceOverEthernetMatchesPaperShape) {
  // The Fig. 3 TCP/Ethernet-100 reference: ~11-12 MB/s plateau.
  bench::gr::Grid grid;
  grid.add_nodes(2);
  bench::sn::NetId lan =
      grid.add_network(bench::sn::profiles::ethernet100());
  grid.attach(lan, 0);
  grid.attach(lan, 1);
  grid.build();
  bench::LinkPair p = bench::make_link_pair(grid, "sysio", 3200);
  const double bw = bench::link_bandwidth_mbps(grid, p, 256 * 1024, 8);
  EXPECT_GT(bw, 10.0);
  EXPECT_LT(bw, 12.5);
}

TEST(BenchSmoke, LatencyIsDeterministicAcrossGrids) {
  auto once = [] {
    bench::gr::Grid grid;
    bench::attach_testbed(grid);
    grid.build();
    bench::LinkPair p = bench::make_link_pair(grid, "madio", 3430);
    return bench::link_latency_us(grid, p);
  };
  EXPECT_EQ(once(), once());
}
