// Section 5 WAN experiment reproduction: VTHD, the French experimental
// high-bandwidth WAN.
//
// Paper: "All middleware systems get roughly the same performance, namely
// a bandwidth of 9 MB/s and a 8 ms latency ...  When activating Parallel
// Streams, the bandwidth goes up to 12 MB/s which is the maximum possible
// given the fact that each node is connected to VTHD through
// Ethernet-100."
//
// The raw-TCP row, the latency row and the ParallelStreams sweep run on
// the selector/pstream layers, the middleware rows on the personalities.
// Every figure also lands in BENCH_wan_vthd.json with a bootstrap CI.
#include "common.hpp"

namespace {

using namespace bench;

void wan_grid(gr::Grid& grid, int pstream_width = 4) {
  grid.add_nodes(2);
  sn::NetId wan = grid.add_network(sn::profiles::vthd_wan());
  grid.attach(wan, 0);
  grid.attach(wan, 1);
  gr::BuildOptions opts;
  opts.pstream_width = pstream_width;
  grid.build(opts);
}

Run raw_tcp_bw() {
  gr::Grid grid;
  wan_grid(grid);
  LinkPair p = make_link_pair(grid, "sysio", 4630);
  return link_bandwidth_run(grid, p, 256 * 1024);
}

Run mpi_bw() {
  gr::Grid grid;
  wan_grid(grid);
  // Force plain TCP (the paper's baseline measurement); across the
  // WAN the MPI device rides the chooser-picked stream.
  grid.node(0).chooser().set_wan_method("sysio");
  grid.node(1).chooser().set_wan_method("sysio");
  MpiPair p = make_mpi_wan_pair(grid, 4600);
  return mpi_bandwidth_run(grid, p, 256 * 1024);
}

Run orb_bw() {
  gr::Grid grid;
  wan_grid(grid);
  grid.node(0).chooser().set_wan_method("sysio");
  grid.node(1).chooser().set_wan_method("sysio");
  OrbPair p = make_orb_pair(grid, padico::orb::profiles::omniorb4(), 4610);
  return orb_bandwidth_run(grid, p, 256 * 1024);
}

Run jsock_bw() {
  gr::Grid grid;
  wan_grid(grid);
  grid.node(0).chooser().set_wan_method("sysio");
  grid.node(1).chooser().set_wan_method("sysio");
  JsockPair p = make_jsock_pair(grid, 4620);
  return jsock_bandwidth_run(grid, p, 256 * 1024);
}

Run wan_latency_run() {
  gr::Grid grid;
  wan_grid(grid);
  LinkPair p = make_link_pair(grid, "sysio", 4640);
  Run run = link_latency_run(grid, p, 4);
  // Report in milliseconds (the paper's unit for this experiment).
  run.value /= 1000.0;
  for (double& s : run.samples) s /= 1000.0;
  return run;
}

Run pstream_bw(int streams) {
  gr::Grid grid;
  wan_grid(grid, streams);
  LinkPair p = make_link_pair(grid, streams <= 1 ? "sysio" : "pstream", 4650);
  return link_bandwidth_run(grid, p, 256 * 1024, 64);
}

}  // namespace

int main(int argc, char** argv) {
  Session session(argc, argv, "wan_vthd");
  std::printf("# Section 5 WAN (VTHD) reproduction\n\n");
  std::printf("## middleware bandwidth over plain TCP (paper: all ~9 MB/s)\n");
  std::printf("%-12s %10s\n", "system", "MB/s");
  {
    const Run r = raw_tcp_bw();
    std::printf("%-12s %10.2f\n", "raw-TCP", r.value);
    session.metric("raw-TCP.bandwidth", "MB/s", r);
  }
  {
    const Run r = mpi_bw();
    std::printf("%-12s %10.2f\n", "MPI", r.value);
    session.metric("MPI.bandwidth", "MB/s", r);
  }
  {
    const Run r = orb_bw();
    std::printf("%-12s %10.2f\n", "omniORB-4", r.value);
    session.metric("omniORB-4.bandwidth", "MB/s", r);
  }
  {
    const Run r = jsock_bw();
    std::printf("%-12s %10.2f\n", "Java-socket", r.value);
    session.metric("Java-socket.bandwidth", "MB/s", r);
  }

  std::printf("\n## one-way latency (paper: 8 ms)\n");
  {
    const Run r = wan_latency_run();
    std::printf("latency: %.2f ms  (n=%d)\n", r.value, r.n());
    session.metric("latency", "ms", r);
  }

  std::printf("\n## ParallelStreams sweep (paper: 1 stream ~9 MB/s, "
              "parallel streams -> 12 MB/s = Ethernet-100 access cap)\n");
  std::printf("%8s %10s\n", "streams", "MB/s");
  for (int s : {1, 2, 3, 4, 6, 8}) {
    const Run r = pstream_bw(s);
    std::printf("%8d %10.2f\n", s, r.value);
    session.metric("pstream." + std::to_string(s), "MB/s", r);
  }
  return 0;
}
