// Table 1 reproduction: "Performance of various middleware systems with
// PadicoTM over Myrinet-2000" — one-way latency (us) and maximum
// bandwidth (MB/s) for Circuit, VLink, MPICH, omniORB 3, omniORB 4 and
// Java sockets.
//
// Paper values:
//   API/middleware  Circuit  VLink  MPICH-1.2.5  omniORB3  omniORB4  Java
//   latency (us)      8.4    10.2     12.06        20.3      18.4     40
//   bandwidth (MB/s)  240    239      238.7        238.4     235.8   237.9
//
// Reporting: latency means come from `n` measured ping-pong rounds
// (per-round samples feed the bootstrap CI in BENCH_table1.json);
// `warm` counts unmeasured warm-up rounds, printed separately so the
// mean is never diluted by connection establishment.
#include "common.hpp"

namespace {

using namespace bench;

struct Row {
  std::string name;
  Run latency;
  Run bandwidth;
  double paper_latency;
  double paper_bandwidth;
};

Row circuit_row() {
  gr::Grid grid;
  attach_testbed(grid);
  grid.build();
  auto set = grid.make_circuit("t1", padico::circuit::Group({0, 1}), 0x51, 3400);
  Run lat = circuit_latency_run(grid, set);
  Run bw = circuit_bandwidth_run(grid, set, 1 << 20);
  return {"Circuit", std::move(lat), std::move(bw), 8.4, 240.0};
}

Row vlink_row() {
  gr::Grid grid;
  attach_testbed(grid);
  grid.build();
  LinkPair p = make_link_pair(grid, "madio", 3410);
  Run lat = link_latency_run(grid, p);
  Run bw = link_bandwidth_run(grid, p, 1 << 20, 64);
  return {"VLink", std::move(lat), std::move(bw), 10.2, 239.0};
}

Row mpi_row() {
  gr::Grid grid;
  attach_testbed(grid);
  grid.build();
  MpiPair p = make_mpi_pair(grid, 0x52, 3420);
  Run lat = mpi_latency_run(grid, p);
  Run bw = mpi_bandwidth_run(grid, p, 1 << 20);
  return {"MPICH", std::move(lat), std::move(bw), 12.06, 238.7};
}

Row orb_row(padico::orb::OrbProfile profile, double paper_lat,
            double paper_bw, pc::Port port) {
  gr::Grid grid;
  attach_testbed(grid);
  grid.build();
  OrbPair p = make_orb_pair(grid, profile, port);
  Run lat = orb_latency_run(grid, p);
  Run bw = orb_bandwidth_run(grid, p, 1 << 20);
  return {profile.name, std::move(lat), std::move(bw), paper_lat, paper_bw};
}

Row jsock_row() {
  gr::Grid grid;
  attach_testbed(grid);
  grid.build();
  JsockPair p = make_jsock_pair(grid, 3440);
  Run lat = jsock_latency_run(grid, p);
  Run bw = jsock_bandwidth_run(grid, p, 1 << 20);
  return {"Java-socket", std::move(lat), std::move(bw), 40.0, 237.9};
}

}  // namespace

int main(int argc, char** argv) {
  Session session(argc, argv, "table1");
  std::printf("# Table 1: latency / max bandwidth over Myrinet-2000 "
              "(measured vs paper)\n");
  std::printf("%-14s %14s %12s %5s %5s %16s %14s\n", "system", "latency(us)",
              "paper(us)", "n", "warm", "bandwidth(MB/s)", "paper(MB/s)");
  std::vector<Row> rows;
  rows.push_back(circuit_row());
  rows.push_back(vlink_row());
  rows.push_back(mpi_row());
  rows.push_back(orb_row(padico::orb::profiles::omniorb3(), 20.3, 238.4, 3430));
  rows.push_back(orb_row(padico::orb::profiles::omniorb4(), 18.4, 235.8, 3435));
  rows.push_back(jsock_row());
  // Not in the paper's Table 1, but quoted in its Section 5 text:
  // "Mico peaks at 55 MB/s with a latency of 63us, and ORBacus gets
  //  63 MB/s with a latency of 54us."
  rows.push_back(orb_row(padico::orb::profiles::mico(), 63.0, 55.0, 3450));
  rows.push_back(orb_row(padico::orb::profiles::orbacus(), 54.0, 63.0, 3455));
  for (const Row& r : rows) {
    std::printf("%-14s %14.2f %12.2f %5d %5d %16.1f %14.1f\n", r.name.c_str(),
                r.latency.value, r.paper_latency, r.latency.n(),
                r.latency.warmup, r.bandwidth.value, r.paper_bandwidth);
    session.metric(r.name + ".latency", "us", r.latency);
    session.metric(r.name + ".bandwidth", "MB/s", r.bandwidth);
  }
  return 0;
}
