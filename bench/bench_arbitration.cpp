// Section 4.1 arbitration reproduction (qualitative claims of the paper):
//   - several middleware systems run concurrently on the same node pair
//     without starving each other ("any combination of them may be used
//     at the same time");
//   - the SysIO/MadIO interleaving policy is dynamically tunable
//     (node.arbitration().set_policy(sys, mad)).
//
// Workload on the paper testbed, all real personality traffic: an MPI
// bulk stream and an MPI ping-pong share the SAN (parallel paradigm,
// mad substrate), while a CORBA request/response stream runs over
// Ethernet (distributed paradigm, sys substrate).  All three funnel
// through each node's Arbitration (PadicoTM's NetAccess) — MPI
// deliveries and ORB socket events genuinely contend for the same I/O
// manager.
#include "common.hpp"
#include "net/arbitration.hpp"

namespace {

using namespace bench;

constexpr int kBulk = 1;    // MPI tag: 8 KB ack-clocked stream
constexpr int kCredit = 2;  // MPI tag: bulk flow-control credits
constexpr int kPing = 3;    // MPI tag: 64 B ping-pong

struct ConcurrentResult {
  double bulk_mbps;       // MPI bulk stream throughput
  double ping_oneway_us;  // MPI ping-pong latency under load
  double orb_req_per_s;   // CORBA request/response rate
};

ConcurrentResult run_concurrent(int sys_weight, int mad_weight,
                                bool coarse_poll) {
  gr::Grid grid;
  attach_testbed(grid);
  grid.build();
  for (int n = 0; n < 2; ++n) {
    padico::net::Arbitration& arb = grid.node(n).arbitration();
    arb.set_policy(sys_weight, mad_weight);
    if (coarse_poll) {
      // A deliberately heavy poll loop (slow select()-style iteration):
      // the regime where the interleaving policy really matters.
      arb.set_costs(pc::microseconds(5), pc::microseconds(50));
    }
  }

  // Parallel paradigm: one MPI communicator over the SAN circuit.
  auto set = grid.make_circuit("arb-mpi", padico::circuit::Group({0, 1}),
                               0x70, 4800);
  padico::mpi::Comm c0(set.at(0)), c1(set.at(1));

  // Distributed paradigm: a CORBA echo service pinned to Ethernet.
  padico::orb::Orb server(grid.node(1).host(), grid.node(1).vlink(),
                          padico::orb::profiles::omniorb4(), 4820, "sysio");
  server.activate("echo", [](const std::string&,
                             std::vector<padico::orb::Any> args) {
    return args;
  });
  server.start();
  padico::orb::Orb client(grid.node(0).host(), grid.node(0).vlink(),
                          padico::orb::profiles::omniorb4(), 4821, "sysio");
  const padico::orb::ObjectRef echo = server.ref_of("echo");

  const pc::Duration window = pc::milliseconds(50);
  const pc::SimTime deadline = grid.engine().now() + window;

  // MPI bulk: 8 KB messages, a window of 4 in flight, credit-clocked.
  const pc::Bytes chunk(8 * 1024, 0x42);
  std::uint64_t bulk_bytes = 0;
  bool bulk_done = false;
  auto bulk_rx = [&]() -> pc::Task {
    for (;;) {
      pc::Bytes b = co_await c1.recv(0, kBulk);
      // Only count deliveries inside the measurement window: the
      // figure divides by exactly `window`, and the in-flight chunks
      // drain past the deadline.
      if (grid.engine().now() <= deadline) bulk_bytes += b.size();
      c1.isend(0, kCredit, pc::view_of("k"));
    }
  };
  auto bulk_tx = [&]() -> pc::Task {
    for (int i = 0; i < 4; ++i) c0.isend(1, kBulk, pc::view_of(chunk));
    for (;;) {
      co_await c0.recv(1, kCredit);
      if (grid.engine().now() >= deadline) break;
      c0.isend(1, kBulk, pc::view_of(chunk));
    }
    bulk_done = true;
  };

  // MPI ping: 64 B ping-pong sharing the SAN with the bulk stream.
  const pc::Bytes ball(64, 0x01);
  int pongs = 0;
  bool ping_done = false;
  pc::SimTime ping_t0 = 0, last_pong = 0;
  auto ping_srv = [&]() -> pc::Task {
    for (;;) {
      co_await c1.recv(0, kPing);
      c1.isend(0, kPing, pc::view_of(ball));
    }
  };
  auto ping_cli = [&]() -> pc::Task {
    ping_t0 = grid.engine().now();
    while (grid.engine().now() < deadline) {
      co_await c0.sendrecv(1, kPing, pc::view_of(ball), 1, kPing);
      ++pongs;
      last_pong = grid.engine().now();
    }
    ping_done = true;
  };

  // CORBA: back-to-back 64 B echo invocations over Ethernet.
  int orb_reqs = 0;
  bool orb_done = false;
  auto orb_cli = [&]() -> pc::Task {
    // invoke() calls stay out of co_await full-expressions (GCC 12
    // coroutine gotcha; see DESIGN.md "Conventions").
    const std::string warm_m = "warm", echo_m = "echo";
    pc::Completion<padico::orb::Reply> warm = client.invoke(echo, warm_m, {});
    co_await warm;  // connection warm-up
    pc::Bytes body(64, 0x02);
    while (grid.engine().now() < deadline) {
      std::vector<padico::orb::Any> args;
      args.emplace_back(body);
      pc::Completion<padico::orb::Reply> call =
          client.invoke(echo, echo_m, std::move(args));
      co_await call;
      ++orb_reqs;
    }
    orb_done = true;
  };

  auto t1 = bulk_rx();
  auto t2 = ping_srv();
  auto t3 = bulk_tx();
  auto t4 = ping_cli();
  auto t5 = orb_cli();
  grid.engine().run_while_pending(
      [&] { return bulk_done && ping_done && orb_done; });

  ConcurrentResult r;
  r.bulk_mbps = mbps(bulk_bytes, window);
  r.ping_oneway_us =
      pongs > 0 ? pc::to_micros(last_pong - ping_t0) / (2.0 * pongs) : 0.0;
  r.orb_req_per_s = orb_reqs / pc::to_seconds(window);
  return r;
}

}  // namespace

int main() {
  std::printf("# Section 4.1: arbitration — MPI bulk + MPI ping-pong (SAN) "
              "vs CORBA\n# request/response (Ethernet), concurrently on one "
              "node pair, per\n# interleaving policy\n\n");
  for (const bool coarse : {false, true}) {
    std::printf("## %s\n", coarse
                               ? "coarse poll loop (5 us/iter, 50 us switch)"
                               : "fine-grained poll loop (default costs)");
    std::printf("%22s %14s %18s %14s\n", "policy (sys:mad)", "MPI bulk MB/s",
                "MPI ping 1-way us", "CORBA req/s");
    for (auto [sw, mw] : {std::pair{1, 1}, {1, 8}, {8, 1}}) {
      ConcurrentResult r = run_concurrent(sw, mw, coarse);
      std::printf("%20d:%d %14.1f %18.2f %14.0f\n", sw, mw, r.bulk_mbps,
                  r.ping_oneway_us, r.orb_req_per_s);
    }
    std::printf("\n");
  }
  std::printf("# every policy keeps all three middleware flows progressing "
              "(no\n# starvation); with a coarse poll loop, skewing the "
              "interleave visibly\n# trades SAN-side dispatch priority "
              "against distributed-side reactivity.\n");
  return 0;
}
