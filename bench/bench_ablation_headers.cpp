// Ablation: what header combining is worth (DESIGN.md design-choice index).
//
// The paper argues multiplexing "can significantly increase the latency if
// not done properly" and solves it by aggregating headers from several
// layers into a single packet.  This benchmark quantifies the claim across
// message sizes and layered stacks: raw MadIO tags, the vlink method over
// the full stack, and — once the middleware personalities land — full MPI.
#include "common.hpp"
#include "madeleine/madeleine.hpp"
#include "net/madio.hpp"

namespace {

using namespace bench;
namespace md = padico::mad;
namespace net = padico::net;

void setup_grid(gr::Grid& grid, bool combining) {
  attach_testbed(grid);
  gr::BuildOptions opts;
  opts.header_combining = combining;
  grid.build(opts);
}

/// One-way latency of a MadIO tag ping-pong at `size` payload bytes.
double madio_latency_us(bool combining, std::size_t size, int rounds = 64) {
  gr::Grid grid;
  setup_grid(grid, combining);
  net::MadIO* io0 = grid.node(0).madio();
  net::MadIO* io1 = grid.node(1).madio();
  const pc::Bytes payload(size, 0x5A);
  auto send = [&](net::MadIO& io, pc::NodeId dst) {
    io.send(1, dst, pc::view_of(payload));
  };
  int pongs = 0;
  pc::SimTime t0 = grid.engine().now(), t1 = 0;
  io1->set_handler(1, [&](pc::NodeId, md::UnpackHandle&) { send(*io1, 0); });
  io0->set_handler(1, [&](pc::NodeId, md::UnpackHandle&) {
    if (++pongs < rounds) {
      send(*io0, 1);
    } else {
      t1 = grid.engine().now();
    }
  });
  send(*io0, 1);
  grid.engine().run_while_pending([&] { return pongs >= rounds; });
  return pc::to_micros(t1 - t0) / (2.0 * rounds);
}

double vlink_latency_with_combining(bool combining) {
  gr::Grid grid;
  setup_grid(grid, combining);
  LinkPair p = make_link_pair(grid, "madio", 4910);
  return link_latency_us(grid, p);
}

/// Build the paper testbed with combining on/off and measure MPI.
std::pair<double, double> mpi_with_combining(bool combining) {
  gr::Grid grid;
  setup_grid(grid, combining);
  MpiPair p = make_mpi_pair(grid, 0x80, 4900);
  const double lat = mpi_latency_us(grid, p);
  const double bw_small = mpi_bandwidth_mbps(grid, p, 256);
  return {lat, bw_small};
}

void print_row(const char* label, double on, double off) {
  std::printf("%-28s %10.2fus %10.2fus %+9.2fus\n", label, on, off, off - on);
}

}  // namespace

int main() {
  std::printf("# Ablation: MadIO header combining on/off\n\n");
  std::printf("%-28s %12s %12s %10s\n", "configuration", "combined", "naive",
              "penalty");
  for (const std::size_t size : {4u, 256u, 4096u, 32768u}) {
    char label[64];
    std::snprintf(label, sizeof(label), "MadIO tag latency @%zuB", size);
    print_row(label, madio_latency_us(true, size),
              madio_latency_us(false, size));
  }
  print_row("VLink one-way latency", vlink_latency_with_combining(true),
            vlink_latency_with_combining(false));
  auto [mpi_on_lat, mpi_on_bw] = mpi_with_combining(true);
  auto [mpi_off_lat, mpi_off_bw] = mpi_with_combining(false);
  print_row("MPI one-way latency", mpi_on_lat, mpi_off_lat);
  std::printf("%-28s %10.1fMB %10.1fMB %+9.1f%%\n",
              "MPI bandwidth @256B (MB/s)", mpi_on_bw, mpi_off_bw,
              (mpi_off_bw / mpi_on_bw - 1.0) * 100);
  std::printf("\n# the naive scheme sends the MadIO header as its own "
              "hardware message:\n# every layered message pays one extra "
              "per-message cost — visible in\n# latency at every size, "
              "invisible only once wire time dominates.\n");
  return 0;
}
