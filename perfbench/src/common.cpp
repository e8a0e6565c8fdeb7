#include <algorithm>
#include <cstdio>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

#include "obs/registry.hpp"
#include "simnet/network.hpp"
#include "vlink/frame_driver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::uint64_t counter(const padico::obs::Registry& reg, const char* name) {
  const padico::obs::Counter* c = reg.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// Sum of every `cpu.<personality>.ns` counter in a registry snapshot
/// (the personality names are not known up front).
std::uint64_t cpu_vns(const padico::obs::Registry& reg) {
  std::istringstream in(reg.snapshot());
  std::string kind, name;
  std::uint64_t total = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::uint64_t value = 0;
    if (!(fields >> kind >> name >> value) || kind != "counter") continue;
    if (name.rfind("cpu.", 0) == 0 && name.size() > 7 &&
        name.compare(name.size() - 3, 3, ".ns") == 0) {
      total += value;
    }
  }
  return total;
}

/// FrameDriver keeps its malformed-frame count protected (a
/// subclass hook, not a public getter).  A pointer to the member taken
/// in a derived scope reads it without any src/ change; it is the only
/// non-public read the benchmark makes.
struct MalformedPeek : padico::vlink::FrameDriver {
  static constexpr auto kGetter = &MalformedPeek::malformed_frames;
};

}  // namespace

void LayerCounts::add(padico::grid::Grid& grid) {
  const padico::obs::Registry& reg = grid.engine().obs();
  events += grid.engine().processed();
  if (const padico::obs::Gauge* g = reg.find_gauge("engine.pending")) {
    pending_max = std::max<std::uint64_t>(
        pending_max, static_cast<std::uint64_t>(std::max<std::int64_t>(g->max(), 0)));
  }
  padico::simnet::Fabric& fabric = grid.fabric();
  for (std::size_t i = 0; i < fabric.network_count(); ++i) {
    const padico::simnet::Network& net =
        fabric.network(static_cast<padico::simnet::NetId>(i));
    const auto cls = static_cast<std::size_t>(net.model().net_class);
    net_msgs[cls] += net.messages_sent();
    net_bytes[cls] += net.bytes_sent();
    net_dropped += net.messages_dropped() + net.frames_dropped();
  }
  arb_turns += counter(reg, "arb.pump_turns");
  arb_switches += counter(reg, "arb.switches");
  madio_sends += counter(reg, "madio.sends");
  madio_combined += counter(reg, "madio.hdr.combined");
  vlink_frames += counter(reg, "vlink.tx.frames");
  vlink_bytes += counter(reg, "vlink.tx.bytes");
  selector_hits += counter(reg, "selector.cache.hits");
  selector_misses += counter(reg, "selector.cache.misses");
  selector_evictions += counter(reg, "selector.cache.evictions");
  cpu_vns += perfbench::cpu_vns(reg);
  for (std::size_t n = 0; n < grid.size(); ++n) {
    for (const auto& drv : grid.node(n).vlink().drivers()) {
      if (const auto* fd = dynamic_cast<const padico::vlink::FrameDriver*>(drv.get())) {
        vlink_malformed += (fd->*MalformedPeek::kGetter)();
      }
    }
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + upper) / 2;
}

std::uint64_t rss_now_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

std::uint64_t rss_peak_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<std::uint64_t>(u.ru_maxrss);
}

}  // namespace perfbench
