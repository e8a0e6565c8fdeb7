// What every perfbench workload hands back to main(): its correctness
// checks, the figures of its untraced or traced run, and the raw
// digests and cells that run.py compares with perfbench/expected.json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string spans_path;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Counts read from a grid after a run: its engine registry, fabric
/// networks and vlink drivers.  They repeat exactly for a given
/// workload and seed.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t pending_max = 0;
  // Indexed by NetClass: loopback, san, lan, wan.
  std::uint64_t net_msgs[4] = {};
  std::uint64_t net_bytes[4] = {};
  std::uint64_t net_dropped = 0;
  std::uint64_t arb_turns = 0;
  std::uint64_t arb_switches = 0;
  std::uint64_t madio_sends = 0;
  std::uint64_t madio_combined = 0;
  std::uint64_t vlink_frames = 0;
  std::uint64_t vlink_bytes = 0;
  std::uint64_t vlink_malformed = 0;
  std::uint64_t selector_hits = 0;
  std::uint64_t selector_misses = 0;
  std::uint64_t selector_evictions = 0;
  std::uint64_t cpu_vns = 0;

  /// Add what `grid`'s engine registry, fabric and vlink drivers
  /// counted.  High-water marks combine by maximum.
  void add(padico::grid::Grid& grid);
};

/// Host-time figures of the traced run, and the per-layer counts of
/// the last traced repetition.  Workloads fill in what applies to
/// them and leave the rest 0.
struct LayerFigures {
  LayerCounts counts;
  double ops = 0;  // ops of the repetition `counts` came from
  double run_ns = 0;  // host time of that repetition's run phase
  double select_calls = 0;
  double select_ns = 0;  // self ns per select call
  double rss_per_node_kb = 0;
  double churn_applied = 0;
  double failed_frac = 0;
  double circuit_ns_per_msg = 0;
  double mpi_ns_per_msg = 0;
  double corba_ns_per_call = 0;
  double jsock_ns_per_msg = 0;
  double vrp_retransmissions = 0;
  double adoc_level_switches = 0;
  double compress_ns_per_kb = 0;
  double coverage = 0;
  double overhead_pct = 0;
};

/// Paper Table 1 cells: name, simulated value, the paper's value.
struct PaperCell {
  std::string name;
  double value;
  double paper;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;

  // Untraced run (--trace 0).
  double setup_s = 0;
  double ops_per_s = 0;

  // Traced run (--trace 1).
  LayerFigures layers;

  /// Replay keys, by label; run.py compares the ones it has recorded.
  std::map<std::string, std::string> digests;
  /// Simulated paper cells (virtual time), by name.
  std::map<std::string, double> cells;
  /// The Table 1 cells among them, with the paper's values.
  std::vector<PaperCell> table1;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
};

void run_scenario_workload(const Options& opt, Result& out);
void run_paper_stack(const Options& opt, Result& out);

/// One untimed pass over the Table 1 rows: the model-accuracy cells
/// every workload reports as paper_err_pct.
std::vector<PaperCell> table1_cells();

bool is_scenario_workload(const std::string& name);

/// Median (the mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> v);

/// Set-up samples: calls `build` (which returns the nanoseconds its
/// set-up took) at least `min_builds` times and until `budget_ns` of
/// wall time has passed, appending each sample in seconds to `out`.
/// Bursts taken before every repetition spread the samples over the
/// whole run, so their median rides out short slow spells of the host
/// as the run-phase medians do.
template <typename Build>
void sample_setup(std::vector<double>& out, std::size_t min_builds,
                  std::int64_t budget_ns, Build&& build) {
  const std::int64_t t_end = now_ns() + budget_ns;
  for (std::size_t n = 0; n < min_builds || now_ns() < t_end; ++n) {
    out.push_back(static_cast<double>(build()) * 1e-9);
  }
}

/// Resident set now / high-water mark of this process, in KiB.
std::uint64_t rss_now_kb();
std::uint64_t rss_peak_kb();

}  // namespace perfbench
