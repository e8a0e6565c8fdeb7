// perfbench: runs one benchmark workload in this single-threaded
// process and prints its figures.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
//
// Workloads: session_storm, san_bulk, churn_mix, paper_stack (see
// perfbench/README.md).  With --trace 0 the figures are the end-to-end
// metrics; with --trace 1 they are the per-layer metrics of a traced
// run.  Human-readable lines come first; the last line is
// "RESULT <json>" with the metrics, the correctness checks, and the
// digests and simulated cells that run.py compares with the recorded
// ones.  The exit code is 0 only if every check here passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

// PERFBENCH_COMPILER, PERFBENCH_FLAGS and PERFBENCH_BUILD_TYPE come from
// perfbench/CMakeLists.txt, so every result records what built it.

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload session_storm|san_bulk|churn_mix|"
               "paper_stack --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n");
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metrics {
  std::string json;
  std::vector<std::string> lines;

  void add(const char* name, const char* unit, double value) {
    json += json.empty() ? "" : ", ";
    json += "\"" + std::string(name) + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + unit + "\"}";
    char line[128];
    std::snprintf(line, sizeof line, "  %-32s %16.6g %s", name, value, unit);
    lines.push_back(line);
  }
};

double paper_err_pct(const std::vector<PaperCell>& cells) {
  double worst = 0;
  for (const PaperCell& c : cells) {
    worst = std::max(worst, std::fabs(c.value - c.paper) / c.paper * 100.0);
  }
  return worst;
}

// The names below are the benchmark's contract with BENCHMARK.json.

void end_to_end(const Result& r, std::uint64_t peak_kb, Metrics& m) {
  m.add("setup_s", "s", r.setup_s);
  m.add("ops_per_s", "1/s", r.ops_per_s);
  m.add("peak_rss_mb", "MB", static_cast<double>(peak_kb) / 1024.0);
  m.add("paper_err_pct", "%", paper_err_pct(r.table1));
}

void per_layer(const Result& r, Metrics& m) {
  const LayerFigures& f = r.layers;
  const LayerCounts& c = f.counts;
  const auto per_op = [&](double x) { return f.ops > 0 ? x / f.ops : 0.0; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  enum { kSan = 1, kLan = 2, kWan = 3 };
  double msgs = 0, bytes = 0;
  for (int i = 0; i < 4; ++i) {
    msgs += static_cast<double>(c.net_msgs[i]);
    bytes += static_cast<double>(c.net_bytes[i]);
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  m.add("core.events_per_op", "count", per_op(d(c.events)));
  m.add("core.ns_per_event", "ns", ratio(f.run_ns, d(c.events)));
  m.add("core.pending_max", "count", d(c.pending_max));
  m.add("simnet.msgs_per_op", "count", per_op(msgs));
  m.add("simnet.bytes_per_op", "B", per_op(bytes));
  m.add("simnet.san.msgs_per_op", "count", per_op(d(c.net_msgs[kSan])));
  m.add("simnet.lan.msgs_per_op", "count", per_op(d(c.net_msgs[kLan])));
  m.add("simnet.wan.msgs_per_op", "count", per_op(d(c.net_msgs[kWan])));
  m.add("simnet.san.bytes_per_op", "B", per_op(d(c.net_bytes[kSan])));
  m.add("simnet.lan.bytes_per_op", "B", per_op(d(c.net_bytes[kLan])));
  m.add("simnet.wan.bytes_per_op", "B", per_op(d(c.net_bytes[kWan])));
  m.add("simnet.frames_dropped", "count", d(c.net_dropped));
  m.add("net.arb.turns_per_op", "count", per_op(d(c.arb_turns)));
  m.add("net.arb.switches", "count", d(c.arb_switches));
  m.add("net.madio.combined_ratio", "ratio",
        ratio(d(c.madio_combined), d(c.madio_sends)));
  m.add("vlink.frames_per_op", "count", per_op(d(c.vlink_frames)));
  m.add("vlink.bytes_per_op", "B", per_op(d(c.vlink_bytes)));
  m.add("vlink.malformed", "count", d(c.vlink_malformed));
  m.add("selector.select_calls", "count", f.select_calls);
  m.add("selector.select_ns", "ns", f.select_ns);
  m.add("selector.hit_ratio", "ratio",
        ratio(d(c.selector_hits), d(c.selector_hits + c.selector_misses)));
  m.add("selector.evictions", "count", d(c.selector_evictions));
  m.add("scenario.rss_per_node_kb", "kB", f.rss_per_node_kb);
  m.add("scenario.churn_applied", "count", f.churn_applied);
  m.add("failed_frac", "ratio", f.failed_frac);
  m.add("middleware.cpu_vns_per_op", "ns", per_op(d(c.cpu_vns)));
  m.add("madeleine.circuit_ns_per_msg", "ns", f.circuit_ns_per_msg);
  m.add("middleware.mpi_ns_per_msg", "ns", f.mpi_ns_per_msg);
  m.add("middleware.corba_ns_per_call", "ns", f.corba_ns_per_call);
  m.add("middleware.jsock_ns_per_msg", "ns", f.jsock_ns_per_msg);
  m.add("adapters.vrp_retransmissions", "count", f.vrp_retransmissions);
  m.add("adapters.adoc_level_switches", "count", f.adoc_level_switches);
  m.add("compress.ns_per_kb", "ns", f.compress_ns_per_kb);
  m.add("trace.coverage", "ratio", f.coverage);
  m.add("trace.overhead_pct", "%", f.overhead_pct);
}

int run(const Options& opt) {
  Result r;
  if (opt.workload == "paper_stack") {
    run_paper_stack(opt, r);
  } else {
    run_scenario_workload(opt, r);
  }
  // ru_maxrss is this process's high-water mark, so read it before the
  // untimed Table 1 pass below can raise it.
  const std::uint64_t peak_kb = rss_peak_kb();
  if (r.table1.empty()) {
    r.table1 = table1_cells();
    for (const PaperCell& c : r.table1) r.cells[c.name] = c.value;
  }

  bool ok = true;
  for (const Check& c : r.checks) ok = ok && c.ok;
  if (!ok) r.failed = r.attempted;

  Metrics m;
  if (opt.trace) {
    per_layer(r, m);
  } else {
    end_to_end(r, peak_kb, m);
  }

  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const Check& c : r.checks) {
    std::printf("# check %-40s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  std::printf("# %s metrics (workload %s, seed %llu):\n",
              opt.trace ? "per-layer" : "end-to-end", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  for (const std::string& line : m.lines) std::printf("#%s\n", line.c_str());

  std::string out = "{\"workload\": \"" + escape(opt.workload) + "\"";
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    out += i == 0 ? "" : ", ";
    out += "{\"name\": \"" + escape(c.name) + "\", \"ok\": " +
           (c.ok ? "true" : "false") + ", \"detail\": \"" + escape(c.detail) +
           "\"}";
  }
  out += "], \"digests\": {";
  bool first = true;
  for (const auto& [k, v] : r.digests) {
    out += (first ? "\"" : ", \"") + escape(k) + "\": \"" + escape(v) + "\"";
    first = false;
  }
  out += "}, \"cells\": {";
  first = true;
  for (const auto& [k, v] : r.cells) {
    out += (first ? "\"" : ", \"") + escape(k) + "\": " + number(v);
    first = false;
  }
  out += "}, \"metrics\": {" + m.json + "}";
  out += ", \"build\": {\"compiler\": \"" + escape(PERFBENCH_COMPILER) +
         "\", \"flags\": \"" + escape(PERFBENCH_FLAGS) +
         "\", \"build_type\": \"" + escape(PERFBENCH_BUILD_TYPE) +
         "\", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}}";
  std::printf("RESULT %s\n", out.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      opt.trace = val == "1";
    } else if (arg == "--spans-out") {
      opt.spans_path = val;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      (opt.workload != "paper_stack" && !is_scenario_workload(opt.workload))) {
    usage();
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
