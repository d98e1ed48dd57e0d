// sessionbench: runs one workload's session mix for a fixed time, checks
// every session's output against its reference, and prints the end-to-end
// metrics (untraced) or the per-layer metrics (traced). See
// sessionbench/README.md for the workloads and the layer map.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "calibrate.hpp"
#include "cells.hpp"
#include "check.hpp"
#include "traced.hpp"

#ifndef SB_BUILD_TYPE
#define SB_BUILD_TYPE "unknown"
#define SB_CXX_FLAGS "unknown"
#define SB_COMPILER "unknown"
#endif

namespace sessionbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-layer metrics the traced result line carries on every workload.
/// Metrics of layers that run on some workloads only are printed on the
/// `layers` line instead (see README.md).
const char* const kLayerMetrics[] = {
    "scheme.build_s",         "protocol.transmit_s",
    "protocol.transmit_calls", "protocol.tx_emitted",
    "protocol.deliver_calls", "sim.pump_s",
    "sim.engine_self_s",      "sim.slots",
    "sim.transmissions",      "sim.deliveries",
    "sim.drops",              "sim.arena_bytes",
    "sim.ring_relayouts",     "sim.seen_relayouts",
    "core.aggregate_s",       "util.budget_peak_bytes",
    "trace.overhead_s",
};

constexpr const char* kUsage =
    "usage: sessionbench --workload NAME [--seed N] [--seconds S] "
    "[--trace 0|1]\n"
    "                    [--references FILE]... [--source ID] [--capture]\n"
    "\n"
    "Runs NAME's session mix repeatedly for S seconds (default 10) and\n"
    "prints one JSON result as the last line: end-to-end metrics with\n"
    "--trace 0 (default), per-layer metrics with --trace 1. Every session's\n"
    "output is checked against the reference digests read from FILE.\n"
    "--capture instead prints the reference line of every cell that has\n"
    "none, from one audited run each. --source names the source tree in\n"
    "the run manifest.\n"
    "\n"
    "workloads:\n";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::vector<std::string> references;
  std::string source = "unknown";
  bool capture = false;
};

void print_usage(std::ostream& os) {
  os << kUsage;
  for (const Workload& w : workloads()) {
    os << "  " << w.name << ": " << w.why << "\n";
  }
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "sessionbench: " << message << "\n";
  print_usage(std::cerr);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    *out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      print_usage(std::cout);
      std::exit(0);
    }
    if (flag == "--capture") {
      args.capture = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--references" && flag != "--source") {
      usage_error("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (find_workload(value) == nullptr) {
        usage_error("unknown workload '" + value + "'");
      }
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &args.seed)) usage_error("bad --seed " + value);
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(value, &s) || s < 1 || s > 3600) {
        usage_error("--seconds must be a whole number in [1, 3600]");
      }
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--references") {
      args.references.push_back(value);
    } else {
      args.source = value;
    }
  }
  if (args.workload.empty()) usage_error("--workload is required");
  return args;
}

/// Timing refuses builds whose numbers would mislead: no optimisation, or
/// a sanitizer.
std::string build_defect() {
#ifndef __OPTIMIZE__
  return "built without optimisation";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::string_view(SB_CXX_FLAGS).find("-fsanitize") !=
      std::string_view::npos) {
    return "built with a sanitizer";
  }
  return "";
}

int processors() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<int>(n);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
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
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_manifest(const Args& args, const std::vector<Cell>& cells,
                    int shards) {
  std::cout << "manifest {\"workload\": " << quoted(args.workload)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << number(args.seconds)
            << ", \"trace\": " << args.trace
            << ", \"source\": " << quoted(args.source)
            << ", \"build_type\": " << quoted(SB_BUILD_TYPE)
            << ", \"cxx_flags\": " << quoted(SB_CXX_FLAGS)
            << ", \"compiler\": " << quoted(SB_COMPILER)
            << ", \"nproc\": " << processors()
            << ", \"cpu_model\": " << quoted(cpu_model())
            << ", \"shards\": " << shards << ", \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << describe(cells[i]);
  }
  std::cout << "]}\n";
}

/// Attempted/failed session counts and the output-check verdicts of a run.
/// Each failing cell is printed once, with its reason. A session of a known
/// defect (its reference run threw, and it still throws) is printed as
/// KNOWN-DEFECT and counted apart: it is not an operation of the workload
/// until the defect is fixed, and then its report is checked like any other.
class Tally {
 public:
  void judge(const Cell& cell, const Outcome& outcome,
             const std::string& reference) {
    const Verdict v = sessionbench::judge(cell, outcome, reference);
    if (v.known_defect) {
      ++known_defects_;
      report(cell, "KNOWN-DEFECT ", v.reason);
      return;
    }
    ++attempted_;
    if (!v.failed) return;
    ++failed_;
    mismatch_ = mismatch_ || v.mismatch;
    report(cell, v.mismatch ? "MISMATCH " : "FAILED ", v.reason);
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  long known_defects() const { return known_defects_; }
  bool correct() const { return !mismatch_; }

 private:
  void report(const Cell& cell, const char* label, const std::string& why) {
    if (reported_.insert(cell.name).second) {
      std::cout << label << cell.name << ": " << why << "\n";
    }
  }

  long attempted_ = 0;
  long failed_ = 0;
  long known_defects_ = 0;
  bool mismatch_ = false;
  std::set<std::string> reported_;
};

/// Per-cell samples of the untraced passes: raw host times, and the same
/// times over the calibration kernel's time around them (calibrate.hpp).
struct Samples {
  explicit Samples(std::size_t cells)
      : session_s(cells), setup_s(cells), session_cal(cells),
        setup_cal(cells) {}
  std::vector<std::vector<double>> session_s, setup_s;
  std::vector<std::vector<double>> session_cal, setup_cal;
  std::vector<double> calibration_s;
};

/// One untraced pass over the timed cells. The calibration kernel runs
/// before the first cell and after every cell; a cell's calibrated times
/// divide by the mean of the kernel runs on either side of it. Returns the
/// pass's total raw session time.
double untraced_pass(const std::vector<Cell>& cells,
                     const std::vector<std::string>& refs, Tally& tally,
                     Samples& samples) {
  double pass = 0;
  double before = calibration_run();
  samples.calibration_s.push_back(before);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].timed) continue;
    Timing t;
    const Outcome out = run_cell(cells[i], &t);
    const double after = calibration_run();
    samples.calibration_s.push_back(after);
    const double kernel = (before + after) / 2;
    before = after;
    tally.judge(cells[i], out, refs[i]);
    samples.session_s[i].push_back(t.session_s);
    samples.setup_s[i].push_back(t.setup_s);
    samples.session_cal[i].push_back(t.session_s / kernel *
                                     kReferenceCalibrationS);
    samples.setup_cal[i].push_back(t.setup_s / kernel *
                                   kReferenceCalibrationS);
    pass += t.session_s;
  }
  return pass;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (tally.correct() ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << quoted(metrics[i].name)
              << ": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

int run(const Args& args) {
  const int shards = processors();
  const std::vector<Cell> cells = make_cells(args.workload, args.seed, shards);
  References references;
  for (const std::string& path : args.references) {
    if (!references.load(path)) {
      std::cerr << "sessionbench: cannot read references " << path << "\n";
      return 2;
    }
  }

  if (args.capture) {
    for (const Cell& cell : cells) {
      if (references.find(args.workload, cell, args.seed)) continue;
      std::cout << args.workload << " " << cell.name << " "
                << (cell.seeded ? std::to_string(args.seed) : "*") << " "
                << capture_reference(cell) << std::endl;
    }
    return 0;
  }

  if (const std::string defect = build_defect(); !defect.empty()) {
    std::cerr << "sessionbench: refusing to time a binary " << defect << "\n";
    return 2;
  }
  std::vector<std::string> refs;
  for (const Cell& cell : cells) {
    const auto ref = references.find(args.workload, cell, args.seed);
    if (!ref) {
      std::cerr << "sessionbench: no reference for " << args.workload << "/"
                << cell.name << " at seed " << args.seed
                << " (capture one with --capture)\n";
      return 2;
    }
    refs.push_back(*ref);
  }

  print_manifest(args, cells, shards);
  Tally tally;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].timed) continue;
    Timing t;
    tally.judge(cells[i], run_cell(cells[i], &t), refs[i]);
    std::cout << "check " << cells[i].name << " (untimed): session_s "
              << number(t.session_s) << "\n";
  }
  Samples samples(cells.size());
  const auto start = Clock::now();

  if (args.trace == 0) {
    std::vector<double> pass_walls;
    do {
      pass_walls.push_back(untraced_pass(cells, refs, tally, samples));
    } while (since(start) < args.seconds);
    double wall = 0;
    double wall_cal = 0;
    double setup_cal = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!cells[i].timed) continue;
      wall += median(samples.session_s[i]);
      wall_cal += median(samples.session_cal[i]);
      setup_cal += median(samples.setup_cal[i]);
      std::cout << "cell " << cells[i].name << ": session_s median "
                << number(median(samples.session_s[i])) << " calibrated "
                << number(median(samples.session_cal[i])) << ", setup_s median "
                << number(median(samples.setup_s[i])) << " calibrated "
                << number(median(samples.setup_cal[i])) << "\n";
    }
    const double rss = peak_rss_mib();
    std::string passes;
    for (const double w : pass_walls) passes += " " + number(w);
    std::cout << "summary " << args.workload << ": wall_s " << number(wall)
              << " s (sum of cell medians), calibration kernel median "
              << number(median(samples.calibration_s)) << " s (reference "
              << number(kReferenceCalibrationS) << " s), calibrated_wall_s "
              << number(wall_cal) << " s, setup_s " << number(setup_cal)
              << " s, peak_rss_mib " << number(rss)
              << " MiB, ops_failed_ratio "
              << number(static_cast<double>(tally.failed()) /
                        static_cast<double>(tally.attempted()))
              << " (" << tally.failed() << "/" << tally.attempted()
              << " sessions), known defects " << tally.known_defects()
              << "; pass wall_s" << passes << "\n";
    print_result(tally, {{"calibrated_wall_s", wall_cal, "s"},
                         {"setup_s", setup_cal, "s"},
                         {"peak_rss_mib", rss, "MiB"}});
    return tally.correct() ? 0 : 1;
  }

  // Traced: alternate an untraced and a traced pass. The layer figures
  // come from the fastest traced pass (one coherent set, so self times add
  // up); the overhead is the fastest traced pass less the fastest untraced.
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<Layers> passes;
  do {
    plain_walls.push_back(untraced_pass(cells, refs, tally, samples));
    Layers layers;
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!cells[i].timed) continue;
      for (const Outcome& out : run_cell_traced(cells[i], layers)) {
        tally.judge(cells[i], out, refs[i]);
      }
    }
    traced_walls.push_back(since(pass_start));
    layers.finish();
    passes.push_back(std::move(layers));
  } while (since(start) < args.seconds);

  const auto best = std::min_element(traced_walls.begin(), traced_walls.end());
  std::vector<Metric> all;
  for (const auto& [name, value] :
       passes[static_cast<std::size_t>(best - traced_walls.begin())].values()) {
    all.push_back({name, value, unit_of(name)});
  }
  all.push_back({"trace.overhead_s", *best - fastest(plain_walls), "s"});
  std::cout << "layers {";
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << quoted(all[i].name) << ": "
              << number(all[i].value);
  }
  std::cout << "}\n";

  std::vector<Metric> picked;
  for (const char* name : kLayerMetrics) {
    const auto it = std::find_if(all.begin(), all.end(), [&](const Metric& m) {
      return m.name == name;
    });
    if (it == all.end()) {
      std::cerr << "sessionbench: layer metric " << name
                << " was not measured on " << args.workload << "\n";
      return 2;
    }
    picked.push_back(*it);
  }
  print_result(tally, picked);
  return tally.correct() ? 0 : 1;
}

}  // namespace
}  // namespace sessionbench

int main(int argc, char** argv) {
  return sessionbench::run(sessionbench::parse(argc, argv));
}
