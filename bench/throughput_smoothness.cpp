// Throughput/smoothness frontier: recovery policy x startup policy x
// Gilbert–Elliott burstiness, on the chain overlay.
//
// Joshi–Kochman–Wornell (arXiv:1405.3697) frame streaming over erasures as
// a tradeoff between throughput (how much channel capacity the stream plus
// its redundancy consumes) and playback smoothness (how late playback must
// start, and how often it stalls, to ride out losses). This bench sweeps
// the three recovery policies of the registry — `nack` (feedback
// retransmission), `xor-parity` (fixed-rate FEC), `streaming-code`
// (Badr–Lui–Khisti delay-bounded burst code) — against the three startup
// policies (`fixed`, `progressive-ramp`, `loss-adaptive`) over GE channels
// of equal stationary loss but growing burst length, and reports each
// cell's position on the frontier:
//
//   throughput  = data / (data + retransmissions + parity)
//   smoothness  = stalls, stalled slots, undecodable window packets
//   delay       = the startup policy's average/max start slot
//
// Emits the frontier as JSON (argv[1], default throughput_smoothness.json)
// for the E36 figure. Exit is nonzero if the Badr–Lui–Khisti guarantee is
// violated: any streaming-code cell whose channel stayed inside the code's
// guaranteed region (max erasure run <= B, no guard-space collision) must
// play back with zero undecodable packets — and at least one cell of the
// grid must land in that region, so the guarantee is actually exercised.
//
// --smoke shrinks the grid (fewer burst levels, smaller chain) for the CI
// jobs. --help prints the usage text and exits 0; any other unknown flag
// exits 2 before a run starts.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/session.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;

struct BurstLevel {
  const char* label;
  double p_enter;
  double p_recover;  // E[burst] = 1 / p_recover
};

struct Cell {
  std::string recovery;
  std::string startup;
  std::string burst;
  double expected_burst = 0;
  double throughput = 0;
  double overhead = 0;
  std::int64_t drops = 0;
  int stalls = 0;
  core::Slot stall_slots = 0;
  sim::PacketId undecodable = 0;
  double average_start = 0;
  core::Slot max_start = 0;
  core::Slot earliest_start = 0;
  std::int64_t max_erasure_run = 0;
  std::int64_t guard_collisions = 0;
  std::int64_t unrecoverable = 0;
  bool guaranteed_region = false;
};

void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"throughput_smoothness\",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"recovery\": \"" << c.recovery
        << "\", \"startup\": \"" << c.startup << "\", \"burst\": \""
        << c.burst << "\", \"expected_burst\": " << c.expected_burst
        << ", \"throughput\": " << c.throughput
        << ", \"overhead\": " << c.overhead << ", \"drops\": " << c.drops
        << ", \"stalls\": " << c.stalls
        << ", \"stall_slots\": " << c.stall_slots
        << ", \"undecodable\": " << c.undecodable
        << ", \"average_start\": " << c.average_start
        << ", \"max_start\": " << c.max_start
        << ", \"earliest_start\": " << c.earliest_start
        << ", \"max_erasure_run\": " << c.max_erasure_run
        << ", \"guard_collisions\": " << c.guard_collisions
        << ", \"unrecoverable\": " << c.unrecoverable
        << ", \"guaranteed_region\": "
        << (c.guaranteed_region ? "true" : "false") << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void usage(std::ostream& out) {
  out << "usage: throughput_smoothness [options] [OUT.json]\n"
         "  --smoke   reduced grid (2 burst levels, 8-node chain)\n"
         "  --help    print this text and exit\n"
         "  OUT.json  frontier report path "
         "(default throughput_smoothness.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.starts_with('-')) {
      std::cerr << "unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    } else {
      out_path = arg;
    }
  }
  bench::banner("throughput/smoothness frontier",
                "recovery policy x startup policy x GE burstiness "
                "(Joshi–Kochman–Wornell tradeoff, chain overlay)");
  if (out_path.empty()) out_path = "throughput_smoothness.json";

  // The first level is mild (~0.3% stationary loss: isolated erasures far
  // apart, inside the streaming code's guaranteed region at B = 4, T = 12);
  // the rest hold stationary loss at ~2% (p_enter / (p_enter + p_recover))
  // with growing burst length, where guard-space collisions and runs
  // beyond B push the code out of its guarantee.
  const BurstLevel kBursts[] = {
      {"mild E[burst]=1.1", 0.0030, 0.9},
      {"E[burst]=1.0", 0.0204, 1.0},
      {"E[burst]=1.1", 0.0184, 0.9},
      {"E[burst]=2.0", 0.0102, 0.5},
      {"E[burst]=4.0", 0.0051, 0.25},
  };
  const char* kRecovery[] = {"nack", "xor-parity", "streaming-code"};
  const char* kStartup[] = {"fixed", "progressive-ramp", "loss-adaptive"};
  const int burst_levels = smoke ? 2 : 5;
  const sim::NodeKey n = smoke ? 8 : 16;

  util::Table table({"recovery", "startup", "burst", "thruput", "stalls",
                     "stall slots", "undec", "avg start", "max start",
                     "max run", "guard", "unrec"});
  std::vector<Cell> cells;
  bool ok = true;
  bool guaranteed_seen = false;

  for (int b = 0; b < burst_levels; ++b) {
    const BurstLevel& lvl = kBursts[b];
    for (const char* rec : kRecovery) {
      for (const char* start : kStartup) {
        core::SessionConfig cfg{
            .scheme = core::Scheme::kChain, .n = n, .d = 1};
        cfg.window = 64;
        cfg.loss.model = loss::ErasureKind::kGilbertElliott;
        cfg.loss.ge = {.p_enter = lvl.p_enter,
                       .p_recover = lvl.p_recover,
                       .loss_good = 0.0,
                       .loss_bad = 1.0};
        cfg.loss.seed = 0xf2011 + static_cast<std::uint64_t>(b);
        cfg.loss.recovery_policy = rec;
        cfg.loss.code = {.decode_delay = 12, .burst = 4};
        cfg.loss.max_drain = 4096;
        cfg.startup.policy = start;
        const core::LossRunResult r = core::StreamingSession(cfg).run_lossy();

        Cell c;
        c.recovery = rec;
        c.startup = start;
        c.burst = lvl.label;
        c.expected_burst = 1.0 / lvl.p_recover;
        c.overhead = r.loss.redundancy_overhead;
        c.throughput = 1.0 / (1.0 + r.loss.redundancy_overhead);
        c.drops = r.loss.drops;
        c.stalls = r.startup.stalls;
        c.stall_slots = r.startup.stall_slots;
        c.undecodable = r.startup.undecodable;
        c.average_start = r.startup.average_start;
        c.max_start = r.startup.max_start;
        c.earliest_start = r.startup.earliest_start;
        c.max_erasure_run = r.loss.max_erasure_run;
        c.guard_collisions = r.loss.guard_collisions;
        c.unrecoverable = r.loss.unrecoverable;

        if (c.recovery == "streaming-code") {
          c.guaranteed_region =
              c.max_erasure_run <= 4 && c.guard_collisions == 0;
          if (c.guaranteed_region) {
            guaranteed_seen = true;
            if (c.undecodable != 0) {
              std::cerr << "FAIL: streaming-code cell (" << c.burst << ", "
                        << c.startup << ") stayed inside the guaranteed "
                        << "region (max run " << c.max_erasure_run
                        << " <= B, no guard collision) but reported "
                        << c.undecodable << " undecodable packets\n";
              ok = false;
            }
          }
        }
        cells.push_back(c);

        table.add_row({c.recovery, c.startup, c.burst,
                       util::cell(c.throughput, 3), util::cell(c.stalls),
                       util::cell(c.stall_slots), util::cell(c.undecodable),
                       util::cell(c.average_start, 1),
                       util::cell(c.max_start), util::cell(c.max_erasure_run),
                       util::cell(c.guard_collisions),
                       util::cell(c.unrecoverable)});
      }
    }
  }
  table.print(std::cout);

  if (!guaranteed_seen) {
    std::cerr << "FAIL: no streaming-code cell landed in the code's "
                 "guaranteed region — the Badr–Lui–Khisti guarantee was "
                 "never exercised\n";
    ok = false;
  }

  write_json(out_path, cells);
  std::cout << "\nfrontier JSON: " << out_path << " (" << cells.size()
            << " cells)\n";
  std::cout
      << "\nReading the frontier: NACK buys throughput with feedback "
         "latency (stalls grow with burst length), XOR parity pays a fixed "
         "overhead but decodes only single losses per window, and the "
         "streaming code trades a constant parity rate for a hard decode "
         "deadline — inside its guaranteed region (every erasure run <= B "
         "with clean guard spaces) playback is perfectly smooth at the "
         "startup policy's chosen delay.\n";
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
