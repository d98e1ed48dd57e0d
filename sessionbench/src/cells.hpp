// The benchmark's workloads: each is a fixed mix of sessions ("cells"),
// every cell one public-API session configuration.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/config.hpp"

namespace sessionbench {

namespace core = streamcast::core;

/// Which public entry point runs the cell.
enum class CellKind {
  kReliable,      // StreamingSession::run()
  kLossy,         // StreamingSession::run_lossy()
  kMulticluster,  // core::run_multicluster_sharded()
};

struct Cell {
  /// Unique within its workload; names the cell in reports and in the
  /// reference table.
  std::string name;
  CellKind kind = CellKind::kReliable;
  core::SessionConfig config;
  /// The config draws a seed from --seed (randomized overlay or loss
  /// channel), so its reference output depends on the seed.
  bool seeded = false;
  /// False: the cell runs once per process, untimed, for its output check
  /// alone. Keeps a known defect checked without its seconds-long
  /// time-to-failure dominating the timed mix.
  bool timed = true;
};

struct Workload {
  const char* name;
  /// Why the workload is in the benchmark.
  const char* why;
};

const std::vector<Workload>& workloads();

/// Null when no workload has this name.
const Workload* find_workload(std::string_view name);

/// The workload's session mix for `seed`. `shards` is the shard count of
/// multicluster cells (the host's processor count); reference outputs do
/// not depend on it.
std::vector<Cell> make_cells(std::string_view workload, std::uint64_t seed,
                             int shards);

/// True when StreamingSession::run() answers the cell by closed-form
/// replay, so no overlay is built and no slot is simulated.
bool replays(const Cell& cell);

/// The cell's configuration as a JSON object (run manifest).
std::string describe(const Cell& cell);

/// A scheme or label as a metric-name component: '/' and ' ' become '-'.
std::string slug(std::string name);

}  // namespace sessionbench
