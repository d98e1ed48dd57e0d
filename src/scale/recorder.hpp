// The scale path's result block (DESIGN.md §11). Every run records delays
// and neighbors with the one flat family in src/metrics; what the scale
// path adds is the sketched distribution summary and the ledger's memory
// accounting.
#pragma once

#include <cstddef>

#include "src/metrics/delay.hpp"
#include "src/metrics/neighbors.hpp"
#include "src/scale/options.hpp"
#include "src/scale/sketch.hpp"

namespace streamcast::scale {

/// Aggregate result block of a scale run: exact min/max/mean plus sketched
/// quantiles for the playback-delay and buffer-occupancy distributions,
/// and the ledger's memory accounting.
struct ScaleSummary {
  NodeKey nodes = 0;
  double epsilon = 0;
  /// True when the run came from the closed-form schedule replay instead of
  /// the slot engine.
  bool replayed = false;
  std::size_t budget_bytes = 0;
  std::size_t bytes_peak = 0;
  QuantileSummary delay;
  QuantileSummary buffer;
};

// Named by sessionbench; drop with the next benchmark PR.
using ScaleDelayRecorder = metrics::DelayRecorder;
// Named by sessionbench; drop with the next benchmark PR.
using ScaleNeighborRecorder = metrics::NeighborRecorder;

}  // namespace streamcast::scale
