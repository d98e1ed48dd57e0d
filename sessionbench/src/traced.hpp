// The traced pass: the same cells as the timed pass, driven through
// core::RunPipeline from outside the library so the calls into each layer
// can be timed and counted. The library itself carries no instrumentation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cells.hpp"
#include "check.hpp"

namespace sessionbench {

/// Per-layer metrics of one traced pass over a mix. Values add up over the
/// cells, except peaks (the largest cell's value). A name appears only when
/// its layer ran.
class Layers {
 public:
  void add(const std::string& name, double value) { values_[name] += value; }
  void peak(const std::string& name, double value);
  bool has(const std::string& name) const { return values_.contains(name); }
  double get(const std::string& name) const { return values_.at(name); }

  /// Replaces the helper sums with the ratios built from them
  /// (shard.pump_speedup, shard.cpu_per_wall, loss.redundancy_overhead) and
  /// derives the self times.
  void finish();

  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

/// Unit of a layer metric, from its name.
std::string unit_of(const std::string& name);

/// Runs the cell traced. Single-cluster cells run once, through a
/// replica of the session's pipeline wiring with timing decorators around
/// the protocol layers; multicluster cells run sharded at the cell's shard
/// count, serially (S = 1), and once through a serial RunPipeline replica.
/// Every run's output is returned for checking against the reference.
std::vector<Outcome> run_cell_traced(const Cell& cell, Layers& layers);

}  // namespace sessionbench
