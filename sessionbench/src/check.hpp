// Running one cell through the public API and checking its output against
// the reference captured from an audited run.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "cells.hpp"
#include "src/core/report.hpp"

namespace sessionbench {

/// What one session produced: its canonical output bytes (core::serialize)
/// or the error it threw.
struct Outcome {
  bool threw = false;
  std::string output;  // serialized report, or the error message
  core::QosReport qos;  // for the envelope check
};

/// Host-time costs of one untraced session.
struct Timing {
  double session_s = 0;  // the public session call
  double setup_s = 0;    // overlay construction (see run_cell)
};

/// Runs the cell through its public entry point. With `timing`, `setup_s`
/// is a separately timed scheme::descriptor(s).build(config), after an
/// untimed one, for single-cluster cells (none for a closed-form replay,
/// which builds nothing) and ShardMetrics::construct_s for multicluster
/// cells.
Outcome run_cell(const Cell& cell, Timing* timing);

/// Serialized output of a finished report: every field, doubles at 17
/// digits.
Outcome outcome_of(const core::QosReport& qos);
Outcome outcome_of(const core::LossRunResult& result);
Outcome outcome_of(const std::exception& error);

/// 64-bit FNV-1a of the output bytes, as 16 hex digits.
std::string digest(const std::string& bytes);

/// Reference outputs: digest per (workload, cell, seed), "*" for a cell that
/// does not depend on the seed. The value "envelope" marks a cell whose
/// audited reference run threw (a known defect): it is checked against the
/// scheme's envelope once it runs.
class References {
 public:
  /// Adds every line of a reference file; false when it cannot be read.
  bool load(const std::string& path);
  void add(const std::string& workload, const std::string& cell,
           const std::string& seed, const std::string& value);
  std::optional<std::string> find(const std::string& workload,
                                  const Cell& cell, std::uint64_t seed) const;

 private:
  std::map<std::tuple<std::string, std::string, std::string>, std::string>
      table_;
};

/// The check of one timed session against its reference.
struct Verdict {
  bool failed = false;        // counts toward ops_failed_ratio
  bool mismatch = false;      // output differs from the reference
  bool known_defect = false;  // threw, as its reference run did
  std::string reason;
};

Verdict judge(const Cell& cell, const Outcome& outcome,
              const std::string& reference);

/// The reference line for a cell: the digest of an audited run
/// (SessionConfig::audit = true), or "envelope" when that run threw. A
/// closed-form replay cell is referenced by the unaudited slot-engine run
/// of the same config.
std::string capture_reference(const Cell& cell);

}  // namespace sessionbench
