// Lossy-path parity suite (DESIGN.md §6, §15): every cell of
// lossy_golden_cells.hpp — serially and through run::run_sweep at two
// thread counts — and every dynamic-trees backfill churn run must reproduce
// the bytes captured before the tracker, the streaming-code bookkeeping and
// the host's in-order gate moved to flat state (lossy_golden.inc).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/session.hpp"
#include "src/run/sweep.hpp"
#include "tests/lossy_golden.inc"
#include "tests/lossy_golden_cells.hpp"

namespace streamcast::core {
namespace {

/// Parses the golden capture into cell-id -> golden text.
std::map<std::string, std::string> parse_golden() {
  std::map<std::string, std::string> golden;
  std::istringstream in(kLossyGolden);
  std::string line;
  std::string id;
  std::string body;
  auto flush = [&] {
    if (!id.empty()) golden[id] = body;
    body.clear();
  };
  while (std::getline(in, line)) {
    if (line.rfind("=== ", 0) == 0) {
      flush();
      id = line.substr(4);
    } else if (!line.empty()) {
      if (!body.empty()) body += '\n';
      body += line;
    }
  }
  flush();
  return golden;
}

TEST(LossyGolden, SerialCellsMatchGolden) {
  const auto golden = parse_golden();
  const auto cells = lossy_golden_cells();
  ASSERT_EQ(golden.size(), cells.size() + backfill_cells().size())
      << "cell list and golden capture drifted";
  for (const LossyGoldenCell& cell : cells) {
    const auto it = golden.find(cell.id);
    ASSERT_NE(it, golden.end()) << "no golden for cell: " << cell.id;
    EXPECT_EQ(lossy_golden_text(StreamingSession(cell.cfg).run_lossy()),
              it->second)
        << "parity break in cell: " << cell.id;
  }
}

TEST(LossyGolden, SweepThreadCountsMatchGolden) {
  const auto golden = parse_golden();
  const auto cells = lossy_golden_cells();
  std::vector<SessionConfig> tasks;
  tasks.reserve(cells.size());
  for (const LossyGoldenCell& cell : cells) tasks.push_back(cell.cfg);
  for (const int threads : {1, 4}) {
    const auto results = run::run_sweep(tasks, {.threads = threads});
    run::require_all(results);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto it = golden.find(cells[i].id);
      ASSERT_NE(it, golden.end());
      // run_sweep does not carry the startup fold, which serialize() never
      // prints.
      const std::string got = lossy_golden_text(
          LossRunResult{results[i].qos, results[i].loss, {}});
      EXPECT_EQ(got, it->second) << "threads=" << threads
                                 << " parity break in cell: " << cells[i].id;
    }
  }
}

TEST(LossyGolden, DyntreeBackfillChurnMatchesGolden) {
  const auto golden = parse_golden();
  for (const BackfillCell& cell : backfill_cells()) {
    const auto it = golden.find(cell.id);
    ASSERT_NE(it, golden.end()) << "no golden for cell: " << cell.id;
    EXPECT_EQ(run_backfill_cell(cell), it->second)
        << "parity break in cell: " << cell.id;
  }
}

/// The cells must reach the code paths they are meant to pin: a cell set
/// whose bursts never beat B would pass parity without testing collisions
/// or abandonment at all.
TEST(LossyGolden, CellsExerciseTheStreamingCodeEdgeCases) {
  std::int64_t collisions = 0;
  std::int64_t unrecoverable = 0;
  std::int64_t decodes = 0;
  std::int64_t dense_forwards = 0;
  std::int64_t sweep_nacks = 0;
  for (const LossyGoldenCell& cell : lossy_golden_cells()) {
    const LossRunResult r = StreamingSession(cell.cfg).run_lossy();
    if (cell.cfg.loss.recovery_policy == "streaming-code") {
      collisions += r.loss.guard_collisions;
      unrecoverable += r.loss.unrecoverable;
      decodes += r.loss.fec_decodes;
      // Streaming-code retransmissions are relay forwards of skipped ids.
      dense_forwards += r.loss.retransmissions;
      EXPECT_GT(r.loss.max_erasure_run, cell.cfg.loss.code.burst)
          << "no burst beyond B in cell: " << cell.id;
    } else if (cell.cfg.scheme == Scheme::kHypercube) {
      sweep_nacks += r.loss.nacks;
    }
  }
  EXPECT_GT(collisions, 0);
  EXPECT_GT(unrecoverable, 0);
  EXPECT_GT(decodes, 0);
  EXPECT_GT(dense_forwards, 0);
  EXPECT_GT(sweep_nacks, 0);
}

}  // namespace
}  // namespace streamcast::core
