// Offline golden-capture utility for the lossy-path parity suite.
//
// Prints the complete tests/lossy_golden.inc to stdout: every cell of
// lossy_golden_cells() run through StreamingSession::run_lossy() and every
// backfill_cells() churn run, rendered by lossy_golden_text() /
// run_backfill_cell(). The committed golden was captured from the tree
// whose tracker, streaming-code bookkeeping and in-order gate still used
// node-based std::set / std::map state, so the parity test proves the flat
// layout byte-identical. Regenerate only for an intentional behavior
// change:
//
//   cmake --build build -j --target lossy_golden_capture
//   ./build/tests/lossy_golden_capture > tests/lossy_golden.inc

#include <iostream>

#include "src/core/session.hpp"
#include "tests/lossy_golden_cells.hpp"

int main() {
  using namespace streamcast;
  std::cout << "// Golden lossy-run reports for tests/lossy_golden_cells.hpp,"
               " captured from the\n"
               "// tree with node-based tracker, streaming-code and gate "
               "state. Regenerate only\n"
               "// for an intentional behavior change via "
               "tests/lossy_golden_capture.cpp.\n"
               "inline constexpr const char* kLossyGolden = R\"GOLD(\n";
  for (const core::LossyGoldenCell& cell : core::lossy_golden_cells()) {
    const core::StreamingSession session(cell.cfg);
    std::cout << "=== " << cell.id << "\n"
              << core::lossy_golden_text(session.run_lossy()) << "\n";
  }
  for (const core::BackfillCell& cell : core::backfill_cells()) {
    std::cout << "=== " << cell.id << "\n"
              << core::run_backfill_cell(cell) << "\n";
  }
  std::cout << ")GOLD\";\n";
  return 0;
}
