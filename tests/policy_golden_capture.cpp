// Offline golden-capture utility for the policy-layer parity suite.
//
// Prints the complete tests/policy_parity_golden.inc to stdout: every cell
// of policy_parity_cells() run through StreamingSession::run_lossy() and
// every cell of policy_shard_cells() through run(), serialized with
// core::serialize(). The committed golden was captured from the tree ONE
// COMMIT BEFORE the src/policy extraction landed (the monolithic
// RecoveryProtocol with its strategy switches), so the parity test
// proves the refactor byte-identical. Regenerate only for an intentional
// behavior change:
//
//   cmake --build build -j --target policy_golden_capture
//   ./build/tests/policy_golden_capture > tests/policy_parity_golden.inc

#include <iostream>

#include "src/core/report.hpp"
#include "src/core/session.hpp"
#include "tests/policy_parity_cells.hpp"

int main() {
  using namespace streamcast;
  std::cout << "// Golden serialized reports for "
               "tests/policy_parity_cells.hpp, captured from\n"
               "// the pre-policy-layer tree (monolithic "
               "loss::RecoveryProtocol, fixed\n"
               "// playback-start slot). Regenerate only for an intentional "
               "behavior change\n"
               "// via tests/policy_golden_capture.cpp.\n"
               "inline constexpr const char* kPolicyParityGolden = "
               "R\"GOLD(\n";
  for (const core::PolicyParityCell& cell : core::policy_parity_cells()) {
    const core::StreamingSession session(cell.cfg);
    const core::LossRunResult r = session.run_lossy();
    std::cout << "=== " << cell.id << "\n" << core::serialize(r) << "\n";
  }
  for (const core::PolicyParityCell& cell : core::policy_shard_cells()) {
    const core::StreamingSession session(cell.cfg);
    const core::QosReport q = session.run();
    std::cout << "=== " << cell.id << "\n" << core::serialize(q) << "\n";
  }
  std::cout << ")GOLD\";\n";
  return 0;
}
