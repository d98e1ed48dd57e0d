// Overlay construction at scale (ctest label `construction-scale`): the
// greedy interior-disjoint forest at N = 10^6 and the dynamic-trees forest
// at N = 10^5. Both builders are near-linear in N (DESIGN.md §5, §12); the
// ctest TIMEOUT is far above their build time but far below what a
// quadratic builder needs at these sizes. Each test checks the built
// overlay's structure, not just that it finished. One end-to-end session,
// hypercube at N = 5·10^4, checks that the recorders keep up with an
// O(log N) neighbor count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/core/session.hpp"
#include "src/dyntree/forest.hpp"
#include "src/multitree/greedy.hpp"
#include "src/multitree/validate.hpp"

namespace streamcast {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ConstructionScale, GreedyMillionNodeForestIsValid) {
  constexpr multitree::NodeKey kN = 1'000'000;
  for (const int d : {2, 3}) {
    const auto start = std::chrono::steady_clock::now();
    const multitree::Forest f = multitree::build_greedy(kN, d);
    const double build_s = seconds_since(start);
    RecordProperty("build_greedy_d" + std::to_string(d) + "_ms",
                   static_cast<int>(build_s * 1e3));
    const auto report = multitree::validate_forest(f);
    EXPECT_TRUE(report.ok) << "d=" << d;
    EXPECT_TRUE(multitree::validate_greedy_parity(f).ok) << "d=" << d;
  }
}

TEST(ConstructionScale, DynamicTreesHundredThousandPeersStayBalanced) {
  constexpr int kN = 100'000;
  constexpr int kD = 2;
  const auto start = std::chrono::steady_clock::now();
  dyntree::DynamicForest f(kD, 0x5eed);
  for (int i = 0; i < kN; ++i) f.join();
  f.rebalance();
  RecordProperty("build_dynamic_trees_ms",
                 static_cast<int>(seconds_since(start) * 1e3));

  EXPECT_EQ(f.peers(), kN);
  EXPECT_EQ(f.emergency_children(), 0);
  const int log_n = static_cast<int>(std::ceil(std::log2(kN)));
  for (int k = 0; k < kD; ++k) {
    EXPECT_LE(f.height(k), 2 * log_n) << "tree " << k << " degenerated";
    int spares = 0;
    for (dyntree::NodeKey key = 0; key < f.key_end(); ++key) {
      const int cap = key == 0 || f.internal_tree(key) == k ? kD : 0;
      const int kids = static_cast<int>(f.children(k, key).size());
      ASSERT_LE(kids, cap) << "tree " << k << " node " << key;
      spares += cap - kids;
      if (key != 0) {
        ASSERT_NE(f.parent(k, key), sim::kNoNode) << "tree " << k;
        ASSERT_EQ(f.depth(k, key), f.depth(k, f.parent(k, key)) + 1);
      }
    }
    EXPECT_EQ(f.spare_seats(k), spares) << "tree " << k;
  }
}

TEST(ConstructionScale, HypercubeFiftyThousandKeepsEveryNeighbor) {
  // Hypercube partners grow like log N: well past the neighbor recorder's
  // inline row at this size. Unaudited, because the audited run takes
  // ~35 s; an audited run gives the same report.
  core::SessionConfig cfg{
      .scheme = core::Scheme::kHypercube, .n = 50'000, .d = 1};
  cfg.audit = false;
  const auto start = std::chrono::steady_clock::now();
  const core::QosReport report = core::StreamingSession(cfg).run();
  RecordProperty("hypercube_n50000_ms",
                 static_cast<int>(seconds_since(start) * 1e3));
  EXPECT_EQ(report.worst_delay, 60);
  EXPECT_EQ(report.max_buffer, 2u);
  EXPECT_EQ(report.max_neighbors, 35u);
  // 728745 partner slots over 50000 receivers: ≈ 14.57 each.
  EXPECT_DOUBLE_EQ(report.average_neighbors, 728'745.0 / 50'000);
}

}  // namespace
}  // namespace streamcast
