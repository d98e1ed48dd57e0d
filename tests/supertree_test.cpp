// Super-tree tests: backbone shape (Figure 1), end-to-end delivery across
// clusters, and Theorem 1's delay bound.
#include <gtest/gtest.h>

#include "src/metrics/delay.hpp"
#include "src/multitree/analysis.hpp"
#include "src/multitree/validate.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/supertree/analysis.hpp"
#include "src/supertree/backbone.hpp"
#include "src/supertree/protocol.hpp"

namespace streamcast::supertree {
namespace {

TEST(Backbone, Figure1Shape) {
  // Figure 1: K = 9 clusters, D = 3. S feeds S_1..S_3; each of those feeds
  // up to D-1 = 2 more: S_1 -> {S_4, S_5}, S_2 -> {S_6, S_7},
  // S_3 -> {S_8, S_9} (0-indexed here).
  const Backbone bb = build_backbone(9, 3);
  EXPECT_EQ(bb.parent[0], -1);
  EXPECT_EQ(bb.parent[1], -1);
  EXPECT_EQ(bb.parent[2], -1);
  EXPECT_EQ(bb.parent[3], 0);
  EXPECT_EQ(bb.parent[4], 0);
  EXPECT_EQ(bb.parent[5], 1);
  EXPECT_EQ(bb.parent[6], 1);
  EXPECT_EQ(bb.parent[7], 2);
  EXPECT_EQ(bb.parent[8], 2);
  EXPECT_EQ(bb.max_depth(), 2);
}

TEST(Backbone, DegreeLimitsRespected) {
  for (const int k : {1, 2, 3, 5, 10, 17, 40, 100}) {
    for (const int big_d : {3, 4, 5}) {
      const Backbone bb = build_backbone(k, big_d);
      int roots = 0;
      for (int c = 0; c < k; ++c) {
        if (bb.parent[static_cast<std::size_t>(c)] == -1) ++roots;
        EXPECT_LE(static_cast<int>(bb.kids[static_cast<std::size_t>(c)].size()),
                  big_d - 1);
      }
      EXPECT_LE(roots, big_d);
      // Tight: depth within one of the information-theoretic minimum.
      int min_depth = 1;
      std::int64_t reach = big_d;
      std::int64_t layer = big_d;
      while (reach < k) {
        layer *= (big_d - 1);
        reach += layer;
        ++min_depth;
      }
      EXPECT_EQ(bb.max_depth(), min_depth) << "k=" << k << " D=" << big_d;
    }
  }
}

TEST(Backbone, RejectsBadArguments) {
  EXPECT_THROW(build_backbone(0, 3), std::invalid_argument);
  EXPECT_THROW(build_backbone(5, 2), std::invalid_argument);
}

struct SuperRun {
  metrics::DelayRecorder delays;
  Slot worst = 0;
};

SuperRun run_supertree(int clusters, NodeKey per_cluster, int big_d,
                       int small_d, Slot t_c, sim::PacketId window) {
  std::vector<net::ClusteredTopology::ClusterSpec> specs(
      static_cast<std::size_t>(clusters),
      net::ClusteredTopology::ClusterSpec{per_cluster});
  net::ClusteredTopology topo(specs, big_d, small_d, t_c);
  SuperTreeProtocol proto(topo);
  sim::Engine engine(topo, proto);
  SuperRun run{metrics::DelayRecorder(topo.size(), window), 0};
  engine.add_observer(run.delays);
  const Slot bound = structural_bound(clusters, big_d, t_c, 1, small_d,
                                      per_cluster);
  engine.run_until(window + bound + 8);
  Slot worst = 0;
  for (int c = 0; c < clusters; ++c) {
    for (NodeKey x = 1; x <= per_cluster; ++x) {
      const auto a = run.delays.playback_delay(topo.receiver(c, x));
      EXPECT_TRUE(a.has_value()) << "cluster " << c << " node " << x;
      if (a) worst = std::max(worst, *a);
    }
  }
  run.worst = worst;
  return run;
}

TEST(SuperTree, SingleClusterMatchesPlainMultiTreePlusBackboneHop) {
  // One cluster at depth 1: packets reach S'_1 at slot j + T_c - 1 + T_i,
  // then the plain multi-tree schedule runs gated on those arrivals.
  const auto run = run_supertree(1, 15, 3, 3, /*t_c=*/5, /*window=*/40);
  EXPECT_LE(run.worst, structural_bound(1, 3, 5, 1, 3, 15));
  // The backbone contributes at least T_c + T_i slots end to end.
  EXPECT_GE(run.worst, 5);
}

TEST(SuperTree, EveryReceiverCompletesAcrossClusters) {
  const auto run = run_supertree(9, 12, 3, 2, /*t_c=*/7, /*window=*/40);
  EXPECT_LE(run.worst, structural_bound(9, 3, 7, 1, 2, 12));
}

TEST(SuperTree, DelayGrowsWithTc) {
  const auto slow = run_supertree(9, 12, 3, 2, /*t_c=*/20, /*window=*/40);
  const auto fast = run_supertree(9, 12, 3, 2, /*t_c=*/5, /*window=*/40);
  EXPECT_GT(slow.worst, fast.worst);
  // Two backbone hops: the gap should reflect depth * (T_c difference).
  EXPECT_GE(slow.worst - fast.worst, 2 * (20 - 5) - 2);
}

TEST(SuperTree, DeeperBackboneCostsMoreHops) {
  // K = 40, D = 3 -> depth 3; K = 3 -> depth 1 (same cluster size).
  const auto deep = run_supertree(40, 6, 3, 2, /*t_c=*/10, /*window=*/30);
  const auto flat = run_supertree(3, 6, 3, 2, /*t_c=*/10, /*window=*/30);
  EXPECT_GT(deep.worst, flat.worst);
}

TEST(SuperTree, StructuralBoundWithinTheoremOneShape) {
  // The theorem's closed form is asymptotic; check our structural bound
  // stays within a small constant factor of it over a parameter sweep.
  for (const int k : {2, 9, 27, 81}) {
    for (const Slot t_c : {5, 20, 50}) {
      const int d = 2;
      const NodeKey n = 30;
      const int h = multitree::tree_height(n, d);
      const double thm = theorem1_bound(k, 3, t_c, 1, d, h);
      const double ours = static_cast<double>(
          structural_bound(k, 3, t_c, 1, d, n));
      EXPECT_LT(ours, 3.0 * thm + 40.0) << "k=" << k << " tc=" << t_c;
    }
  }
}

// ---------------------------------------------------------------------------
// Hypercube-in-clusters composition (§3: "easily adapted to streaming over
// multiple clusters, using the tree τ").
// ---------------------------------------------------------------------------

SuperRun run_supertree_cubes(int clusters, NodeKey per_cluster, int big_d,
                             Slot t_c, sim::PacketId window) {
  std::vector<net::ClusteredTopology::ClusterSpec> specs(
      static_cast<std::size_t>(clusters),
      net::ClusteredTopology::ClusterSpec{per_cluster});
  net::ClusteredTopology topo(specs, big_d, /*small_d=*/1, t_c);
  SuperTreeProtocol proto(topo, IntraScheme::kHypercube);
  sim::Engine engine(topo, proto);
  SuperRun run{metrics::DelayRecorder(topo.size(), window), 0};
  engine.add_observer(run.delays);
  const Slot bound = structural_bound_hypercube(clusters, big_d, t_c, 1,
                                                per_cluster);
  engine.run_until(window + bound + 8);
  Slot worst = 0;
  for (int c = 0; c < clusters; ++c) {
    for (NodeKey x = 1; x <= per_cluster; ++x) {
      const auto a = run.delays.playback_delay(topo.receiver(c, x));
      EXPECT_TRUE(a.has_value()) << "cluster " << c << " node " << x;
      if (a) worst = std::max(worst, *a);
    }
  }
  run.worst = worst;
  return run;
}

TEST(SuperTreeHypercube, SpecialClusterSizeMeetsOffsetPlusK) {
  // 7-node clusters (k = 3): every member of a depth-L cluster can start at
  // exactly L*T_c + T_i + 3.
  const int t_c = 10;
  const auto run = run_supertree_cubes(9, 7, 3, t_c, 60);
  // Deepest cluster: depth 2 -> 2*10 + 1 + 3 = 24.
  EXPECT_EQ(run.worst, 2 * t_c + 1 + 3);
}

TEST(SuperTreeHypercube, ArbitraryClusterSizesWithinBound) {
  const auto run = run_supertree_cubes(5, 11, 3, /*t_c=*/7, /*window=*/80);
  EXPECT_LE(run.worst, structural_bound_hypercube(5, 3, 7, 1, 11));
}

TEST(SuperTreeHypercube, DelayScalesWithTcLikeMultiTree) {
  const auto slow = run_supertree_cubes(9, 7, 3, /*t_c=*/20, /*window=*/50);
  const auto fast = run_supertree_cubes(9, 7, 3, /*t_c=*/5, /*window=*/50);
  EXPECT_EQ(slow.worst - fast.worst, 2 * (20 - 5));  // depth 2 pipeline
}

TEST(SuperTree, HeterogeneousClusterSizes) {
  // "each cluster having at most N nodes" — clusters need not be equal.
  std::vector<net::ClusteredTopology::ClusterSpec> specs{
      {30}, {5}, {17}, {1}, {12}};
  net::ClusteredTopology topo(specs, 3, 2, /*t_c=*/6);
  SuperTreeProtocol proto(topo);
  sim::Engine engine(topo, proto);
  const sim::PacketId window = 40;
  metrics::DelayRecorder delays(topo.size(), window);
  engine.add_observer(delays);
  engine.run_until(window + structural_bound(5, 3, 6, 1, 2, 30) + 8);
  for (int c = 0; c < 5; ++c) {
    const auto n = topo.cluster_receivers(c);
    for (sim::NodeKey x = 1; x <= n; ++x) {
      const auto a = delays.playback_delay(topo.receiver(c, x));
      ASSERT_TRUE(a.has_value()) << "cluster " << c << " node " << x;
      // Each cluster obeys its own bound (depth 1 here: K=5 <= D... first 3
      // at depth 1, rest depth 2).
      EXPECT_LE(*a, structural_bound(5, 3, 6, 1, 2, n)) << "cluster " << c;
    }
  }
}

TEST(SuperTree, OnlyMultiTreeClustersBuildAForest) {
  std::vector<net::ClusteredTopology::ClusterSpec> specs{{30}, {5}, {17}};
  net::ClusteredTopology topo(specs, 3, 2, /*t_c=*/6);
  const SuperTreeProtocol multi(topo);
  const SuperTreeProtocol cubes(topo, IntraScheme::kHypercube);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(multi.forest(c).n(), topo.cluster_receivers(c));
    EXPECT_TRUE(multitree::validate_forest(multi.forest(c)).ok);
    EXPECT_THROW(static_cast<void>(cubes.forest(c)), std::logic_error);
  }
}

TEST(SuperTree, RejectsEmptyCluster) {
  std::vector<net::ClusteredTopology::ClusterSpec> specs{{5}, {0}};
  net::ClusteredTopology topo(specs, 3, 2, 5);
  EXPECT_THROW(SuperTreeProtocol proto(topo), std::invalid_argument);
}

}  // namespace
}  // namespace streamcast::supertree
