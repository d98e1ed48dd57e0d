// Dynamic multi-tree forest (src/dyntree/*): structural invariants under
// join/leave/rebalance, the promote-swap depth guarantee, and the churn
// edge cases — unique-parent departure, joins while the stream is live, and
// zero-duration memberships.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/dyntree/forest.hpp"
#include "src/dyntree/protocol.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/util/prng.hpp"

namespace streamcast::dyntree {
namespace {

/// Full structural invariant check: every live peer attached in every tree,
/// internal in exactly one, nobody over seat capacity (source overflow only
/// via the counted emergency path), and parent/child links consistent.
void expect_valid(const DynamicForest& f, const char* where) {
  const int d = f.d();
  int emergencies = 0;
  for (int k = 0; k < d; ++k) {
    for (NodeKey key = 0; key < f.key_end(); ++key) {
      const bool alive = key == 0 || f.live(key);
      for (const NodeKey child : f.children(k, key)) {
        EXPECT_TRUE(f.live(child)) << where << ": dead child";
        EXPECT_EQ(f.parent(k, child), key) << where << ": link mismatch";
      }
      if (!alive) {
        EXPECT_TRUE(f.children(k, key).empty()) << where << ": dead parent";
        continue;
      }
      const int cap = key == 0 ? d : (f.internal_tree(key) == k ? d : 0);
      const int kids = static_cast<int>(f.children(k, key).size());
      if (key == 0) {
        emergencies += std::max(0, kids - cap);
      } else {
        EXPECT_LE(kids, cap) << where << ": tree " << k << " node " << key;
      }
    }
    for (NodeKey key = 1; key < f.key_end(); ++key) {
      if (!f.live(key)) continue;
      EXPECT_NE(f.parent(k, key), sim::kNoNode)
          << where << ": detached live peer " << key << " in tree " << k;
      EXPECT_GE(f.internal_tree(key), 0) << where;
      EXPECT_LT(f.internal_tree(key), d) << where;
    }
  }
  EXPECT_EQ(emergencies, f.emergency_children()) << where;
}

TEST(DynamicForest, JoinsKeepEveryInvariantAndLogDepth) {
  for (const int d : {2, 3}) {
    DynamicForest f(d, 0x5eed);
    for (int i = 0; i < 64; ++i) f.join();
    f.rebalance();
    expect_valid(f, "after 64 joins");
    EXPECT_EQ(f.peers(), 64);
    // Promote swaps are what keeps the interior shallow; without them the
    // interior chains and height is ~N/d instead of ~log N.
    EXPECT_GT(f.stats().promote_swaps, 0);
    for (int k = 0; k < d; ++k) {
      EXPECT_LE(f.height(k), 12) << "tree " << k << " degenerated";
    }
  }
}

TEST(DynamicForest, SameSeedSameForestDistinctSeedsDiffer) {
  const auto build = [](std::uint64_t seed) {
    DynamicForest f(3, seed);
    for (int i = 0; i < 40; ++i) f.join();
    f.rebalance();
    return f;
  };
  const DynamicForest a = build(9);
  const DynamicForest b = build(9);
  const DynamicForest c = build(10);
  bool differ = false;
  for (NodeKey key = 1; key < a.key_end(); ++key) {
    EXPECT_EQ(a.internal_tree(key), b.internal_tree(key));
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(a.parent(k, key), b.parent(k, key));
      differ = differ || a.parent(k, key) != c.parent(k, key);
    }
    differ = differ || a.internal_tree(key) != c.internal_tree(key);
  }
  EXPECT_TRUE(differ) << "seed is dead";
}

TEST(DynamicForest, UniqueParentInEveryTreeLeaveReseatsAllOrphans) {
  // Edge case: with exactly one peer, that peer is the unique non-source
  // parent candidate in every tree. Fill its seats, then remove it — every
  // orphan in every tree must be re-seated (emergency path allowed), no
  // dangling parents.
  DynamicForest f(2, 1);
  const NodeKey hub = f.join();
  std::vector<NodeKey> rest;
  for (int i = 0; i < 6; ++i) rest.push_back(f.join());
  expect_valid(f, "before hub leave");
  const bool was_parent = [&] {
    for (int k = 0; k < 2; ++k) {
      if (!f.children(k, hub).empty()) return true;
    }
    return false;
  }();
  EXPECT_TRUE(was_parent) << "test setup: hub never became a parent";

  f.leave(hub);
  expect_valid(f, "after hub leave");
  EXPECT_FALSE(f.live(hub));
  EXPECT_EQ(f.peers(), 6);
  EXPECT_GT(f.stats().reattach_moves, 0);
  f.rebalance();
  expect_valid(f, "after rebalance");
  // Keys are permanent: the departed key is never reissued.
  EXPECT_EQ(f.join(), hub + static_cast<NodeKey>(rest.size()) + 1);
}

TEST(DynamicForest, LeaveOfUnknownOrDeadPeerThrows) {
  DynamicForest f(2, 1);
  const NodeKey p = f.join();
  EXPECT_THROW(f.leave(0), std::invalid_argument);
  EXPECT_THROW(f.leave(99), std::invalid_argument);
  f.leave(p);
  EXPECT_THROW(f.leave(p), std::invalid_argument);
}

TEST(DynamicForest, RandomChurnSettlesToValidForest) {
  DynamicForest f(3, 4);
  util::Prng rng(77);
  std::vector<NodeKey> live;
  for (int i = 0; i < 30; ++i) live.push_back(f.join());
  for (int e = 0; e < 200; ++e) {
    if (live.size() > 2 && rng.chance(0.5)) {
      const auto i = static_cast<std::size_t>(rng.below(live.size()));
      f.leave(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      live.push_back(f.join());
    }
    if (e % 16 == 0) f.rebalance();
  }
  while (f.rebalance() > 0) {
  }
  expect_valid(f, "after 200 churn events");
  EXPECT_EQ(f.peers(), static_cast<NodeKey>(live.size()));
}

/// Streams the dynamic protocol with engine capacity for `capacity` keys.
struct LiveRun {
  net::UniformCluster topo;
  DynamicTreesProtocol proto;
  sim::Engine engine;
  LiveRun(int d, std::uint64_t seed, NodeKey capacity)
      : topo(capacity, d, 1, d),
        proto(DynamicForest(d, seed)),
        engine(topo, proto) {}
};

TEST(DynamicTreesProtocol, JoinMidStreamEntersAtLiveEdgeWithoutBackfill) {
  // Satellite edge case: a join while the stream is in full swing (the
  // analogue of joining inside a backbone T_c epoch — the overlay is
  // mid-distribution, not at a quiet boundary). The joiner must converge to
  // the live edge; established peers must not regress.
  LiveRun run(2, 5, 40);
  std::vector<NodeKey> peers;
  for (int i = 0; i < 10; ++i) peers.push_back(run.proto.join());
  run.engine.run_until(50);

  const NodeKey joiner = run.proto.join();
  const sim::Slot seated = run.engine.now();
  run.engine.run_until(seated + 60);

  // No backfill: nothing before the seating slot is guaranteed (the parent
  // queues only post-seating deliveries), but the joiner must reach the
  // live edge of its seating moment.
  EXPECT_GE(run.proto.holdings(joiner).newest(), run.proto.live_edge(seated))
      << "joiner never reached the live edge";
  // Established peers keep flowing; a peer displaced by the joiner's
  // promote-swap may carry a gap (honest hiccup), but its newest packet
  // still tracks the stream.
  for (const NodeKey p : peers) {
    EXPECT_GE(run.proto.holdings(p).newest(), 80)
        << "established peer " << p << " starved after the join";
  }
}

TEST(DynamicTreesProtocol, ZeroDurationMembershipIsHarmless) {
  // Satellite edge case: join and leave within the same slot — the peer
  // never receives anything, and the stream must not notice.
  LiveRun run(2, 6, 40);
  std::vector<NodeKey> peers;
  for (int i = 0; i < 8; ++i) peers.push_back(run.proto.join());
  run.engine.run_until(30);

  const NodeKey ghost = run.proto.join();
  run.proto.leave(ghost);
  expect_valid(run.proto.forest(), "after zero-duration membership");
  run.engine.run_until(90);

  EXPECT_EQ(run.proto.holdings(ghost).gap_free_prefix(), 0);
  EXPECT_TRUE(run.proto.holdings(ghost).ahead_empty());
  for (const NodeKey p : peers) {
    EXPECT_GE(run.proto.holdings(p).newest(), 60)
        << "peer " << p << " stalled on the ghost membership";
  }
}

TEST(DynamicTreesProtocol, LeaveMidStreamKeepsSurvivorsFlowing) {
  LiveRun run(3, 8, 40);
  std::vector<NodeKey> peers;
  for (int i = 0; i < 12; ++i) peers.push_back(run.proto.join());
  run.engine.run_until(40);

  // Remove a peer that is internal somewhere (they all are) and rebalance,
  // mid-stream.
  run.proto.leave(peers[3]);
  run.proto.forest().rebalance();
  expect_valid(run.proto.forest(), "after mid-stream leave");
  const sim::Slot resumed = run.engine.now();
  run.engine.run_until(resumed + 80);

  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (i == 3) continue;
    EXPECT_GE(run.proto.holdings(peers[i]).newest(), resumed + 40)
        << "survivor " << peers[i] << " stalled after the leave";
  }
}

TEST(DynamicForest, ScheduleBoundDominatesFreshForestHeightModel) {
  // The DP bound must be at least the naive per-hop cost (every hop >= 1
  // beyond the source round-robin) and monotone in population growth for a
  // fixed seed.
  DynamicForest f(2, 3);
  sim::Slot prev = 0;
  for (int i = 0; i < 50; ++i) {
    f.join();
    if (i % 10 == 9) {
      f.rebalance();
      const sim::Slot bound = schedule_bound(f);
      EXPECT_GE(bound, prev > 0 ? prev - 2 : 0)
          << "bound collapsed after growth to " << f.peers();
      EXPECT_GE(bound, 3);
      prev = bound;
    }
  }
}

}  // namespace
}  // namespace streamcast::dyntree
