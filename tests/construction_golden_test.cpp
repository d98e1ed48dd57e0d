// Construction golden pin: FNV-1a digests of every overlay builder's exact
// output — greedy and paper-strict greedy forests over an (n, d) grid, and
// DynamicForest parents, child orders and stats after n joins plus a
// rebalance sweep and after seeded join/leave/rebalance scripts. The
// digests were captured from the scan-based builders; any faster builder
// must reproduce them bit for bit (same trees, same child orders, same PRNG
// draw sequence).
//
// To re-derive a digest, run this binary: a mismatch prints the observed
// value next to the pinned one.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/dyntree/forest.hpp"
#include "src/multitree/forest.hpp"
#include "src/multitree/greedy.hpp"
#include "src/util/prng.hpp"

namespace streamcast {
namespace {

class Fnv1a {
 public:
  void add(std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= u & 0xffU;
      hash_ *= 0x100000001b3ULL;
      u >>= 8;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const multitree::Forest& f) {
  Fnv1a h;
  h.add(f.n());
  h.add(f.d());
  h.add(f.n_pad());
  for (int k = 0; k < f.d(); ++k) {
    for (const auto id : f.tree(k)) h.add(id);
  }
  return h.value();
}

/// Every observable of the forest: liveness, internal tree, parent and the
/// ordered child list of each key in each tree, per-tree spare seats and
/// height, emergency children, and all stats counters.
std::uint64_t digest(const dyntree::DynamicForest& f) {
  Fnv1a h;
  h.add(f.d());
  h.add(f.key_end());
  h.add(f.peers());
  for (dyntree::NodeKey key = 0; key < f.key_end(); ++key) {
    h.add(f.live(key) ? 1 : 0);
    h.add(key == 0 ? -1 : f.internal_tree(key));
  }
  for (int k = 0; k < f.d(); ++k) {
    h.add(f.spare_seats(k));
    h.add(f.height(k));
    for (dyntree::NodeKey key = 0; key < f.key_end(); ++key) {
      h.add(key == 0 ? -1 : f.parent(k, key));
      const auto& kids = f.children(k, key);
      h.add(static_cast<std::int64_t>(kids.size()));
      for (const auto c : kids) h.add(c);
    }
  }
  h.add(f.emergency_children());
  const auto& s = f.stats();
  for (const auto v : {s.joins, s.leaves, s.reattach_moves, s.balance_moves,
                       s.promote_swaps, s.emergency_attaches}) {
    h.add(v);
  }
  return h.value();
}

struct GreedyCell {
  sim::NodeKey n;
  int d;
  std::uint64_t greedy;
  std::uint64_t strict;  // 0 where the paper-literal rule is infeasible
};

struct JoinCell {
  int n;
  int d;
  std::uint64_t seed;
  std::uint64_t after_joins;
  std::uint64_t after_rebalance;
};

struct ScriptCell {
  int d;
  std::uint64_t seed;
  /// Percent of operations that are leaves (the rest are joins, plus a
  /// rebalance every `rebalance_every` operations; 0 = never).
  int leave_pct;
  int rebalance_every;
  std::array<std::uint64_t, 6> checkpoints;  // digest every 100 operations
};

// The pinned digests, one table per struct above.
#include "construction_golden.inc"

TEST(ConstructionGolden, GreedyForestsMatchPinnedDigests) {
  for (const auto& cell : kGreedyCells) {
    const auto got = digest(multitree::build_greedy(cell.n, cell.d));
    EXPECT_EQ(got, cell.greedy)
        << "build_greedy n=" << cell.n << " d=" << cell.d << " observed 0x"
        << std::hex << got;
  }
}

TEST(ConstructionGolden, PaperStrictForestsMatchPinnedDigests) {
  for (const auto& cell : kGreedyCells) {
    if (!multitree::paper_strict_greedy_feasible(cell.n, cell.d)) {
      EXPECT_EQ(cell.strict, 0U);
      EXPECT_THROW(multitree::build_greedy_paper_strict(cell.n, cell.d),
                   std::runtime_error)
          << "n=" << cell.n << " d=" << cell.d;
      continue;
    }
    const auto got =
        digest(multitree::build_greedy_paper_strict(cell.n, cell.d));
    EXPECT_EQ(got, cell.strict)
        << "build_greedy_paper_strict n=" << cell.n << " d=" << cell.d
        << " observed 0x" << std::hex << got;
  }
}

TEST(ConstructionGolden, DynamicForestJoinsThenRebalanceMatchPinnedDigests) {
  for (const auto& cell : kJoinCells) {
    dyntree::DynamicForest f(cell.d, cell.seed);
    for (int i = 0; i < cell.n; ++i) f.join();
    const auto joined = digest(f);
    f.rebalance();
    const auto balanced = digest(f);
    EXPECT_EQ(joined, cell.after_joins)
        << "joins n=" << cell.n << " d=" << cell.d << " seed=" << cell.seed
        << " observed 0x" << std::hex << joined;
    EXPECT_EQ(balanced, cell.after_rebalance)
        << "rebalance n=" << cell.n << " d=" << cell.d << " seed="
        << cell.seed << " observed 0x" << std::hex << balanced;
  }
}

/// Runs 600 seeded operations — joins, leaves of a uniformly drawn live
/// peer, periodic rebalances — digesting the forest every 100 operations.
/// The script's draws come from their own generator, so the forest's PRNG
/// sees exactly the draws its own rules make.
std::vector<std::uint64_t> run_script(const ScriptCell& cell) {
  dyntree::DynamicForest f(cell.d, cell.seed);
  util::Prng script(cell.seed ^ 0x5c21b7ULL);
  std::vector<dyntree::NodeKey> alive;
  std::vector<std::uint64_t> out;
  for (int op = 1; op <= 600; ++op) {
    const bool leave = alive.size() > 2 &&
                       static_cast<int>(script.below(100)) < cell.leave_pct;
    if (leave) {
      const auto at = static_cast<std::size_t>(script.below(alive.size()));
      f.leave(alive[at]);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      alive.push_back(f.join());
    }
    if (cell.rebalance_every > 0 && op % cell.rebalance_every == 0) {
      f.rebalance();
    }
    if (op % 100 == 0) out.push_back(digest(f));
  }
  return out;
}

TEST(ConstructionGolden, DynamicForestChurnScriptsMatchPinnedDigests) {
  for (const auto& cell : kScriptCells) {
    const auto got = run_script(cell);
    ASSERT_EQ(got.size(), cell.checkpoints.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], cell.checkpoints[i])
          << "script d=" << cell.d << " seed=" << cell.seed
          << " leave%=" << cell.leave_pct << " rebalance/"
          << cell.rebalance_every << " checkpoint " << i << " observed 0x"
          << std::hex << got[i];
    }
  }
}

}  // namespace
}  // namespace streamcast
