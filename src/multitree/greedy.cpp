#include "src/multitree/greedy.hpp"

#include <stdexcept>
#include <vector>

#include "src/util/ints.hpp"

namespace streamcast::multitree {

namespace {

/// Ascending ids of one parity class with a consume-from-front cursor.
///
/// Every caller's `usable` predicate is monotone over the pool's lifetime:
/// an id that fails it once fails it for good (`placed` / `is_interior`
/// only ever turn true). So the cursor skips every leading id that is
/// taken or unusable, never to look at it again, and the first id it stops
/// on is the smallest usable one. Each id is passed once per pool: O(size)
/// for all takes together (DESIGN.md §5).
class ParityPool {
 public:
  ParityPool(int d, NodeKey first, NodeKey last) {
    buckets_.resize(static_cast<std::size_t>(d));
    cursor_.resize(static_cast<std::size_t>(d), 0);
    for (NodeKey id = first; id <= last; ++id) {
      buckets_[static_cast<std::size_t>(parity_of(id, d))].push_back(id);
    }
  }

  /// Smallest not-yet-taken id with the given parity that passes `usable`;
  /// takes it. Throws if exhausted (cannot happen; see counts proof in
  /// build_greedy).
  template <typename Pred>
  NodeKey take(int parity, Pred usable) {
    const auto& bucket = buckets_[static_cast<std::size_t>(parity)];
    auto& cur = cursor_[static_cast<std::size_t>(parity)];
    while (cur < bucket.size() && !usable(bucket[cur])) ++cur;
    if (cur == bucket.size()) {
      throw std::logic_error(
          "greedy construction ran out of parity candidates");
    }
    return bucket[cur++];
  }

 private:
  std::vector<std::vector<NodeKey>> buckets_;
  std::vector<std::size_t> cursor_;
};

}  // namespace

bool paper_strict_greedy_feasible(NodeKey n, int d) {
  // Residue-count matching between G_k = {kI+1..(k+1)I} and the interior
  // positions 1..I demands kI ≡ k (mod d) for every k, i.e. d | (I-1) — or
  // d | I, which balances every residue class.
  const Forest shape(n, d);
  const NodeKey interior = shape.interior();
  return interior % d == 0 || util::mod_floor(interior - 1, d) == 0;
}

Forest build_greedy_paper_strict(NodeKey n, int d) {
  Forest forest(n, d);
  const NodeKey interior = forest.interior();
  const NodeKey n_pad = forest.n_pad();
  for (int k = 0; k < d; ++k) {
    std::vector<NodeKey> tree(static_cast<std::size_t>(n_pad) + 1, kSource);
    std::vector<bool> placed(static_cast<std::size_t>(n_pad) + 1, false);
    // Step 2 verbatim: interior candidates are exactly G_k.
    ParityPool interior_pool(d, static_cast<NodeKey>(k) * interior + 1,
                             (static_cast<NodeKey>(k) + 1) * interior);
    for (NodeKey pos = 1; pos <= interior; ++pos) {
      const int parity =
          static_cast<int>((pos + k - 1) % static_cast<NodeKey>(d));
      NodeKey id = -1;
      try {
        id = interior_pool.take(parity, [](NodeKey) { return true; });
      } catch (const std::logic_error&) {
        throw std::runtime_error(
            "paper-literal greedy Step 2 is infeasible: tree " +
            std::to_string(k) + ", position " + std::to_string(pos) +
            " demands parity " + std::to_string(parity) +
            " but G_k has no unplaced candidate (N=" + std::to_string(n) +
            ", d=" + std::to_string(d) + ")");
      }
      tree[static_cast<std::size_t>(pos)] = id;
      placed[static_cast<std::size_t>(id)] = true;
    }
    ParityPool leaf_pool(d, 1, n_pad);
    for (NodeKey pos = interior + 1; pos <= n_pad; ++pos) {
      const int parity =
          static_cast<int>((pos + k - 1) % static_cast<NodeKey>(d));
      const NodeKey id = leaf_pool.take(parity, [&](NodeKey j) {
        return !placed[static_cast<std::size_t>(j)];
      });
      tree[static_cast<std::size_t>(pos)] = id;
      placed[static_cast<std::size_t>(id)] = true;
    }
    forest.set_tree(k, std::move(tree));
  }
  return forest;
}

Forest build_greedy(NodeKey n, int d) {
  Forest forest(n, d);
  const NodeKey interior = forest.interior();
  const NodeKey n_pad = forest.n_pad();

  // NOTE (paper deviation, documented in DESIGN.md): the paper's Step 2
  // restricts tree T_k's interior candidates to exactly G_k, but that
  // bipartite parity matching is infeasible for some (N, d) — e.g. N = 18,
  // d = 3, where positions 1..5 of T_1 demand two parity-1 nodes while
  // G_1 = {6..10} contains only one. We generalize the candidate pool to
  // every id in {1..dI} not yet chosen as interior by an earlier tree. Per
  // parity class, the interior supply in {1..dI} is exactly I and the total
  // interior demand across all d trees is exactly I, so the greedy pass
  // always succeeds; and because groups are ascending, the smallest viable
  // candidate lies in G_k whenever the paper's own rule is feasible — the
  // generalization reproduces the paper's Figure 3(b) verbatim.
  std::vector<bool> is_interior(static_cast<std::size_t>(n_pad) + 1, false);

  for (int k = 0; k < d; ++k) {
    std::vector<NodeKey> tree(static_cast<std::size_t>(n_pad) + 1, kSource);
    std::vector<bool> placed(static_cast<std::size_t>(n_pad) + 1, false);

    // Step 2: interior positions 1..I, smallest not-yet-interior id of
    // parity (i + k - 1) mod d. Dummies (ids > dI) never qualify: the pool
    // stops at dI = n_pad - d < n.
    ParityPool interior_pool(d, 1, interior * static_cast<NodeKey>(d));
    // Rebuilding the pool per tree keeps the code simple (cost O(dI) per
    // tree); usability excludes ids taken by earlier trees.
    for (NodeKey pos = 1; pos <= interior; ++pos) {
      const int parity =
          static_cast<int>((pos + k - 1) % static_cast<NodeKey>(d));
      const NodeKey id = interior_pool.take(parity, [&](NodeKey j) {
        return !is_interior[static_cast<std::size_t>(j)];
      });
      tree[static_cast<std::size_t>(pos)] = id;
      placed[static_cast<std::size_t>(id)] = true;
      is_interior[static_cast<std::size_t>(id)] = true;
    }

    // Step 3: leaf positions I+1..N_pad, smallest id (dummies included) of
    // the required parity not already placed in this tree.
    ParityPool leaf_pool(d, 1, n_pad);
    for (NodeKey pos = interior + 1; pos <= n_pad; ++pos) {
      const int parity =
          static_cast<int>((pos + k - 1) % static_cast<NodeKey>(d));
      const NodeKey id = leaf_pool.take(parity, [&](NodeKey j) {
        return !placed[static_cast<std::size_t>(j)];
      });
      tree[static_cast<std::size_t>(pos)] = id;
      placed[static_cast<std::size_t>(id)] = true;
    }

    forest.set_tree(k, std::move(tree));
  }
  return forest;
}

}  // namespace streamcast::multitree
