// Distributed multi-tree dynamics (Zhu & Hajek, arXiv:1308.1971).
//
// d interior-disjoint distribution trees over one shared peer population:
// the source (key 0) roots every tree with up to d children per tree, and
// every peer is *internal* in exactly one tree — chosen at join as the tree
// with the fewest spare seats, so its d child seats land where the forest is
// tightest — where it may feed up to d children, and a leaf in the d-1
// others. Substream k (packets congruent to k mod d) flows down tree k, so
// a peer's unit upload serves d children at per-tree rate 1/d: the same
// seat-count feasibility as the 2009 paper's multi-tree forest, but reached
// by local join/leave/swap rules instead of a global relabeling.
//
// Joins attach at a minimum-depth spare seat per tree; leaves free the
// departing peer's seats and re-parent each orphaned subtree at a
// minimum-depth spare seat of the same tree. When a tree has no spare seat
// (transiently possible: the departing peer may have been its only internal
// with room), the orphan parks under the source as an *emergency* child —
// the source temporarily exceeds its per-tree fan-out d, which is legal for
// structure but overloads its send schedule, so rebalance() sheds emergency
// children back to real seats (and pulls too-deep subtrees up) and the
// stats count every such event. All tie-breaks draw from one util::Prng
// seeded at construction, so a forest is a pure function of
// (d, seed, operation sequence).
//
// Seat and leaf searches read per-tree indices kept in step with every link
// change (depth-bucketed, key-ordered sets of open seats and of leaves, a
// cached depth per key, a spare-seat total), so a join costs O(d log N)
// rather than a whole-forest scan. A search draws from the same tie set, in
// the same key order, as a scan over all keys would, so the PRNG draws and
// the forest do not depend on the index (DESIGN.md §12).
//
// Unlike multitree::ChurnForest there is no structural-id relabeling: keys
// are permanent, departed keys are never reused, and the engine's NodeKey
// space simply grows with the peer history.
#pragma once

#include <cstdint>
#include <ext/pb_ds/assoc_container.hpp>
#include <ext/pb_ds/tree_policy.hpp>
#include <functional>
#include <map>
#include <vector>

#include "src/sim/packet.hpp"
#include "src/util/prng.hpp"

namespace streamcast::dyntree {

using sim::NodeKey;
using sim::Slot;

struct ForestStats {
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  /// Orphaned-subtree re-parents performed by leave().
  std::int64_t reattach_moves = 0;
  /// Re-parents performed by rebalance() (emergency sheds + depth pulls).
  std::int64_t balance_moves = 0;
  /// Internal-above-leaf position swaps (at join and in rebalance()). The
  /// load-bearing Zhu–Hajek rule: without it each new internal finds spare
  /// seats only under the previous internal and the interior degenerates
  /// into a chain (measured: delay grows linearly in N).
  std::int64_t promote_swaps = 0;
  /// Attaches that found no spare seat and parked under the source.
  std::int64_t emergency_attaches = 0;
};

class DynamicForest {
 public:
  DynamicForest(int d, std::uint64_t seed);

  /// Seats a new peer in all d trees; returns its permanent key (>= 1).
  NodeKey join();

  /// Removes a live peer, re-parenting its orphaned subtrees.
  /// Throws std::invalid_argument for unknown/dead keys.
  void leave(NodeKey key);

  /// Sheds emergency source children to real seats and pulls subtrees up
  /// when a strictly shallower seat exists. Returns moves made.
  int rebalance();

  int d() const { return d_; }
  NodeKey peers() const { return live_count_; }
  /// Exclusive upper bound on granted keys (valid keys: 0..key_end()-1).
  NodeKey key_end() const { return static_cast<NodeKey>(nodes_.size()); }
  bool live(NodeKey key) const;
  /// The one tree where this peer is internal (may feed children).
  int internal_tree(NodeKey key) const;
  /// Parent of `key` in `tree` (0 = source), or sim::kNoNode if detached.
  NodeKey parent(int tree, NodeKey key) const;
  const std::vector<NodeKey>& children(int tree, NodeKey key) const;
  /// Hops from the source (source itself: 0). Mid-leave(), a detached
  /// orphan's subtree counts from its detach point (the orphan: 1).
  int depth(int tree, NodeKey key) const;
  int height(int tree) const;
  /// Spare child seats currently open in `tree` (source + internals).
  int spare_seats(int tree) const;
  /// Source children beyond the per-tree fan-out d, across all trees.
  int emergency_children() const;

  const ForestStats& stats() const { return stats_; }

 private:
  struct Node {
    bool live = false;
    int internal_tree = -1;
    std::vector<NodeKey> parent;  // per tree; kNoNode when detached
  };

  /// Keys in ascending order with O(log n) rank and select.
  using KeySet =
      __gnu_pbds::tree<NodeKey, __gnu_pbds::null_type, std::less<NodeKey>,
                       __gnu_pbds::rb_tree_tag,
                       __gnu_pbds::tree_order_statistics_node_update>;
  /// Depth -> the keys at that depth; empty depths are erased.
  using DepthIndex = std::map<int, KeySet>;

  /// Incremental per-tree state, kept equal to what a scan of the tree
  /// would compute (DESIGN.md §12). Entries are by key.
  struct TreeIndex {
    std::vector<int> depth;      // depth(tree, key)
    std::vector<int> spare;      // max(0, seat capacity - children)
    std::vector<bool> leaf;      // live, leaf of this tree, attached
    DepthIndex seats;            // keys with spare > 0
    DepthIndex leaves;           // keys with leaf set
    int spare_total = 0;
  };

  int seat_capacity(int tree, NodeKey key) const;
  /// Minimum-depth node with a spare seat in `tree`, excluding `exclude`'s
  /// subtree (pass kNoNode to exclude nothing); kNoNode if the tree is full.
  NodeKey find_seat(int tree, NodeKey exclude);
  /// Minimum-depth attached node that is a leaf of `tree` (internal
  /// elsewhere), outside `exclude`'s subtree; kNoNode if none.
  NodeKey shallowest_leaf(int tree, NodeKey exclude);
  /// Seeded uniform draw from the shallowest indexed leaves (or seats) of
  /// `tree` outside `exclude`'s subtree, in ascending key order — the tie
  /// set a scan over all keys would collect.
  NodeKey draw(int tree, bool leaves, NodeKey exclude);
  void attach(int tree, NodeKey key, NodeKey under);
  void detach(int tree, NodeKey key);
  /// Grows every tree's child lists and index by one key (the next one,
  /// just pushed onto nodes_) and files it.
  void add_key(NodeKey key);
  /// Re-derives `key`'s depth, spare seats and leaf status in `tree` from
  /// its parent's depth and its own links, and re-files it in the index.
  void refresh(int tree, NodeKey key);
  /// refresh() over `root`'s whole subtree, parents before children.
  void resettle(int tree, NodeKey root);

  int d_;
  util::Prng prng_;
  std::vector<Node> nodes_;                            // by key; [0]=source
  std::vector<std::vector<std::vector<NodeKey>>> kids_;  // [tree][key]
  std::vector<TreeIndex> index_;                       // [tree]
  NodeKey live_count_ = 0;
  ForestStats stats_;
};

/// Structure-derived worst-case playback lag of the forward-on-delivery
/// schedule over the current forest: the source hands substream-k packet p
/// to its tree-k children within d + rank + 1 slots of releasing it, and
/// every internal relay adds 1 + rank more (it serves its <= d children one
/// per slot while substream packets arrive every d slots). The bound is the
/// maximum over all (tree, node) paths — exact structure, no asymptotics —
/// and the registry adds an empirical margin on top (see DESIGN.md §12).
Slot schedule_bound(const DynamicForest& forest);

}  // namespace streamcast::dyntree
