#include "src/dyntree/forest.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace streamcast::dyntree {

DynamicForest::DynamicForest(int d, std::uint64_t seed)
    : d_(d), prng_(seed) {
  if (d < 1) throw std::invalid_argument("dynamic-trees needs d >= 1");
  nodes_.push_back(Node{true, -1, {}});  // the source
  kids_.resize(static_cast<std::size_t>(d));
  index_.resize(static_cast<std::size_t>(d));
  add_key(0);
}

void DynamicForest::add_key(NodeKey key) {
  for (int k = 0; k < d_; ++k) {
    kids_[static_cast<std::size_t>(k)].emplace_back();
    auto& ix = index_[static_cast<std::size_t>(k)];
    ix.depth.push_back(0);
    ix.spare.push_back(0);
    ix.leaf.push_back(false);
    refresh(k, key);
  }
}

bool DynamicForest::live(NodeKey key) const {
  return key >= 0 && key < key_end() &&
         nodes_[static_cast<std::size_t>(key)].live;
}

int DynamicForest::internal_tree(NodeKey key) const {
  return nodes_[static_cast<std::size_t>(key)].internal_tree;
}

NodeKey DynamicForest::parent(int tree, NodeKey key) const {
  const auto& p = nodes_[static_cast<std::size_t>(key)].parent;
  return p.empty() ? sim::kNoNode : p[static_cast<std::size_t>(tree)];
}

const std::vector<NodeKey>& DynamicForest::children(int tree,
                                                    NodeKey key) const {
  return kids_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(key)];
}

int DynamicForest::depth(int tree, NodeKey key) const {
  return index_[static_cast<std::size_t>(tree)]
      .depth[static_cast<std::size_t>(key)];
}

int DynamicForest::height(int tree) const {
  int h = 0;
  for (NodeKey key = 1; key < key_end(); ++key) {
    if (live(key)) h = std::max(h, depth(tree, key));
  }
  return h;
}

int DynamicForest::seat_capacity(int tree, NodeKey key) const {
  if (key == 0) return d_;
  const auto& node = nodes_[static_cast<std::size_t>(key)];
  return node.live && node.internal_tree == tree ? d_ : 0;
}

int DynamicForest::spare_seats(int tree) const {
  return index_[static_cast<std::size_t>(tree)].spare_total;
}

int DynamicForest::emergency_children() const {
  int over = 0;
  for (int k = 0; k < d_; ++k) {
    over += std::max(0, static_cast<int>(children(k, 0).size()) - d_);
  }
  return over;
}

NodeKey DynamicForest::shallowest_leaf(int tree, NodeKey exclude) {
  return draw(tree, /*leaves=*/true, exclude);
}

NodeKey DynamicForest::find_seat(int tree, NodeKey exclude) {
  return draw(tree, /*leaves=*/false, exclude);
}

NodeKey DynamicForest::draw(int tree, bool leaves, NodeKey exclude) {
  const auto& ix = index_[static_cast<std::size_t>(tree)];
  const DepthIndex& index = leaves ? ix.leaves : ix.seats;
  auto level = index.begin();
  if (level == index.end()) return sim::kNoNode;
  // `exclude`'s subtree lies at depth(exclude) and below, so it only
  // matters once the shallowest level is that deep. Then walk the subtree
  // one depth layer at a time alongside the levels and stop at the first
  // level it does not fill; `skipped` holds that level's excluded keys.
  std::vector<NodeKey> skipped;
  if (exclude != sim::kNoNode && level->first >= depth(tree, exclude)) {
    std::vector<NodeKey> layer{exclude};
    std::vector<NodeKey> next;
    int layer_depth = depth(tree, exclude);
    for (;; ++level) {
      if (level == index.end()) return sim::kNoNode;
      while (layer_depth < level->first && !layer.empty()) {
        next.clear();
        for (const NodeKey at : layer) {
          const auto& kids = children(tree, at);
          next.insert(next.end(), kids.begin(), kids.end());
        }
        layer.swap(next);
        ++layer_depth;
      }
      skipped.clear();
      if (layer_depth == level->first) {
        for (const NodeKey at : layer) {
          const auto i = static_cast<std::size_t>(at);
          if (leaves ? ix.leaf[i] : ix.spare[i] > 0) skipped.push_back(at);
        }
      }
      if (level->second.size() > skipped.size()) break;
    }
    std::sort(skipped.begin(), skipped.end());
  }
  const KeySet& keys = level->second;
  auto rank = static_cast<std::size_t>(
      prng_.below(keys.size() - skipped.size()));
  // Step over the excluded keys ranked at or before the draw.
  for (const NodeKey key : skipped) {
    if (keys.order_of_key(key) > rank) break;
    ++rank;
  }
  return *keys.find_by_order(rank);
}

void DynamicForest::refresh(int tree, NodeKey key) {
  auto& ix = index_[static_cast<std::size_t>(tree)];
  const auto at = static_cast<std::size_t>(key);
  const auto file = [&](DepthIndex& index, bool in) {
    if (in) {
      index[ix.depth[at]].insert(key);
      return;
    }
    const auto level = index.find(ix.depth[at]);
    level->second.erase(key);
    if (level->second.empty()) index.erase(level);
  };
  if (ix.spare[at] > 0) file(ix.seats, false);
  if (ix.leaf[at]) file(ix.leaves, false);
  ix.spare_total -= ix.spare[at];

  const NodeKey up = key == 0 ? sim::kNoNode : parent(tree, key);
  ix.depth[at] = key == 0                              ? 0
                 : up == 0 || up == sim::kNoNode       ? 1
                 : ix.depth[static_cast<std::size_t>(up)] + 1;
  ix.spare[at] = std::max(0, seat_capacity(tree, key) -
                                 static_cast<int>(children(tree, key).size()));
  ix.leaf[at] = key != 0 && live(key) && internal_tree(key) != tree &&
                up != sim::kNoNode;

  ix.spare_total += ix.spare[at];
  if (ix.spare[at] > 0) file(ix.seats, true);
  if (ix.leaf[at]) file(ix.leaves, true);
}

void DynamicForest::resettle(int tree, NodeKey root) {
  std::vector<NodeKey> stack{root};
  while (!stack.empty()) {
    const NodeKey at = stack.back();
    stack.pop_back();
    refresh(tree, at);
    const auto& kids = children(tree, at);
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
}

void DynamicForest::attach(int tree, NodeKey key, NodeKey under) {
  kids_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(under)]
      .push_back(key);
  nodes_[static_cast<std::size_t>(key)]
      .parent[static_cast<std::size_t>(tree)] = under;
  refresh(tree, under);
  resettle(tree, key);
}

void DynamicForest::detach(int tree, NodeKey key) {
  auto& node = nodes_[static_cast<std::size_t>(key)];
  const NodeKey from = node.parent[static_cast<std::size_t>(tree)];
  if (from == sim::kNoNode) return;
  auto& siblings =
      kids_[static_cast<std::size_t>(tree)][static_cast<std::size_t>(from)];
  siblings.erase(std::find(siblings.begin(), siblings.end(), key));
  node.parent[static_cast<std::size_t>(tree)] = sim::kNoNode;
  refresh(tree, from);
  resettle(tree, key);
}

NodeKey DynamicForest::join() {
  const NodeKey key = key_end();
  // Internal where the forest is tightest: fewest spare seats, seeded
  // tie-break. The joiner's own d seats then open in that tree.
  int best_spares = std::numeric_limits<int>::max();
  std::vector<int> tied;
  for (int k = 0; k < d_; ++k) {
    const int s = spare_seats(k);
    if (s < best_spares) {
      best_spares = s;
      tied.clear();
    }
    if (s == best_spares) tied.push_back(k);
  }
  const int internal =
      tied[static_cast<std::size_t>(prng_.below(tied.size()))];

  nodes_.push_back(Node{
      true, internal,
      std::vector<NodeKey>(static_cast<std::size_t>(d_), sim::kNoNode)});
  add_key(key);
  for (int k = 0; k < d_; ++k) {
    // The joiner's fresh seats are visible here, but it cannot parent
    // itself, so a tree whose only spare seats are the joiner's own falls
    // through to the emergency path.
    NodeKey seat = find_seat(k, key);
    if (k == internal) {
      // Swap rule: an internal belongs above the leaves. If a leaf of this
      // tree sits strictly shallower than the best spare seat, take its
      // position and re-seat the leaf (usually right under the joiner,
      // whose d seats just opened). Skipping this grows the interior as a
      // chain hanging off the previous internal — see ForestStats.
      const NodeKey leaf = shallowest_leaf(k, key);
      const int seat_depth = seat == sim::kNoNode
                                 ? std::numeric_limits<int>::max()
                                 : depth(k, seat) + 1;
      if (leaf != sim::kNoNode && depth(k, leaf) < seat_depth) {
        const NodeKey under = parent(k, leaf);
        detach(k, leaf);
        attach(k, key, under);
        NodeKey reseat = find_seat(k, sim::kNoNode);
        if (reseat == sim::kNoNode) {
          reseat = 0;
          ++stats_.emergency_attaches;
        }
        attach(k, leaf, reseat);
        ++stats_.promote_swaps;
        continue;
      }
    }
    if (seat == sim::kNoNode) {
      seat = 0;
      ++stats_.emergency_attaches;
    }
    attach(k, key, seat);
  }
  ++live_count_;
  ++stats_.joins;
  return key;
}

void DynamicForest::leave(NodeKey key) {
  if (!live(key) || key == 0) {
    throw std::invalid_argument("leave of unknown or dead peer");
  }
  auto& node = nodes_[static_cast<std::size_t>(key)];
  node.live = false;  // before re-seating: the departed peer owns no seats
  for (int k = 0; k < d_; ++k) {
    detach(k, key);
    auto orphans = children(k, key);  // copy: attach() mutates kids_
    kids_[static_cast<std::size_t>(k)][static_cast<std::size_t>(key)]
        .clear();
    for (const NodeKey orphan : orphans) {
      nodes_[static_cast<std::size_t>(orphan)]
          .parent[static_cast<std::size_t>(k)] = sim::kNoNode;
      resettle(k, orphan);
      NodeKey seat = find_seat(k, orphan);
      if (seat == sim::kNoNode) {
        seat = 0;
        ++stats_.emergency_attaches;
      }
      attach(k, orphan, seat);
      ++stats_.reattach_moves;
    }
  }
  --live_count_;
  ++stats_.leaves;
}

int DynamicForest::rebalance() {
  int moves = 0;
  // Pass 1: shed emergency source children onto real seats.
  for (int k = 0; k < d_; ++k) {
    while (static_cast<int>(children(k, 0).size()) > d_) {
      const NodeKey child = children(k, 0).back();
      detach(k, child);
      const NodeKey seat = find_seat(k, child);
      if (seat == sim::kNoNode) {
        attach(k, child, 0);  // still nowhere to go; keep it parked
        break;
      }
      attach(k, child, seat);
      ++moves;
    }
  }
  // Pass 2: restore internal-above-leaf order disturbed by churn — swap a
  // deep internal (its whole subtree rides along) with a strictly
  // shallower leaf. Each swap decreases the interior's depth sum, so the
  // loop terminates.
  for (int k = 0; k < d_; ++k) {
    bool swapped = true;
    while (swapped) {
      swapped = false;
      for (NodeKey u = 1; u < key_end(); ++u) {
        if (!live(u) || internal_tree(u) != k) continue;
        if (parent(k, u) == sim::kNoNode) continue;
        const int du = depth(k, u);
        if (du <= 1) continue;
        const NodeKey v = shallowest_leaf(k, u);
        if (v == sim::kNoNode || depth(k, v) >= du) continue;
        const NodeKey pu = parent(k, u);
        const NodeKey pv = parent(k, v);
        detach(k, u);
        detach(k, v);
        attach(k, u, pv);
        attach(k, v, pu);
        ++stats_.promote_swaps;
        ++moves;
        swapped = true;
      }
    }
  }
  // Pass 3: pull subtrees up while a strictly shallower seat exists. Each
  // move decreases the total depth sum, so the loop terminates.
  for (int k = 0; k < d_; ++k) {
    bool moved = true;
    while (moved) {
      moved = false;
      for (NodeKey key = 1; key < key_end(); ++key) {
        if (!live(key)) continue;
        const int dep = depth(k, key);
        if (dep <= 1) continue;
        const NodeKey seat = find_seat(k, key);
        if (seat == sim::kNoNode || depth(k, seat) + 1 >= dep) continue;
        detach(k, key);
        attach(k, key, seat);
        ++moves;
        moved = true;
      }
    }
  }
  stats_.balance_moves += moves;
  return moves;
}

Slot schedule_bound(const DynamicForest& forest) {
  Slot worst = 0;
  const int d = forest.d();
  for (int k = 0; k < d; ++k) {
    // lag(node) = worst (delivery slot - packet id) along the tree-k path.
    // Source children: round-robin wait up to d plus their serve rank;
    // every relay hop adds 1 + rank among the parent's children.
    std::vector<std::pair<NodeKey, Slot>> frontier;
    const auto& roots = forest.children(k, 0);
    for (std::size_t i = 0; i < roots.size(); ++i) {
      frontier.emplace_back(roots[i],
                            static_cast<Slot>(d) + 1 + static_cast<Slot>(i));
    }
    while (!frontier.empty()) {
      const auto [node, lag] = frontier.back();
      frontier.pop_back();
      worst = std::max(worst, lag);
      if (forest.internal_tree(node) != k) continue;
      const auto& kids = forest.children(k, node);
      for (std::size_t i = 0; i < kids.size(); ++i) {
        frontier.emplace_back(kids[i], lag + 1 + static_cast<Slot>(i));
      }
    }
  }
  return worst;
}

}  // namespace streamcast::dyntree
