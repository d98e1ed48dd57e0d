// Neighbor accounting: the paper's "communication requirement" metric is the
// number of distinct nodes a node exchanges packets with (multi-tree: <= 2d;
// hypercube: O(log N); Table 1).
//
// Partners live in flat per-node rows of `width` inline entries, so the
// common case is one short linear scan with no per-node heap object. A node
// with more partners than the row holds spills the rest into a growable
// overflow row of its own: the recorder never saturates, whatever the
// overlay's degree. The inline rows are charged against an optional
// util::BudgetLedger before they are allocated; overflow rows are
// degree-bounded, not node-bounded, and are not charged.
//
// Like DelayRecorder, a recorder covers one contiguous key range
// [base, base + nodes): rows are indexed by key − base, queries take global
// keys, and a partner outside the range is still counted by its in-range
// peer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/util/budget.hpp"

namespace streamcast::metrics {

using sim::Delivery;
using sim::NodeKey;

class NeighborRecorder final : public sim::DeliveryObserver {
 public:
  /// Inline partners per node: multi-tree's 2d for d <= 4 without a spill.
  static constexpr int kInlineWidth = 8;

  /// Tracks nodes [base, base + nodes); deliveries touching no tracked key
  /// are ignored.
  explicit NeighborRecorder(NodeKey nodes, int width = kInlineWidth,
                            util::BudgetLedger* ledger = nullptr,
                            NodeKey base = 0);

  void on_delivery(const Delivery& d) override;

  /// Distinct nodes this node sent to or received from.
  std::size_t count(NodeKey node) const {
    return used_[static_cast<std::size_t>(node - base_)];
  }

  /// Max / mean neighbor count over nodes [from, to] inclusive.
  std::size_t max_count(NodeKey from, NodeKey to) const;
  double mean_count(NodeKey from, NodeKey to) const;

 private:
  void insert(NodeKey node, NodeKey partner);

  NodeKey base_;
  std::size_t width_;
  /// Flat [node][width_] partner ids. Only the first min(used, width_)
  /// entries of a row are ever read, so rows are left uninitialized.
  std::unique_ptr<NodeKey[]> inline_;
  /// Distinct partners per node, inline and spilled.
  std::vector<std::uint32_t> used_;
  /// Index into spill_ of a node whose partners outgrew its inline row;
  /// read only once used_ exceeds width_, so left uninitialized too.
  std::unique_ptr<std::uint32_t[]> spill_of_;
  std::vector<std::vector<NodeKey>> spill_;
};

}  // namespace streamcast::metrics
