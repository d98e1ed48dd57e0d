// Playback-delay accounting (§2.3 of the paper).
//
// The recorder observes deliveries for a fixed window of packets [0, window)
// and computes, per node, the playback delay
//     a(i) = max_j (recv_i(j) - j),
// the smallest start slot such that playing packet j in slot a(i)+j never
// stalls (a packet may play in the slot it arrives; DESIGN.md §3).
//
// Storage is one flat [node][packet] matrix of int32 arrival *deltas*
// (recv − packet; kNoDelta = not arrived yet) plus each node's running max
// delta, so a(i) is O(1) and every arrival slot is still exact
// (arrival = packet + delta). The matrix is charged against an optional
// util::BudgetLedger before it is allocated (DESIGN.md §11).
//
// A recorder covers one contiguous key range [base, base + nodes): a
// sharded run gives each shard's recorder only the keys its clusters own
// (DESIGN.md §14). Rows are indexed by key − base; queries take global keys.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/util/budget.hpp"

namespace streamcast::metrics {

using sim::Delivery;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

inline constexpr Slot kNeverArrived = -1;

/// Sentinel delta for a packet that has not arrived.
inline constexpr std::int32_t kNoDelta =
    std::numeric_limits<std::int32_t>::min();

class DelayRecorder final : public sim::DeliveryObserver {
 public:
  /// Tracks nodes [base, base + nodes) and packets [0, window). Deliveries
  /// outside either range are ignored (the schemes stream forever; the
  /// window is where we measure). Charges `ledger`, when non-null, before
  /// allocating.
  DelayRecorder(NodeKey nodes, PacketId window,
                util::BudgetLedger* ledger = nullptr, NodeKey base = 0);

  void on_delivery(const Delivery& d) override;

  /// First arrival slot of packet p at node, or kNeverArrived.
  Slot arrival(NodeKey node, PacketId p) const;

  /// Writes the node's window arrival row into `row`, resized to the
  /// window. Precondition: complete(node).
  void arrivals(NodeKey node, std::vector<Slot>& row) const;

  /// True iff node received every packet in the window.
  bool complete(NodeKey node) const {
    return missing_[local(node)] == 0;
  }

  /// Playback delay a(node); nullopt until the node's window is complete.
  std::optional<Slot> playback_delay(NodeKey node) const;

  /// Worst / average playback delay over nodes [from, to] inclusive.
  /// Precondition: every node in the range is complete.
  Slot worst_delay(NodeKey from, NodeKey to) const;
  double average_delay(NodeKey from, NodeKey to) const;

  /// All per-node delays over [from, to] inclusive, in node order.
  std::vector<Slot> delays(NodeKey from, NodeKey to) const;

  PacketId window() const { return window_; }
  NodeKey nodes() const { return static_cast<NodeKey>(missing_.size()); }

 private:
  std::size_t local(NodeKey node) const {
    return static_cast<std::size_t>(node - base_);
  }
  const std::int32_t* row(NodeKey node) const {
    return delta_.data() + local(node) * static_cast<std::size_t>(window_);
  }

  PacketId window_;
  NodeKey base_;
  /// Flat [node][packet] arrival-delta matrix, stride window_.
  std::vector<std::int32_t> delta_;
  std::vector<PacketId> missing_;  // packets still unseen per node
  /// Running max delta per node (kNoDelta until the first arrival).
  std::vector<std::int32_t> best_;
};

}  // namespace streamcast::metrics
