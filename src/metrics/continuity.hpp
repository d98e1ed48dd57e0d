// Playback-continuity accounting — the smoothness axis of Joshi et al.
// ("Throughput-Smoothness Trade-offs in Multicasting of an Ordered Packet
// Stream") for lossy runs.
//
// The paper's playback delay a(i) is the smallest start slot such that
// playing packet j in slot a(i)+j never stalls. Under loss a receiver that
// commits to some start slot may stall anyway: the ContinuityRecorder
// replays that decision post-hoc. Playback starts at slot `start`,
// consumes one packet per slot, stalls while the next packet has not yet
// arrived, and skips packets that never arrive by the horizon (undecodable
// gaps). A run with zero stalls and zero undecodable packets is exactly a
// run whose playback delay is <= start — the bridge between the
// paper's delay metric and the stall metrics reported here (DESIGN.md,
// "Loss & Recovery").
//
// Attach the recorder to the RecoveryProtocol (post-repair stream), not the
// engine, so repaired and FEC-decoded packets count as arrivals; it also
// tallies repair traffic (retransmissions, parity) for the redundancy
// overhead figure.
#pragma once

#include <vector>

#include "src/sim/engine.hpp"
#include "src/util/budget.hpp"

namespace streamcast::metrics {

using sim::Delivery;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;

class ContinuityRecorder final : public sim::DeliveryObserver {
 public:
  /// Tracks nodes [base, base + nodes) and packets [0, window); queries
  /// take global keys. Charges `ledger`, when non-null, before allocating.
  ContinuityRecorder(NodeKey nodes, PacketId window,
                     util::BudgetLedger* ledger = nullptr, NodeKey base = 0);

  void on_delivery(const Delivery& d) override;

  struct Report {
    /// Maximal stall intervals (consecutive stalled slots count once).
    int stalls = 0;
    /// Total slots spent stalled.
    Slot stall_slots = 0;
    /// Packets of the window that never arrived by the horizon.
    PacketId undecodable = 0;
    /// Lengths of the maximal runs of undecodable packets (the gap
    /// distribution; empty when the stream is complete).
    std::vector<PacketId> gap_lengths;
    /// Slot after the last played packet (horizon if playback never
    /// finished).
    Slot finish_slot = 0;
  };

  /// Replays playback for `node` starting at slot `start` with everything
  /// that arrived before `horizon`.
  Report report(NodeKey node, Slot start, Slot horizon) const;

  /// First arrival slot of packet p at node, or metrics::kNeverArrived.
  Slot arrival(NodeKey node, PacketId p) const;

  /// Earliest arrival slot of any window packet at node, or
  /// metrics::kNeverArrived when nothing arrived (startup policies anchor
  /// their prebuffer here).
  Slot first_arrival(NodeKey node) const;

  /// Repair traffic per data delivery observed: (retransmissions + parity)
  /// / data deliveries.
  double redundancy_overhead() const;

  std::int64_t data_deliveries() const { return data_; }
  std::int64_t repair_deliveries() const { return retransmissions_; }
  std::int64_t parity_deliveries() const { return parity_; }

  PacketId window() const { return window_; }

 private:
  const Slot* row(NodeKey node) const {
    return arrival_.data() + static_cast<std::size_t>(node - base_) *
                                 static_cast<std::size_t>(window_);
  }

  PacketId window_;
  NodeKey base_;
  NodeKey nodes_;
  /// Flat [node][packet] minimum-arrival matrix, stride window_.
  std::vector<Slot> arrival_;
  std::int64_t data_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t parity_ = 0;
};

}  // namespace streamcast::metrics
