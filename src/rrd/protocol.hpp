// Push scheduling over the random regular digraph (Kim–Srikant 1308.6807).
//
// Two-sided push policy, one upload each per slot: a *frontier* push sends
// the newest useful packet to a rotating out-neighbor (Kim–Srikant's
// latest-useful side — it multiplies fresh copies exponentially), and a
// *repair* push sends the most deprived out-neighbor — smallest gap-free
// stream prefix — the oldest packet it lacks (which is what bounds the
// playback-delay tail). Either side alone fails: latest-only leaves a
// heavy delay tail, oldest-only starves the frontier and the swarm's
// throughput collapses below the stream rate (see transmit()). The source
// paces the stream at rate 1 (packet p exists from slot p) and spends its
// capacity d on its entry receivers. Per-slot claims keep concurrent
// senders from double-targeting the same (receiver, packet) pair, so the
// overlay stays duplicate-free under the engine's forbid_duplicates check
// without any coordination beyond the shared omniscient state the other
// scheme protocols already assume (see HypercubeProtocol).
#pragma once

#include <vector>

#include "src/loss/sequence_tracker.hpp"
#include "src/rrd/digraph.hpp"
#include "src/sim/protocol.hpp"

namespace streamcast::rrd {

using sim::PacketId;
using sim::Slot;
using sim::Tx;

class RandomRegularProtocol final : public sim::Protocol {
 public:
  /// `peer_budget` = receiver upload per slot; must match the topology's
  /// peer send capacity. 2 is the registry default: rate 1 against upload 1
  /// is the eps = 0 boundary of the Kim–Srikant rate-(1-eps) theorems, where
  /// any sender slot wasted on an already-satisfied neighborhood is
  /// unrecoverable (measured: the swarm falls behind and never completes a
  /// window beyond small N). One extra upload absorbs that waste.
  explicit RandomRegularProtocol(Digraph graph, int peer_budget = 2);

  void transmit(Slot t, std::vector<Tx>& out) override;
  void deliver(Slot t, const Tx& tx) override;

 private:
  /// Oldest packet the sender holds that `to` lacks and no one claimed this
  /// slot, or kNoPacket. `from` == 0 means the source, which holds exactly
  /// the packets released so far: {0..t}.
  PacketId oldest_useful(sim::NodeKey from, sim::NodeKey to, Slot t) const;
  /// Newest such packet (receivers only) — the frontier-spreading side of
  /// the policy; see transmit() for why both are needed.
  PacketId latest_useful(sim::NodeKey from, sim::NodeKey to) const;
  /// True when some sender already targeted packet p at `to` this slot.
  bool claimed(sim::NodeKey to, PacketId p) const;

  Digraph graph_;
  int peer_budget_;
  /// holds_[v] = packets receiver v has (index 0, the source, unused).
  std::vector<loss::SequenceTracker> holds_;

  // Per-slot scratch, reset at the top of transmit(). A receiver takes at
  // most d claims per slot, so its claims sit in the d-wide row
  // claimed_[v * d, v * d + recv_used_[v]) and resetting recv_used_
  // clears them.
  std::vector<int> recv_used_;
  std::vector<PacketId> claimed_;
};

}  // namespace streamcast::rrd
