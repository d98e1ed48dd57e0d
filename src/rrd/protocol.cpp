#include "src/rrd/protocol.hpp"

#include <algorithm>
#include <utility>

namespace streamcast::rrd {
namespace {

using sim::NodeKey;
using sim::kNoPacket;

/// Exclusive upper bound on the packet ids a tracker can hold.
PacketId holdings_end(const loss::SequenceTracker& tracker) {
  return tracker.newest() + 1;
}

}  // namespace

RandomRegularProtocol::RandomRegularProtocol(Digraph graph, int peer_budget)
    : graph_(std::move(graph)),
      peer_budget_(peer_budget),
      holds_(static_cast<std::size_t>(graph_.n) + 1),
      recv_used_(static_cast<std::size_t>(graph_.n) + 1, 0),
      claimed_((static_cast<std::size_t>(graph_.n) + 1) *
               static_cast<std::size_t>(graph_.d)) {}

bool RandomRegularProtocol::claimed(NodeKey to, PacketId p) const {
  const auto row = static_cast<std::size_t>(to) *
                   static_cast<std::size_t>(graph_.d);
  const auto used =
      static_cast<std::size_t>(recv_used_[static_cast<std::size_t>(to)]);
  for (std::size_t i = row; i < row + used; ++i) {
    if (claimed_[i] == p) return true;
  }
  return false;
}

PacketId RandomRegularProtocol::oldest_useful(NodeKey from, NodeKey to,
                                              Slot t) const {
  const auto& target = holds_[static_cast<std::size_t>(to)];
  // The source holds {0..t}; a receiver holds whatever its tracker marked.
  const PacketId from_end =
      from == 0 ? static_cast<PacketId>(t) + 1
                : holdings_end(holds_[static_cast<std::size_t>(from)]);
  const auto* from_holds =
      from == 0 ? nullptr : &holds_[static_cast<std::size_t>(from)];
  for (PacketId p = target.gap_free_prefix(); p < from_end; ++p) {
    if (target.has(p)) continue;
    if (from_holds != nullptr && !from_holds->has(p)) continue;
    if (claimed(to, p)) continue;
    return p;
  }
  return kNoPacket;
}

PacketId RandomRegularProtocol::latest_useful(NodeKey from,
                                              NodeKey to) const {
  const auto& target = holds_[static_cast<std::size_t>(to)];
  const auto& sender = holds_[static_cast<std::size_t>(from)];
  for (PacketId p = holdings_end(sender) - 1; p >= target.gap_free_prefix();
       --p) {
    if (!sender.has(p) || target.has(p)) continue;
    if (claimed(to, p)) continue;
    return p;
  }
  return kNoPacket;
}

void RandomRegularProtocol::transmit(Slot t, std::vector<Tx>& out) {
  std::fill(recv_used_.begin(), recv_used_.end(), 0);

  const auto claim = [&](NodeKey from, NodeKey to, PacketId p) {
    out.push_back(Tx{from, to, p, /*tag=*/0, /*retransmit=*/false});
    int& used = recv_used_[static_cast<std::size_t>(to)];
    claimed_[static_cast<std::size_t>(to) * static_cast<std::size_t>(graph_.d) +
             static_cast<std::size_t>(used)] = p;
    ++used;
  };

  // Repair push: the most deprived neighbor (smallest gap-free prefix, ties
  // by key) that still has download room gets the oldest packet it lacks.
  std::vector<std::pair<PacketId, NodeKey>> targets;
  const auto repair_push = [&](NodeKey from,
                               const std::vector<NodeKey>& neighbors,
                               int budget) {
    targets.clear();
    for (const NodeKey v : neighbors) {
      targets.emplace_back(
          holds_[static_cast<std::size_t>(v)].gap_free_prefix(), v);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (int used = 0; used < budget; ++used) {
      bool sent = false;
      for (const auto& [prefix, v] : targets) {
        if (recv_used_[static_cast<std::size_t>(v)] >= graph_.d) continue;
        const PacketId p = oldest_useful(from, v, t);
        if (p == kNoPacket) continue;
        claim(from, v, p);
        sent = true;
        break;
      }
      if (!sent) break;  // nothing useful left for any neighbor this slot
    }
  };

  // The source spends its whole capacity d on repair pushes: with entry
  // receivers near the live edge its "oldest useful" IS the fresh packet,
  // and when an entry lags the stream the source is the guaranteed holder.
  repair_push(0, graph_.source_out, graph_.d);

  for (NodeKey u = 1; u <= graph_.n; ++u) {
    const auto& nbrs = graph_.out[static_cast<std::size_t>(u - 1)];
    if (nbrs.empty()) continue;
    // Frontier push first: the newest packet u holds goes to a rotating
    // neighbor, so fresh copies multiply exponentially instead of the whole
    // swarm queueing behind the oldest gap. Without this the holders of
    // any not-yet-saturated packet form a thin nested frontier and most
    // uploads find nothing useful (measured: throughput decays to ~2/3 of
    // the stream rate at d >= 3 and windows never complete). This is the
    // latest-useful side of Kim–Srikant's policy; the rotation (t + u)
    // decorrelates senders without per-slot randomness.
    int used = 0;
    for (std::size_t i = 0; i < nbrs.size() && used < 1; ++i) {
      const NodeKey v = nbrs[(static_cast<std::size_t>(t) +
                              static_cast<std::size_t>(u) + i) %
                             nbrs.size()];
      if (recv_used_[static_cast<std::size_t>(v)] >= graph_.d) continue;
      const PacketId p = latest_useful(u, v);
      if (p == kNoPacket) continue;
      claim(u, v, p);
      ++used;
    }
    repair_push(u, nbrs, peer_budget_ - used);
  }
}

void RandomRegularProtocol::deliver(Slot /*t*/, const Tx& tx) {
  holds_[static_cast<std::size_t>(tx.to)].mark(tx.packet);
}

}  // namespace streamcast::rrd
