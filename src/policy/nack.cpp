#include "src/policy/nack.hpp"

#include <algorithm>

namespace streamcast::policy {

namespace {

/// Cap on how many skipped ids one transmission may open for repair; a dense
/// scheme advances one id per slot per link, so anything near this bound
/// would indicate a mis-flagged strided scheme.
constexpr PacketId kMaxSkipRange = 4096;

}  // namespace

void NackPolicy::bump_last_emitted(const Tx& tx) {
  auto& last = last_emitted_[{tx.from, tx.to}];
  last = std::max(last, tx.packet);
}

Slot NackPolicy::nack_due(const RecoveryHost& host, Slot detect_slot,
                          NodeKey from, NodeKey to) const {
  // The receiver notices the gap in `detect_slot`, NACKs the sender (one
  // reverse-link trip), and the repair may leave the following slot.
  return detect_slot + host.link_latency(to, from) + 1 + options().nack_delay;
}

void NackPolicy::schedule_repair(RecoveryHost& host, NodeKey to, PacketId p,
                                 NodeKey sender, std::int32_t tag, Slot due) {
  auto [it, inserted] = pending_.try_emplace(
      {to, p}, Repair{.sender = sender, .tag = tag, .due = due});
  if (!inserted) {
    // A repair for this gap was already pending (e.g. the repair itself was
    // dropped): refresh it.
    it->second.due = due;
    it->second.in_flight = false;
  }
  ++host.stats().nacks;
}

void NackPolicy::on_suppressed_causal(RecoveryHost& host, Slot t,
                                      const Tx& tx) {
  bump_last_emitted(tx);
  if (!host.holds(tx.to, tx.packet) && !pending_.contains({tx.to, tx.packet})) {
    host.mark_outstanding(tx.to, tx.tag, tx.packet);
    schedule_repair(host, tx.to, tx.packet, tx.from, tx.tag,
                    nack_due(host, t + host.link_latency(tx.from, tx.to) - 1,
                             tx.from, tx.to));
  }
}

void NackPolicy::on_suppressed_redundant(RecoveryHost& /*host*/, Slot /*t*/,
                                         const Tx& tx) {
  bump_last_emitted(tx);
}

void NackPolicy::on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) {
  if (options().dense_links) detect_dense_skips(host, t, tx);
  bump_last_emitted(tx);
}

void NackPolicy::detect_dense_skips(RecoveryHost& host, Slot t, const Tx& tx) {
  // On a dense link the very first emission is id 0 on a lossless run, so an
  // absent entry is baseline -1: a first emission of id > 0 means the ids
  // below it were lost upstream before this link ever carried them.
  const auto it = last_emitted_.find({tx.from, tx.to});
  const PacketId last = it == last_emitted_.end() ? -1 : it->second;
  if (tx.packet <= last + 1) return;
  const PacketId lo = std::max(last + 1, tx.packet - kMaxSkipRange);
  for (PacketId g = lo; g < tx.packet; ++g) {
    if (host.has_arrived(tx.to, g)) continue;
    if (host.in_flight(tx.to, g)) continue;
    if (pending_.contains({tx.to, g})) continue;
    host.mark_outstanding(tx.to, tx.tag, g);
    schedule_repair(host, tx.to, g, tx.from, tx.tag,
                    nack_due(host, t + host.link_latency(tx.from, tx.to) - 1,
                             tx.from, tx.to));
  }
}

void NackPolicy::emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) {
  if (options().gap_timeout >= 0) sweep_aged_gaps(host, t);
  emit_repairs(host, t, out);
}

void NackPolicy::sweep_aged_gaps(RecoveryHost& host, Slot t) {
  const NodeKey size = host.node_count();
  for (NodeKey v = 0; v < size; ++v) {
    if (v == options().source) continue;
    const loss::SequenceTracker& tracker = host.tracker(v);
    if (tracker.ahead_empty()) continue;
    PacketId expected = tracker.gap_free_prefix();
    tracker.for_each_ahead([&](PacketId a) {
      for (PacketId g = expected; g < a; ++g) {
        const auto key = std::make_pair(v, g);
        if (options().repair_horizon >= 0 &&
            t - g > options().repair_horizon) {
          // Too old to matter: a repair would land after the packet's play
          // deadline. Give the gap up instead of congesting the links.
          if (!host.in_flight(v, g) && !pending_.contains(key)) {
            host.abandon_gap(t, v, g);
            gap_seen_.erase(key);
          }
          continue;
        }
        const auto [it, first_seen] = gap_seen_.try_emplace(key, t);
        if (first_seen) continue;
        if (t - it->second < options().gap_timeout) continue;
        if (host.in_flight(v, g) || pending_.contains(key)) continue;
        host.mark_outstanding(v, options().sweep_tag, g);
        schedule_repair(host, v, g, options().source, options().sweep_tag, t);
      }
      expected = a + 1;
    });
  }
}

void NackPolicy::emit_repairs(RecoveryHost& host, Slot t,
                              std::vector<Tx>& out) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    const auto [to, packet] = it->first;
    Repair& repair = it->second;
    if (host.has_arrived(to, packet)) {
      it = pending_.erase(it);
      continue;
    }
    if (repair.in_flight || repair.due > t || host.in_flight(to, packet)) {
      ++it;
      continue;
    }
    // Pick a repair source: the original sender if it holds the packet by
    // now, else any node that has previously delivered to this receiver,
    // else the stream source — first match with residual send capacity and
    // receive headroom at the arrival slot.
    NodeKey chosen = sim::kNoNode;
    std::vector<NodeKey> candidates;
    candidates.push_back(repair.sender);
    for (const NodeKey s : host.senders_seen(to)) candidates.push_back(s);
    candidates.push_back(options().source);
    for (const NodeKey s : candidates) {
      if (s == to || s < 0) continue;
      if (!host.holds(s, packet)) continue;
      if (!host.send_available(s)) continue;
      if (!host.recv_headroom(t + host.link_latency(s, to) - 1, to)) continue;
      chosen = s;
      break;
    }
    if (chosen == sim::kNoNode) {
      ++it;  // no capacity or no holder this slot; retry next slot
      continue;
    }
    out.push_back(Tx{.from = chosen,
                     .to = to,
                     .packet = packet,
                     .tag = repair.tag,
                     .retransmit = true});
    ++host.stats().retransmissions;
    host.use_send(chosen);
    host.note_planned_arrival(t + host.link_latency(chosen, to) - 1, to);
    host.set_in_flight(to, packet, true);
    repair.in_flight = true;
    ++it;
  }
}

void NackPolicy::on_data_ingested(RecoveryHost& /*host*/, Slot /*t*/,
                                  const Tx& tx) {
  pending_.erase({tx.to, tx.packet});
  gap_seen_.erase({tx.to, tx.packet});
}

void NackPolicy::on_data_drop(RecoveryHost& host, const sim::Drop& d) {
  schedule_repair(host, d.tx.to, d.tx.packet, d.tx.from, d.tx.tag,
                  nack_due(host, d.would_arrive, d.tx.from, d.tx.to));
}

}  // namespace streamcast::policy
