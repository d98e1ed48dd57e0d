// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/loss/recovery.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/policy/registry.hpp"

namespace streamcast::loss {

namespace {

std::uint64_t flight_key(NodeKey to, PacketId p) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(to)) << 40) ^
         static_cast<std::uint64_t>(p);
}

}  // namespace

RecoveryProtocol::RecoveryProtocol(const net::Topology& topology,
                                   sim::Protocol& inner,
                                   RecoveryOptions options)
    : topology_(topology), inner_(inner), options_(std::move(options)) {
  const auto n = static_cast<std::size_t>(topology_.size());
  trackers_.resize(n);
  senders_seen_.resize(n);
  gates_.resize(n);
  send_used_.resize(n);
  if (options_.fec_window < 1) options_.fec_window = 1;
  policy_ = policy::recovery_policy(options_.policy).make(options_);
  policy_->bind(*this);
}

NodeKey RecoveryProtocol::node_count() const { return topology_.size(); }

Slot RecoveryProtocol::link_latency(NodeKey from, NodeKey to) const {
  return topology_.latency(from, to);
}

bool RecoveryProtocol::holds(NodeKey node, PacketId p) const {
  if (node == topology_.source()) return true;
  return trackers_[static_cast<std::size_t>(node)].has(p);
}

bool RecoveryProtocol::has_arrived(NodeKey node, PacketId p) const {
  return trackers_[static_cast<std::size_t>(node)].has(p);
}

PacketId RecoveryProtocol::gap_free_prefix(NodeKey node) const {
  return trackers_[static_cast<std::size_t>(node)].gap_free_prefix();
}

const SequenceTracker& RecoveryProtocol::tracker(NodeKey node) const {
  return trackers_[static_cast<std::size_t>(node)];
}

bool RecoveryProtocol::in_flight(NodeKey to, PacketId p) const {
  return in_flight_.contains(flight_key(to, p));
}

void RecoveryProtocol::set_in_flight(NodeKey to, PacketId p, bool value) {
  if (value) {
    in_flight_.insert(flight_key(to, p));
  } else {
    in_flight_.erase(flight_key(to, p));
  }
}

RecoveryProtocol::Substream* RecoveryProtocol::find_substream(
    Gate& gate, std::int32_t tag) {
  for (Substream& sub : gate.subs) {
    if (sub.tag == tag) return &sub;
  }
  return nullptr;
}

RecoveryProtocol::Substream* RecoveryProtocol::retire_gap(Gate& gate,
                                                          PacketId p) {
  if (gate.open == 0) return nullptr;
  for (Substream& sub : gate.subs) {
    const auto it = std::ranges::lower_bound(sub.open, p);
    if (it == sub.open.end() || *it != p) continue;
    sub.open.erase(it);
    --gate.open;
    return &sub;
  }
  return nullptr;
}

void RecoveryProtocol::mark_outstanding(NodeKey to, std::int32_t tag,
                                        PacketId p) {
  if (trackers_[static_cast<std::size_t>(to)].has(p)) return;
  Gate& gate = gates_[static_cast<std::size_t>(to)];
  for (const Substream& sub : gate.subs) {
    if (std::ranges::binary_search(sub.open, p)) return;  // already a gap
  }
  Substream* sub = find_substream(gate, tag);
  if (sub == nullptr) {
    gate.subs.push_back(Substream{.tag = tag});
    sub = &gate.subs.back();
  }
  sub->open.insert(std::ranges::lower_bound(sub->open, p), p);
  ++gate.open;
}

void RecoveryProtocol::abandon_gap(Slot t, NodeKey to, PacketId p) {
  abandoned_.insert(flight_key(to, p));
  Substream* sub = retire_gap(gates_[static_cast<std::size_t>(to)], p);
  if (sub == nullptr) return;
  // The packet itself is never delivered — the continuity metrics report it
  // as an undecodable gap — but whatever it was holding back flows again.
  flush_held_back(t, *sub);
}

bool RecoveryProtocol::abandoned(NodeKey node, PacketId p) const {
  return abandoned_.contains(flight_key(node, p));
}

// lint: allow(hot-path-alloc) — returns a borrowed reference
const std::vector<NodeKey>& RecoveryProtocol::senders_seen(NodeKey to) const {
  return senders_seen_[static_cast<std::size_t>(to)];
}

bool RecoveryProtocol::send_available(NodeKey from) const {
  return send_used_[static_cast<std::size_t>(from)] <
         topology_.send_capacity(from);
}

void RecoveryProtocol::use_send(NodeKey from) {
  ++send_used_[static_cast<std::size_t>(from)];
}

bool RecoveryProtocol::recv_headroom(Slot arrive, NodeKey to) const {
  const auto depth = planned_slot_.size();
  int used = 0;
  if (depth > 0) {
    const std::size_t row = static_cast<std::size_t>(arrive) & (depth - 1);
    if (planned_slot_[row] == arrive) {
      used = planned_recv_[row * static_cast<std::size_t>(topology_.size()) +
                           static_cast<std::size_t>(to)];
    }
  }
  return used < topology_.recv_capacity(to);
}

void RecoveryProtocol::note_planned_arrival(Slot arrive, NodeKey to) {
  assert(arrive >= now_);
  if (arrive - now_ >= static_cast<Slot>(planned_slot_.size())) {
    grow_planned(arrive - now_ + 1);
  }
  const auto n = static_cast<std::size_t>(topology_.size());
  const std::size_t row =
      static_cast<std::size_t>(arrive) & (planned_slot_.size() - 1);
  if (planned_slot_[row] != arrive) {
    // The row last counted a slot already past: recycle it.
    planned_slot_[row] = arrive;
    std::fill_n(planned_recv_.begin() + static_cast<std::ptrdiff_t>(row * n),
                n, 0);
  }
  ++planned_recv_[row * n + static_cast<std::size_t>(to)];
}

void RecoveryProtocol::grow_planned(Slot span) {
  const auto n = static_cast<std::size_t>(topology_.size());
  const std::size_t depth = std::bit_ceil(static_cast<std::size_t>(span));
  // lint: allow(hot-path-alloc) — grows to the longest latency, then never
  std::vector<Slot> slots(depth, -1);
  // lint: allow(hot-path-alloc) — grows with the ring above
  std::vector<int> counts(depth * n, 0);
  for (std::size_t old = 0; old < planned_slot_.size(); ++old) {
    const Slot s = planned_slot_[old];
    if (s < now_) continue;  // a past slot: nothing left to plan there
    const std::size_t row = static_cast<std::size_t>(s) & (depth - 1);
    slots[row] = s;
    std::copy_n(planned_recv_.begin() + static_cast<std::ptrdiff_t>(old * n),
                n, counts.begin() + static_cast<std::ptrdiff_t>(row * n));
  }
  planned_slot_ = std::move(slots);
  planned_recv_ = std::move(counts);
}

void RecoveryProtocol::ingest_decoded(Slot t, const Tx& tx) {
  const sim::Delivery synthetic{.sent = t, .received = t, .tx = tx};
  for (sim::DeliveryObserver* obs : observers_) obs->on_delivery(synthetic);
  ingest_data(t, tx);
}

void RecoveryProtocol::seat(NodeKey node, PacketId live_edge) {
  trackers_[static_cast<std::size_t>(node)].start_at(live_edge);
}

// lint: allow(hot-path-alloc) — `out` is the engine's borrowed buffer
void RecoveryProtocol::transmit(Slot t, std::vector<Tx>& out) {
  inner_scratch_.clear();
  inner_.transmit(t, inner_scratch_);
  std::ranges::fill(send_used_, 0);
  now_ = t;

  for (const Tx& tx : inner_scratch_) {
    assert(tx.packet < sim::kControlIdBase);
    if (!holds(tx.from, tx.packet)) {
      // Causality violation: the lossless schedule assumed this packet had
      // arrived at the sender. Suppress; the policy repairs the downstream
      // gap once the sender (or anyone else) holds it.
      ++stats_.suppressed_causal;
      policy_->on_suppressed_causal(*this, t, tx);
      continue;
    }
    if (holds(tx.to, tx.packet) || in_flight(tx.to, tx.packet)) {
      // Redundant under loss (e.g. a chain node relaying a stale "newest"
      // twice, or a repair already on its way). Suppressing keeps the
      // duplicate-free engine invariant and frees the slot for repairs.
      ++stats_.suppressed_redundant;
      policy_->on_suppressed_redundant(*this, t, tx);
      continue;
    }
    policy_->on_data_emitted(*this, t, tx);
    out.push_back(tx);
    ++send_used_[static_cast<std::size_t>(tx.from)];
    note_planned_arrival(t + topology_.latency(tx.from, tx.to) - 1, tx.to);
    set_in_flight(tx.to, tx.packet, true);
    ++stats_.data_transmissions;
  }

  policy_->emit(*this, t, out);
}

void RecoveryProtocol::deliver(Slot t, const Tx& tx) {
  if (tx.packet >= sim::kControlIdBase) {
    policy_->on_control_arrival(*this, t, tx);
    return;
  }
  auto& seen = senders_seen_[static_cast<std::size_t>(tx.to)];
  if (std::ranges::find(seen, tx.from) == seen.end()) seen.push_back(tx.from);
  ingest_data(t, tx);
  policy_->on_data_arrival(*this, t, tx);
}

void RecoveryProtocol::ingest_data(Slot t, const Tx& tx) {
  const NodeKey to = tx.to;
  trackers_[static_cast<std::size_t>(to)].mark(tx.packet);
  set_in_flight(to, tx.packet, false);
  policy_->on_data_ingested(*this, t, tx);
  Gate& gate = gates_[static_cast<std::size_t>(to)];
  if (gate.open == 0) {
    // No open gap at this receiver, hence nothing held back either.
    inner_.deliver(t, tx);
    return;
  }
  // If this packet was a known gap, retire it from the in-order gate (the
  // release below plus the flush unblocks everything it was holding back).
  // A retired gap releases into the substream that registered it.
  Substream* retired = retire_gap(gate, tx.packet);
  Substream* sub =
      retired != nullptr ? retired : find_substream(gate, tx.tag);
  Tx release = tx;
  if (retired != nullptr) release.tag = retired->tag;
  release_in_order(t, sub, release);
  if (sub != nullptr) flush_held_back(t, *sub);
}

void RecoveryProtocol::release_in_order(Slot t, Substream* sub,
                                        const Tx& tx) {
  if (sub != nullptr && !sub->open.empty() && sub->open.front() < tx.packet) {
    const auto it = std::ranges::lower_bound(sub->held, tx.packet, {},
                                             &Tx::packet);
    if (it == sub->held.end() || it->packet != tx.packet) {
      sub->held.insert(it, tx);
    }
    return;
  }
  inner_.deliver(t, tx);
}

void RecoveryProtocol::flush_held_back(Slot t, Substream& sub) {
  // Release the held arrivals older than the substream's oldest open gap,
  // in packet order; the rest keep waiting.
  std::size_t released = 0;
  for (const Tx& tx : sub.held) {
    if (!sub.open.empty() && sub.open.front() < tx.packet) break;
    inner_.deliver(t, tx);
    ++released;
  }
  sub.held.erase(sub.held.begin(),
                 sub.held.begin() + static_cast<std::ptrdiff_t>(released));
}

void RecoveryProtocol::on_delivery(const sim::Delivery& d) {
  // Fan the post-repair stream out to attached metrics. Policy-decoded
  // packets are synthesized in ingest_decoded; everything the engine
  // actually delivered (data, repairs, parity) passes through here.
  for (sim::DeliveryObserver* obs : observers_) obs->on_delivery(d);
}

void RecoveryProtocol::on_drop(const sim::Drop& d) {
  const Tx& tx = d.tx;
  if (tx.packet >= sim::kControlIdBase) {
    policy_->on_control_drop(*this, d);
    return;
  }
  set_in_flight(tx.to, tx.packet, false);
  mark_outstanding(tx.to, tx.tag, tx.packet);
  for (sim::DeliveryObserver* obs : observers_) obs->on_drop(d);
  policy_->on_data_drop(*this, d);
}

bool RecoveryProtocol::all_gap_free(NodeKey from, NodeKey to,
                                    PacketId window) const {
  for (NodeKey n = from; n <= to; ++n) {
    if (gap_free_prefix(n) < window) return false;
  }
  return true;
}

bool RecoveryProtocol::gaps_resolved(NodeKey from, NodeKey to,
                                     PacketId window) const {
  for (NodeKey n = from; n <= to; ++n) {
    const auto& tracker = trackers_[static_cast<std::size_t>(n)];
    for (PacketId p = tracker.gap_free_prefix(); p < window; ++p) {
      if (!tracker.has(p) && !abandoned(n, p)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace streamcast::loss
