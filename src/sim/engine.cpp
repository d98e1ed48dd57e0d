// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace streamcast::sim {

namespace {

/// Bits reserved for the packet id in a (node, packet) delivery key. Node
/// keys occupy the bits above, so the two fields can never alias: distinct
/// pairs map to distinct keys for every packet id below 2^40 (range-checked)
/// and every node key below 2^24 (NodeKey is 31 usable bits, but 2^24 nodes
/// is already beyond any simulated world; asserted all the same).
constexpr int kPacketKeyBits = 40;
constexpr PacketId kMaxKeyPacket = PacketId{1} << kPacketKeyBits;
constexpr NodeKey kMaxKeyNode = NodeKey{1} << 24;

std::uint64_t delivery_key(NodeKey node, PacketId packet) {
  assert(node >= 0 && node < kMaxKeyNode);
  assert(packet >= 0 && packet < kMaxKeyPacket);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
          << kPacketKeyBits) |
         static_cast<std::uint64_t>(packet);
}

[[noreturn]] void violation(const std::string& what, Slot t, const Tx& tx) {
  throw ProtocolViolation(what + " (slot " + std::to_string(t) + ", " +
                          std::to_string(tx.from) + " -> " +
                          std::to_string(tx.to) + ", packet " +
                          std::to_string(tx.packet) + ")");
}

}  // namespace

Engine::Engine(const net::Topology& topology, Protocol& protocol,
               EngineOptions options)
    : topology_(topology),
      protocol_(protocol),
      options_(options),
      arena_(options.budget, "sim/ring-arena") {
  const NodeKey size = topology_.size();
  const NodeKey span = options_.node_span == 0 ? size : options_.node_span;
  if (options_.node_base < 0 || span < 0 ||
      options_.node_base > size - span) {
    throw std::invalid_argument("engine key range outside the topology");
  }
  base_ = options_.node_base;
  span_ = static_cast<std::uint32_t>(span);
  dest_base_ = options_.router != nullptr ? 0 : base_;
  dest_span_ =
      options_.router != nullptr ? static_cast<std::uint32_t>(size) : span_;
  const auto n = static_cast<std::size_t>(span_);
  charge("sim/capacity-epochs",
         2 * n * (sizeof(Slot) + sizeof(std::int32_t)));
  send_epoch_.assign(n, Slot{-1});
  send_count_.assign(n, 0);
  recv_epoch_.assign(n, Slot{-1});
  recv_count_.assign(n, 0);
  // The duplicate bitmap is laid out by reserve_packet_ids(), or by the
  // first stream packet when the caller reserves nothing.
  ring_.assign(8, util::ArenaVector<Delivery>(
                      util::ArenaAllocator<Delivery>(arena_)));
  ring_mask_ = ring_.size() - 1;
}

Engine::~Engine() {
  if (options_.budget != nullptr) options_.budget->release(charged_bytes_);
}

void Engine::charge(const char* component, std::size_t bytes) {
  if (options_.budget == nullptr) return;
  options_.budget->charge(component, bytes);
  charged_bytes_ += bytes;
}

void Engine::run_until(Slot horizon) {
  while (now_ < horizon) step();
}

void Engine::grow_ring(Slot max_latency) {
  const auto needed = std::bit_ceil(static_cast<std::size_t>(max_latency));
  // Bucket headers are O(ring size) and re-laid-out only on latency growth;
  // the Delivery payloads themselves move between arena-backed buckets.
  std::vector<util::ArenaVector<Delivery>> next(  // lint: allow(hot-path-alloc)
      needed,
      util::ArenaVector<Delivery>(util::ArenaAllocator<Delivery>(arena_)));
  const std::size_t mask = needed - 1;
  for (auto& bucket : ring_) {
    for (Delivery& d : bucket) {
      next[static_cast<std::size_t>(d.received) & mask].push_back(
          std::move(d));
    }
  }
  ring_ = std::move(next);
  ring_mask_ = mask;
  ++stats_.ring_relayouts;
}

void Engine::reserve_packet_ids(PacketId ids) {
  const auto words = static_cast<std::size_t>((ids + 63) >> 6);
  if (words > seen_stride_) layout_seen(words);
}

void Engine::layout_seen(std::size_t words) {
  const std::size_t n = send_epoch_.size();
  const std::size_t stride = std::bit_ceil(words);
  // Both layouts are live during the copy; charge the new one first (fail
  // fast before allocating), release the old one after the swap.
  charge("sim/seen-bitmaps", n * stride * sizeof(std::uint64_t));
  // lint: allow(hot-path-alloc) — one-shot flat bitmap re-layout
  std::vector<std::uint64_t> next(n * stride, 0);
  for (std::size_t node = 0; node < n; ++node) {
    std::copy_n(seen_words_.data() + node * seen_stride_, seen_stride_,
                next.data() + node * stride);
  }
  seen_words_ = std::move(next);
  if (options_.budget != nullptr) {
    const std::size_t old_bytes = n * seen_stride_ * sizeof(std::uint64_t);
    options_.budget->release(old_bytes);
    charged_bytes_ -= old_bytes;
  }
  seen_stride_ = stride;
}

bool Engine::seen_before(NodeKey node, PacketId packet) {
  if (packet >= kControlIdBase) {
    return !seen_control_.insert(delivery_key(node, packet)).second;
  }
  const auto word = static_cast<std::size_t>(packet >> 6);
  if (word >= seen_stride_) {
    if (seen_stride_ > 0) ++stats_.seen_relayouts;
    layout_seen(word + 1);
  }
  auto& bits = seen_words_[local(node) * seen_stride_ + word];
  const std::uint64_t mask = std::uint64_t{1} << (packet & 63);
  const bool seen = (bits & mask) != 0;
  bits |= mask;
  return seen;
}

void Engine::deliver_one(Slot t, const Delivery& d) {
  // Phase 1 and post() admit only owned destinations into this path.
  assert(key_offset(d.tx.to, base_) < span_);
  const std::size_t to = local(d.tx.to);
  if (recv_epoch_[to] != t) {
    recv_epoch_[to] = t;
    recv_count_[to] = 0;
  }
  if (++recv_count_[to] > topology_.recv_capacity(d.tx.to) &&
      options_.enforce) {
    violation("receive capacity exceeded", t, d.tx);
  }
  if (seen_before(d.tx.to, d.tx.packet)) {
    ++stats_.duplicate_deliveries;
    if (options_.forbid_duplicates && options_.enforce) {
      violation("duplicate delivery", t, d.tx);
    }
  }
  ++stats_.deliveries;
  for (DeliveryObserver* obs : observers_) obs->on_delivery(d);
  protocol_.deliver(t, d.tx);
}

void Engine::post(const Delivery& d) {
  if (key_offset(d.tx.to, base_) >= span_) {
    violation("post: destination outside the engine's key range", d.received,
              d.tx);
  }
  if (d.received >= now_) {
    // Ring invariant: size > (arrival distance from now), so co-resident
    // same-bucket deliveries always share an arrival slot.
    const Slot span = d.received - now_ + 1;
    if (static_cast<std::size_t>(span) > ring_.size()) grow_ring(span);
    ring_[static_cast<std::size_t>(d.received) & ring_mask_].push_back(d);
    return;
  }
  if (d.received != now_ - 1) {
    throw ProtocolViolation(
        "post: arrival slot " + std::to_string(d.received) +
        " is before the epoch boundary (now " + std::to_string(now_) + ")");
  }
  // Retroactive completion of the epoch's final slot: the receive-capacity
  // epoch stamps still carry slot now_-1 state, so charging and duplicate
  // detection behave exactly as if the delivery had been in that slot's
  // bucket (DESIGN.md §14 proves protocol-state equivalence).
  deliver_one(d.received, d);
}

void Engine::step() {
  const Slot t = now_;

  // Phase 1: collect and validate this slot's transmissions.
  tx_scratch_.clear();
  protocol_.transmit(t, tx_scratch_);
  for (const Tx& tx : tx_scratch_) {
    if (key_offset(tx.from, base_) >= span_ ||
        key_offset(tx.to, dest_base_) >= dest_span_) {
      violation("node key out of range", t, tx);
    }
    if (tx.from == tx.to) violation("self transmission", t, tx);
    if (tx.packet < 0) violation("negative packet id", t, tx);
    const std::size_t from = local(tx.from);
    if (send_epoch_[from] != t) {
      send_epoch_[from] = t;
      send_count_[from] = 0;
    }
    if (++send_count_[from] > topology_.send_capacity(tx.from) &&
        options_.enforce) {
      violation("send capacity exceeded", t, tx);
    }
    const Slot latency = topology_.latency(tx.from, tx.to);
    assert(latency >= 1);
    ++stats_.transmissions;
    if (tx.retransmit) ++stats_.retransmissions;
    const Slot arrive = t + latency - 1;
    if (loss_ != nullptr && loss_->erased(t, tx)) {
      ++stats_.drops;
      const Drop drop{.sent = t, .would_arrive = arrive, .tx = tx};
      for (DeliveryObserver* obs : observers_) obs->on_drop(drop);
      continue;
    }
    const Delivery d{.sent = t, .received = arrive, .tx = tx};
    // Sender-side accounting is complete; a router may now take custody of
    // a cross-shard delivery (it never enters the local ring).
    if (options_.router != nullptr && !options_.router->keep(d)) continue;
    if (static_cast<std::size_t>(latency) > ring_.size()) grow_ring(latency);
    ring_[static_cast<std::size_t>(arrive) & ring_mask_].push_back(d);
  }

  // Phase 2: complete arrivals scheduled for this slot.
  auto& bucket = ring_[static_cast<std::size_t>(t) & ring_mask_];
  if (!bucket.empty()) {
    for (const Delivery& d : bucket) {
      assert(d.received == t);
      deliver_one(t, d);
    }
    bucket.clear();
  }

  ++now_;
}

const EngineStats& Engine::stats() const {
  stats_.arena_bytes = arena_.bytes_served();
  stats_.arena_chunks = arena_.chunks();
  stats_.arena_allocations = arena_.allocations();
  return stats_;
}

}  // namespace streamcast::sim
