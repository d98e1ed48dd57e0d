// Fundamental identifiers of the slot-synchronous streaming model (§2 of the
// paper): discrete time slots, stream packet sequence numbers, and node keys.
#pragma once

#include <cstdint>

namespace streamcast::sim {

/// Discrete time slot, t = 0, 1, 2, ... One slot is the playback time of a
/// single packet (§2.2).
using Slot = std::int64_t;

/// Position in the (potentially infinite) packet stream, 0-based.
using PacketId = std::int64_t;

/// Flat index of a node in the simulated world. Every scheme reserves key 0
/// for the stream source of its world; receivers are 1..N (plus whatever a
/// multi-cluster topology appends).
using NodeKey = std::int32_t;

inline constexpr NodeKey kNoNode = -1;

/// Offset of `key` into a per-node array that starts at key `base`. A key
/// below base (negative keys included) wraps past any span, so
/// `key_offset(key, base) < span` is the whole range check of
/// [base, base + span) in one unsigned compare.
inline constexpr std::uint32_t key_offset(NodeKey key, NodeKey base) {
  return static_cast<std::uint32_t>(key) - static_cast<std::uint32_t>(base);
}
inline constexpr PacketId kNoPacket = -1;

/// Packet ids at or above this value are control traffic (FEC parity, repair
/// bookkeeping), not positions in the stream. Stream metrics ignore them;
/// the loss/recovery layer allocates ids from this space so control packets
/// never collide with data in the engine's duplicate-delivery keys.
inline constexpr PacketId kControlIdBase = PacketId{1} << 30;

}  // namespace streamcast::sim
