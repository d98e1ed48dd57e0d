// Recovery decorator: wraps any sim::Protocol so it survives lossy links.
//
// The paper's schemes were designed for reliable links; under erasures they
// misbehave in scheme-specific ways (a multi-tree interior's cursor would
// forward packets it never received, a chain node would relay a stale packet
// twice). RecoveryProtocol sits between the engine and the wrapped protocol
// and restores correctness generically:
//
//  * Sequence tracking — per node, the gap-free prefix plus a bitmap of the
//    packets received ahead of it (SequenceTracker, sequence_tracker.hpp).
//    This is both the repair trigger and the acceptance criterion ("every
//    node eventually holds a gap-free prefix").
//  * Causality enforcement — a transmission of a packet the sender does not
//    hold is suppressed (the lossless schedule assumed it had arrived), as
//    is a transmission the receiver already holds or that is already in
//    flight (duplicate-free invariant preserved under loss).
//  * In-order hand-off — deliveries are released to the wrapped protocol in
//    packet order per (receiver, tag) substream, holding back arrivals that
//    overtook a known-lost packet. The schemes' in-order invariants
//    (multi-tree congruence) therefore hold verbatim under loss. The gate is
//    flat per-receiver state: a delivery to a receiver with no open gap is
//    handed straight through.
//
// The repair *strategy* — what to do about a detected gap — is a
// policy::RecoveryPolicy looked up in the policy registry
// (src/policy/registry.hpp): `none`, `nack`, `xor-parity`, or
// `streaming-code`. RecoveryProtocol is the policy's RecoveryHost: it owns
// the trackers, the in-order gate, and the residual-capacity accounting,
// and fires the policy hooks at the exact program points the historical
// RecoveryMode switch sat at (byte-identical for the legacy strategies,
// golden-pinned by tests/policy_layer_test.cpp).
//
// At loss rate 0 nothing is suppressed, repaired, or held back, and the
// engine-visible schedule is bit-identical to running the wrapped protocol
// bare (regression-tested).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/loss/sequence_tracker.hpp"
#include "src/net/topology.hpp"
#include "src/policy/recovery.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/protocol.hpp"

namespace streamcast::loss {

using sim::NodeKey;
using sim::PacketId;
using sim::Slot;
using sim::Tx;

// The strategy types migrated to src/policy; these aliases keep the
// historical loss:: spellings working for existing callers.
using policy::RecoveryMode;
using policy::RecoveryStats;
using policy::recovery_mode_name;

struct RecoveryOptions {
  /// Legacy strategy selector, honored when `policy` is empty (the
  /// registry maps it via policy::recovery_policy_name).
  RecoveryMode mode = RecoveryMode::kNack;
  /// Recovery policy registry entry ("none", "nack", "xor-parity",
  /// "streaming-code"); empty selects by `mode`.
  std::string policy{};
  /// Data packets per XOR parity packet (xor-parity).
  int fec_window = 8;
  /// Extra slots added to the modeled NACK round trip before a repair is
  /// eligible to be sent.
  Slot nack_delay = 0;
  /// Enable sender-side skip detection for newest-only forwarders (chain,
  /// single tree): every packet id flows over every link, so an id jump on a
  /// link is a gap the receiver will never otherwise see. Must stay off for
  /// schemes whose per-link id streams are strided (multi-tree) or demand-
  /// driven (hypercube) — there an id jump is normal.
  bool dense_links = false;
  /// Age (in slots) after which a still-open receive gap is NACKed from the
  /// source even though no transmission of it was ever seen failing. Needed
  /// for demand-driven schemes (hypercube) where a packet that missed its
  /// consumption deadline is simply never offered again; must exceed the
  /// scheme's worst inter-arrival skew so it cannot fire on a lossless run.
  /// -1 disables the sweep. Repairs issued here carry `sweep_tag`, so only
  /// enable it for schemes whose deliver() tolerates that tag.
  Slot gap_timeout = -1;
  /// Substream tag carried by aged-gap sweep repairs (default 0, the
  /// historical behavior). Schemes whose tags partition the stream into
  /// substreams (dyntree trees) should pass a tag no live delivery uses,
  /// so a pending backfill never holds live substreams back in the
  /// in-order gate.
  std::int32_t sweep_tag = 0;
  /// Sweep relevance horizon: gaps whose id trails the current slot by
  /// more than this are abandoned instead of repaired (the repair could
  /// only land past the packet's play deadline). -1 = repair regardless.
  Slot repair_horizon = -1;
  /// Node that originates the stream and implicitly holds every packet.
  NodeKey source = 0;
  /// Badr–Lui–Khisti code parameters (streaming-code).
  policy::StreamingCodeOptions code{};
};

class RecoveryProtocol final : public sim::Protocol,
                               public sim::DeliveryObserver,
                               public policy::RecoveryHost {
 public:
  /// `topology` must be the engine's topology (typically a
  /// net::ProvisionedTopology so repairs have capacity to ride on) and must
  /// outlive the protocol, as must `inner`. Register the instance with the
  /// engine as an observer too (engine.add_observer(recovery)) so it sees
  /// drop reports.
  RecoveryProtocol(const net::Topology& topology, sim::Protocol& inner,
                   RecoveryOptions options = {});

  // sim::Protocol (engine-facing)
  void transmit(Slot t, std::vector<Tx>& out) override;
  void deliver(Slot t, const Tx& tx) override;

  // sim::DeliveryObserver (drop reports + post-repair stream fan-out)
  void on_delivery(const sim::Delivery& d) override;
  void on_drop(const sim::Drop& d) override;

  /// Observers of the post-repair stream: real deliveries, repair
  /// retransmissions, parity arrivals, and synthesized decoded packets.
  /// Metrics that should measure what the application sees attach here, not
  /// to the engine.
  void add_observer(sim::DeliveryObserver& obs) {
    observers_.push_back(&obs);
  }

  /// Seats `node` at the live edge: its stream starts at `live_edge`, so
  /// the recovery layer never backfills pre-join history (churn joiners).
  void seat(NodeKey node, PacketId live_edge);

  /// True iff every node in [from, to] holds the gap-free prefix [0, window).
  bool all_gap_free(NodeKey from, NodeKey to, PacketId window) const;

  /// True iff every window packet at every node in [from, to] has a decided
  /// fate: arrived, or abandoned by the policy (declared unrecoverable).
  /// The drain loop stops on this instead of all_gap_free, so a
  /// delay-bounded policy that gives a gap up ends the run instead of
  /// burning max_drain; the legacy policies never abandon, making the two
  /// predicates — and the drain behavior — identical (byte-pinned).
  bool gaps_resolved(NodeKey from, NodeKey to, PacketId window) const;

  /// True when the active policy has no undecided erasure and no channel
  /// use in flight. Always false for the legacy policies.
  bool recovery_exhausted() const { return policy_->exhausted(); }

  const RecoveryStats& stats() const { return stats_; }

  const RecoveryOptions& options() const { return options_; }

  /// Registry name of the active recovery policy.
  const char* policy_name() const { return policy_->name(); }

  // policy::RecoveryHost
  NodeKey node_count() const override;
  Slot link_latency(NodeKey from, NodeKey to) const override;
  bool holds(NodeKey node, PacketId p) const override;
  bool has_arrived(NodeKey node, PacketId p) const override;
  PacketId gap_free_prefix(NodeKey node) const override;
  const SequenceTracker& tracker(NodeKey node) const override;
  bool in_flight(NodeKey to, PacketId p) const override;
  void set_in_flight(NodeKey to, PacketId p, bool value) override;
  void mark_outstanding(NodeKey to, std::int32_t tag, PacketId p) override;
  void abandon_gap(Slot t, NodeKey to, PacketId p) override;
  bool abandoned(NodeKey node, PacketId p) const override;
  const std::vector<NodeKey>& senders_seen(NodeKey to) const override;
  bool send_available(NodeKey from) const override;
  void use_send(NodeKey from) override;
  bool recv_headroom(Slot arrive, NodeKey to) const override;
  void note_planned_arrival(Slot arrive, NodeKey to) override;
  void ingest_decoded(Slot t, const Tx& tx) override;
  RecoveryStats& stats() override { return stats_; }

 private:
  /// Common data-arrival path for real, repaired, and decoded packets:
  /// tracker update, policy bookkeeping, in-order release into the inner
  /// protocol.
  void ingest_data(Slot t, const Tx& tx);

  /// One (receiver, tag) substream of the in-order gate.
  struct Substream {
    std::int32_t tag = 0;
    /// Known gaps, ascending: arrivals past open.front() are held back.
    std::vector<PacketId> open{};
    /// Arrivals held back behind an open gap, ascending by packet id.
    std::vector<Tx> held{};
  };
  /// A receiver's gate: its substreams (few — one per tag it was ever
  /// gapped on) and the number of open gaps across them. Held arrivals
  /// exist only behind an open gap, so `open == 0` means nothing to do.
  struct Gate {
    std::vector<Substream> subs{};
    std::int64_t open = 0;
  };

  static Substream* find_substream(Gate& gate, std::int32_t tag);
  /// Removes p from whichever substream holds it as an open gap and
  /// returns that substream, or nullptr when p is not a known gap.
  static Substream* retire_gap(Gate& gate, PacketId p);
  /// Hands tx to the wrapped protocol, or holds it back in `sub` (tx's
  /// substream, if the receiver has one) behind an older open gap.
  void release_in_order(Slot t, Substream* sub, const Tx& tx);
  void flush_held_back(Slot t, Substream& sub);

  /// Re-lays the planned-arrival ring out at a depth of at least `span`
  /// slots, keeping the rows of the current and later slots.
  void grow_planned(Slot span);

  const net::Topology& topology_;
  sim::Protocol& inner_;
  RecoveryOptions options_;
  RecoveryStats stats_;
  std::unique_ptr<policy::RecoveryPolicy> policy_;

  std::vector<SequenceTracker> trackers_;           // per node
  std::vector<std::vector<NodeKey>> senders_seen_;  // per receiver, in order
  std::vector<sim::DeliveryObserver*> observers_;

  std::unordered_set<std::uint64_t> in_flight_;     // (to, packet) keys
  std::unordered_set<std::uint64_t> abandoned_;     // (to, packet) keys

  std::vector<Gate> gates_;  // in-order release state, per receiver

  // Per-slot capacity accounting (residual capacity for repairs/parity).
  std::vector<int> send_used_;
  // Planned arrivals per (slot, node) for the slots still ahead: a ring of
  // rows, one per arrival slot, as deep as the longest latency seen (an
  // arrival is planned at most latency - 1 slots past the current one).
  Slot now_ = 0;                    // slot of the current transmit pass
  std::vector<Slot> planned_slot_;  // ring row -> arrival slot it counts
  std::vector<int> planned_recv_;   // ring row * node_count + node
  std::vector<Tx> inner_scratch_;
};

}  // namespace streamcast::loss
