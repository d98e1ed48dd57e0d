// Badr–Lui–Khisti delay-constrained streaming code (arXiv:1303.4370) as a
// recovery policy over per-link erasure channels.
//
// The BLK construction protects an ordered symbol stream against burst
// erasures: a rate-T/(T+B) code corrects every erasure burst of length
// <= B within a decode delay of T further channel uses, provided the next
// burst starts only after that window (the guard space). This policy
// simulates the code's erasure-correction capability per link without
// materializing codewords:
//
//  * Channel uses — every transmission (data or parity) on a link (u, v)
//    occupies the next channel-use index of that link. The index stream is
//    what the code is defined over; slots only matter for when uses happen.
//  * Parity cadence — each data use earns B credit; a parity use is
//    emitted (on residual capacity) whenever credit reaches T, keeping the
//    long-run parity:data ratio at B:T, i.e. rate T/(T+B).
//  * Decode rule — an erased data use at index i inside the erasure run
//    [s, e] is recoverable iff the run is short (e - s + 1 <= B) and every
//    channel use in (e, i + T] arrived. A second erasure inside that
//    window is a guard-space collision: the interleaved bursts exceed the
//    code's correction capability and the run is unrecoverable. Until the
//    window fills, the decision is pending.
//  * Unrecoverable gaps are *abandoned*: the in-order gate releases what
//    the gap was holding back and the continuity metrics report an
//    undecodable gap — instead of the substream stalling forever, which is
//    exactly what ISSUE's burst-longer-than-T requirement forbids.
//  * Relay forwarding (dense links) — a newest-only forwarder whose own
//    upstream lost a packet skips its id downstream: the id never becomes a
//    channel use there, so no amount of parity can recover it. Hop-by-hop
//    streaming codes assume each relay re-injects what it decodes, so on
//    dense links the policy tracks skipped ids and forwards each one as a
//    regular (parity-protected) data use once the relay holds it. When the
//    upstream hop declared the id unrecoverable, the abandonment cascades
//    downstream instead.
//  * Drain — while undecided erased uses wait on index progression, the
//    policy keeps the link's index stream moving with extra parity uses,
//    so decode windows fill even after the data schedule went quiet.
//    exhausted() turns true once every erased use is decided and nothing
//    is in flight, letting the pipeline stop draining early.
//
// Unlike NACK there is no feedback channel, and unlike XOR parity the
// correction is burst-capable with a hard delay bound — the throughput/
// smoothness frontier bench (bench/throughput_smoothness) compares the
// three on Gilbert–Elliott burst sweeps.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/policy/recovery.hpp"

namespace streamcast::policy {

class StreamingCodePolicy final : public RecoveryPolicy {
 public:
  explicit StreamingCodePolicy(const RecoveryOptions& options);

  const char* name() const override { return "streaming-code"; }

  void bind(RecoveryHost& host) override;
  void on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) override;
  void emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) override;
  void on_data_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_control_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_data_drop(RecoveryHost& host, const sim::Drop& d) override;
  void on_control_drop(RecoveryHost& host, const sim::Drop& d) override;
  bool exhausted() const override {
    return undecided_ == 0 && pending_uses_ == 0;
  }

 private:
  using UseIndex = std::int64_t;

  enum class UseState { kPending, kArrived, kErased };

  struct Use {
    Tx tx{};
    bool parity = false;
    UseState state = UseState::kPending;
    /// An erased data use that was already decoded, repaired by a later
    /// transmission of the same packet, or abandoned. The channel state
    /// (kErased) is kept — erasure runs are a channel property — but the
    /// use needs no further decision.
    bool decided = false;
  };

  struct Link {
    NodeKey from = sim::kNoNode;
    NodeKey to = sim::kNoNode;
    /// Parity cadence accumulator: +B per data use, -T per parity use.
    std::int64_t credit = 0;
    /// Every channel use of the link, indexed by UseIndex (the next index
    /// is uses.size()). Windows are small (a cluster's measurement window
    /// plus parity), so uses are kept for the whole run instead of pruned.
    std::vector<Use> uses{};
    /// No use below this index is still pending.
    UseIndex first_pending = 0;
    /// Erased data uses not yet decided, ascending.
    std::vector<UseIndex> open{};
    /// Newest data id emitted on this link (dense-link skip detection).
    PacketId last_data = -1;
    /// Ids the dense schedule skipped past, ascending, with the substream
    /// tag of the skipping transmission; forwarded once the sender holds
    /// them.
    std::vector<std::pair<PacketId, std::int32_t>> skipped{};
    /// Listed in active_ (or joining_).
    bool active = false;
  };

  /// Where a parity control id's channel use sits; link -1 once final.
  struct ParityUse {
    std::int32_t link = -1;
    UseIndex index = 0;
  };

  /// Index into links_ of the link (from, to), or -1.
  std::int32_t find_link(NodeKey from, NodeKey to) const;
  Link& link_for(NodeKey from, NodeKey to);
  void record_use(Link& link, const Tx& tx, bool parity);
  /// Sets a pending use's final channel outcome.
  void finalize_use(Link& link, UseIndex idx, UseState state);
  bool emit_parity_use(RecoveryHost& host, Slot t, Link& link,
                       std::vector<Tx>& out);
  /// An undecided erasure still waits for the index stream to fill its
  /// decode window.
  bool window_open(const Link& link) const;
  /// True when emit() has work on the link: skipped ids to forward,
  /// cadence parity owed, or an open window to flush.
  bool owes_emit(const Link& link) const;
  /// Lists the link for emit(); called wherever owes_emit() can turn true
  /// (a data use adds credit or skipped ids, an erasure opens a window).
  void activate(Link& link);
  void detect_skips(RecoveryHost& host, Link& link, const Tx& tx);
  void forward_skipped(RecoveryHost& host, Slot t, Link& link,
                       std::vector<Tx>& out);
  /// Marks the pending use carrying data packet tx.packet with the final
  /// channel outcome and re-evaluates the link's open erasures.
  void finalize_data_use(RecoveryHost& host, Slot t, const Tx& tx,
                         UseState state);
  void finalize_parity_use(RecoveryHost& host, Slot t, PacketId id,
                           UseState state);
  /// The maximal erasure run [s, e] of final uses around idx.
  std::pair<UseIndex, UseIndex> erasure_run(const Link& link,
                                            UseIndex idx) const;
  void settle(RecoveryHost& host, Slot t, Link& link);
  void decide(Link& link, UseIndex idx);

  /// Every link that carried a channel use; out_[from] lists the sender's
  /// links as (to, index into links_) ascending by `to`.
  std::vector<Link> links_;
  std::vector<std::vector<std::pair<NodeKey, std::int32_t>>> out_;
  /// The links emit() visits, ascending by (from, to) — the order parity
  /// ids are drawn in and residual capacity is contended for. A link is
  /// listed while owes_emit() may hold; the rest are no-ops for emit(), so
  /// a drained or idle link costs nothing per slot. Links activated since
  /// the last emit() wait in joining_ and merge in at its start.
  std::vector<std::int32_t> active_;
  std::vector<std::int32_t> joining_;
  /// Parity channel uses by control id - sim::kControlIdBase (ids are
  /// drawn consecutively).
  std::vector<ParityUse> parity_at_;
  PacketId next_code_id_ = sim::kControlIdBase;
  /// settle()'s snapshot of a link's open erasures. No hook settle() calls
  /// into re-enters it, so one buffer serves every call.
  std::vector<UseIndex> open_scratch_;
  /// Open erased data uses across all links.
  std::int64_t undecided_ = 0;
  /// Channel uses emitted but not yet arrived/erased, across all links.
  std::int64_t pending_uses_ = 0;
  Slot decode_delay_;   // T
  PacketId max_burst_;  // B
};

}  // namespace streamcast::policy
