// NACK recovery policy: gap-driven retransmission after a modeled NACK
// round trip (byte-identical to the pre-registry host, golden-pinned).
//
// Every detected gap — an engine drop report, a suppressed causal send, a
// skipped id on a dense link, or an aged gap on a demand-driven scheme —
// schedules a retransmission from a node that holds the packet, after the
// reverse-link trip, riding only on residual send/receive capacity. Lost
// repairs are re-NACKed, so every gap eventually closes (exhausted() is
// therefore always false).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/policy/recovery.hpp"

namespace streamcast::policy {

class NackPolicy final : public RecoveryPolicy {
 public:
  using RecoveryPolicy::RecoveryPolicy;

  const char* name() const override { return "nack"; }

  void on_suppressed_causal(RecoveryHost& host, Slot t,
                            const Tx& tx) override;
  void on_suppressed_redundant(RecoveryHost& host, Slot t,
                               const Tx& tx) override;
  void on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) override;
  void emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) override;
  void on_data_ingested(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_data_drop(RecoveryHost& host, const sim::Drop& d) override;

 private:
  struct Repair {
    NodeKey sender = 0;
    std::int32_t tag = 0;
    Slot due = 0;
    bool in_flight = false;
  };

  Slot nack_due(const RecoveryHost& host, Slot detect_slot, NodeKey from,
                NodeKey to) const;
  void schedule_repair(RecoveryHost& host, NodeKey to, PacketId p,
                       NodeKey sender, std::int32_t tag, Slot due);
  void detect_dense_skips(RecoveryHost& host, Slot t, const Tx& tx);
  void sweep_aged_gaps(RecoveryHost& host, Slot t);
  void emit_repairs(RecoveryHost& host, Slot t, std::vector<Tx>& out);
  void bump_last_emitted(const Tx& tx);

  std::map<std::pair<NodeKey, PacketId>, Repair> pending_;
  // Dense-link skip detection: newest inner-emitted id per (from, to).
  std::map<std::pair<NodeKey, NodeKey>, PacketId> last_emitted_;
  // Aged-gap sweep: slot at which each open gap was first observed.
  std::map<std::pair<NodeKey, PacketId>, Slot> gap_seen_;
};

}  // namespace streamcast::policy
