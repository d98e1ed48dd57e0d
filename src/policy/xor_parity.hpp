// XOR-parity FEC policy: per link, one parity packet per fec_window data
// packets (byte-identical to the pre-registry host, golden-pinned).
//
// A single erasure inside a window decodes at the receiver without a round
// trip (XOR of the parity with the w-1 received packets). Parity ids live
// in the control id space (sim::kControlIdBase) and are never part of the
// stream; a lost parity packet simply leaves its window unprotected.
#pragma once

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/policy/recovery.hpp"

namespace streamcast::policy {

class XorParityPolicy final : public RecoveryPolicy {
 public:
  explicit XorParityPolicy(const RecoveryOptions& options)
      : RecoveryPolicy(options) {}

  const char* name() const override { return "xor-parity"; }

  void bind(RecoveryHost& host) override;
  void on_data_emitted(RecoveryHost& host, Slot t, const Tx& tx) override;
  void emit(RecoveryHost& host, Slot t, std::vector<Tx>& out) override;
  void on_data_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_control_arrival(RecoveryHost& host, Slot t, const Tx& tx) override;
  void on_control_drop(RecoveryHost& host, const sim::Drop& d) override;

 private:
  struct ParityWindow {
    NodeKey from = 0;
    NodeKey to = 0;
    std::vector<Tx> data;  // the window's data transmissions, in order
  };

  void emit_parity(RecoveryHost& host, Slot t, std::vector<Tx>& out);
  bool try_decode(RecoveryHost& host, Slot t, PacketId parity_id);
  void recheck_unresolved(RecoveryHost& host, Slot t, NodeKey node);

  std::map<std::pair<NodeKey, NodeKey>, std::vector<Tx>> fec_acc_;
  std::deque<std::pair<PacketId, ParityWindow>> parity_queue_;
  std::map<PacketId, ParityWindow> parity_windows_;  // sent, undecoded
  std::vector<std::vector<PacketId>> unresolved_;    // per node: parity ids
  PacketId next_parity_id_ = sim::kControlIdBase;
};

}  // namespace streamcast::policy
