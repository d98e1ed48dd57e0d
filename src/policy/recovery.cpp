#include "src/policy/recovery.hpp"

namespace streamcast::policy {

double RecoveryStats::redundancy_overhead() const {
  if (data_transmissions == 0) return 0.0;
  return static_cast<double>(retransmissions + parity_transmissions) /
         static_cast<double>(data_transmissions);
}

void RecoveryPolicy::on_suppressed_causal(RecoveryHost& host, Slot /*t*/,
                                          const Tx& tx) {
  host.mark_outstanding(tx.to, tx.tag, tx.packet);
}

}  // namespace streamcast::policy
