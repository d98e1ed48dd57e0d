#include "src/metrics/continuity.hpp"

#include <cassert>

#include "src/metrics/delay.hpp"

namespace streamcast::metrics {

ContinuityRecorder::ContinuityRecorder(NodeKey nodes, PacketId window,
                                       util::BudgetLedger* ledger,
                                       NodeKey base)
    : window_(window), base_(base), nodes_(nodes) {
  assert(nodes >= 1);
  assert(base >= 0);
  assert(window >= 1);
  const std::size_t cells =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(window);
  if (ledger != nullptr) {
    ledger->charge("metrics/continuity-recorder", cells * sizeof(Slot));
  }
  arrival_.assign(cells, kNeverArrived);
}

void ContinuityRecorder::on_delivery(const Delivery& d) {
  if (d.tx.packet >= sim::kControlIdBase) {
    ++parity_;
    return;
  }
  if (d.tx.retransmit) {
    ++retransmissions_;
  } else {
    ++data_;
  }
  if (d.tx.packet >= window_) return;
  const std::size_t node = sim::key_offset(d.tx.to, base_);
  if (node >= static_cast<std::size_t>(nodes_)) return;
  auto& cell = arrival_[node * static_cast<std::size_t>(window_) +
                        static_cast<std::size_t>(d.tx.packet)];
  if (cell == kNeverArrived || d.received < cell) cell = d.received;
}

Slot ContinuityRecorder::arrival(NodeKey node, PacketId p) const {
  assert(p >= 0 && p < window_);
  return row(node)[static_cast<std::size_t>(p)];
}

Slot ContinuityRecorder::first_arrival(NodeKey node) const {
  const Slot* arrivals = row(node);
  Slot first = kNeverArrived;
  for (PacketId j = 0; j < window_; ++j) {
    const Slot got = arrivals[static_cast<std::size_t>(j)];
    if (got == kNeverArrived) continue;
    if (first == kNeverArrived || got < first) first = got;
  }
  return first;
}

ContinuityRecorder::Report ContinuityRecorder::report(NodeKey node, Slot start,
                                                      Slot horizon) const {
  const Slot* arrivals = row(node);
  Report r;
  Slot t = start;
  PacketId gap_run = 0;
  for (PacketId j = 0; j < window_; ++j) {
    const Slot got = arrivals[static_cast<std::size_t>(j)];
    if (got == kNeverArrived || got >= horizon) {
      // Never decodable within the run: playback skips the packet.
      ++r.undecodable;
      ++gap_run;
      continue;
    }
    if (gap_run > 0) {
      r.gap_lengths.push_back(gap_run);
      gap_run = 0;
    }
    if (got > t) {
      // Wait for the packet. Consecutive packets that both stall are
      // separated by the first one playing, so each wait is its own stall
      // event; the slots spent waiting for one packet count once.
      ++r.stalls;
      r.stall_slots += got - t;
      t = got;
    }
    ++t;  // the packet plays during slot t
  }
  if (gap_run > 0) r.gap_lengths.push_back(gap_run);
  r.finish_slot = t;
  return r;
}

double ContinuityRecorder::redundancy_overhead() const {
  if (data_ == 0) return 0.0;
  return static_cast<double>(retransmissions_ + parity_) /
         static_cast<double>(data_);
}

}  // namespace streamcast::metrics
