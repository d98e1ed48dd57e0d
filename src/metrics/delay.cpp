// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/metrics/delay.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace streamcast::metrics {

DelayRecorder::DelayRecorder(NodeKey nodes, PacketId window,
                             util::BudgetLedger* ledger, NodeKey base)
    : window_(window), base_(base) {
  assert(nodes >= 1);
  assert(base >= 0);
  assert(window >= 1);
  const std::size_t cells =
      static_cast<std::size_t>(nodes) * static_cast<std::size_t>(window);
  if (ledger != nullptr) {
    ledger->charge("metrics/delay-recorder",
                   cells * sizeof(std::int32_t) +
                       static_cast<std::size_t>(nodes) *
                           (sizeof(PacketId) + sizeof(std::int32_t)));
  }
  delta_.assign(cells, kNoDelta);
  missing_.assign(static_cast<std::size_t>(nodes), window);
  best_.assign(static_cast<std::size_t>(nodes), kNoDelta);
}

void DelayRecorder::on_delivery(const Delivery& d) {
  if (d.tx.packet >= window_) return;
  const std::size_t node = sim::key_offset(d.tx.to, base_);
  if (node >= missing_.size()) return;
  auto& cell = delta_[node * static_cast<std::size_t>(window_) +
                      static_cast<std::size_t>(d.tx.packet)];
  if (cell != kNoDelta) return;  // the first delivery stands
  const Slot delta = d.received - d.tx.packet;
  // Deltas are bounded by the horizon, far below 2^31; a schedule that
  // breaks this would corrupt the compact encoding, so refuse loudly.
  if (delta <= kNoDelta || delta > std::numeric_limits<std::int32_t>::max()) {
    throw std::logic_error("delay recorder arrival delta out of int32 range");
  }
  cell = static_cast<std::int32_t>(delta);
  --missing_[node];
  best_[node] = std::max(best_[node], cell);
}

Slot DelayRecorder::arrival(NodeKey node, PacketId p) const {
  assert(p >= 0 && p < window_);
  const std::int32_t delta = row(node)[static_cast<std::size_t>(p)];
  return delta == kNoDelta ? kNeverArrived : p + delta;
}

// lint: allow(hot-path-alloc) — the caller's buffer, reused across nodes
void DelayRecorder::arrivals(NodeKey node, std::vector<Slot>& row) const {
  if (!complete(node)) {
    throw std::logic_error("arrival row of an incomplete node");
  }
  row.resize(static_cast<std::size_t>(window_));
  const std::int32_t* deltas = this->row(node);
  for (PacketId j = 0; j < window_; ++j) {
    row[static_cast<std::size_t>(j)] =
        j + static_cast<Slot>(deltas[static_cast<std::size_t>(j)]);
  }
}

std::optional<Slot> DelayRecorder::playback_delay(NodeKey node) const {
  if (!complete(node)) return std::nullopt;
  // a = max(0, max_j (recv(j) - j)): playback never starts before slot 0.
  return std::max<Slot>(0, best_[local(node)]);
}

// lint: allow(hot-path-alloc) — a query result, built once per call
std::vector<Slot> DelayRecorder::delays(NodeKey from, NodeKey to) const {
  std::vector<Slot> out;  // lint: allow(hot-path-alloc)
  out.reserve(static_cast<std::size_t>(to - from + 1));
  for (NodeKey n = from; n <= to; ++n) {
    const auto a = playback_delay(n);
    if (!a) {
      throw std::logic_error("node " + std::to_string(n) +
                             " did not receive the full packet window");
    }
    out.push_back(*a);
  }
  return out;
}

Slot DelayRecorder::worst_delay(NodeKey from, NodeKey to) const {
  const auto all = delays(from, to);
  return *std::ranges::max_element(all);
}

double DelayRecorder::average_delay(NodeKey from, NodeKey to) const {
  const auto all = delays(from, to);
  double sum = 0;
  for (const Slot a : all) sum += static_cast<double>(a);
  return sum / static_cast<double>(all.size());
}

}  // namespace streamcast::metrics
