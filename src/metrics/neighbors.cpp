// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/metrics/neighbors.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace streamcast::metrics {

NeighborRecorder::NeighborRecorder(NodeKey nodes, int width,
                                   util::BudgetLedger* ledger, NodeKey base)
    : base_(base), width_(static_cast<std::size_t>(width)) {
  assert(nodes >= 1);
  assert(base >= 0);
  if (width < 1) throw std::invalid_argument("neighbor row width < 1");
  const auto span = static_cast<std::size_t>(nodes);
  if (ledger != nullptr) {
    ledger->charge("metrics/neighbor-recorder",
                   span * (width_ * sizeof(NodeKey) +
                           sizeof(std::uint32_t) + sizeof(std::uint32_t)));
  }
  inline_ = std::make_unique_for_overwrite<NodeKey[]>(span * width_);
  used_.assign(span, 0);
  spill_of_ = std::make_unique_for_overwrite<std::uint32_t[]>(span);
}

void NeighborRecorder::insert(NodeKey node, NodeKey partner) {
  const std::size_t key = sim::key_offset(node, base_);
  if (key >= used_.size()) return;
  std::uint32_t& used = used_[key];
  NodeKey* row = inline_.get() + key * width_;
  const std::size_t in_row = std::min<std::size_t>(used, width_);
  if (std::find(row, row + in_row, partner) != row + in_row) return;
  if (used < width_) {
    row[used++] = partner;
    return;
  }
  if (used == width_) {
    spill_of_[key] = static_cast<std::uint32_t>(spill_.size());
    spill_.emplace_back();
  } else {
    const auto& spilled = spill_[spill_of_[key]];
    if (std::find(spilled.begin(), spilled.end(), partner) != spilled.end()) {
      return;
    }
  }
  spill_[spill_of_[key]].push_back(partner);
  ++used;
}

void NeighborRecorder::on_delivery(const Delivery& d) {
  insert(d.tx.to, d.tx.from);
  insert(d.tx.from, d.tx.to);
}

std::size_t NeighborRecorder::max_count(NodeKey from, NodeKey to) const {
  std::size_t best = 0;
  for (NodeKey n = from; n <= to; ++n) best = std::max(best, count(n));
  return best;
}

double NeighborRecorder::mean_count(NodeKey from, NodeKey to) const {
  assert(from <= to);
  double sum = 0;
  for (NodeKey n = from; n <= to; ++n) {
    sum += static_cast<double>(count(n));
  }
  return sum / static_cast<double>(to - from + 1);
}

}  // namespace streamcast::metrics
