// Golden byte-parity cells for the lossy path's flat state (DESIGN.md §6,
// §15).
//
// The sequence tracker, the streaming-code channel-use bookkeeping and the
// host's in-order gate are pure data-structure choices: swapping node-based
// containers for flat, indexed state must not move a byte of any lossy run.
// policy_parity_cells.hpp pins none / NACK / XOR parity only, so these cells
// add the streaming code (every scheme it runs on, three (T, B) codes,
// Gilbert–Elliott bursts longer than B so guard-space collisions, dense-link
// relay forwarding and abandonment cascades all fire) and every other reader
// of the tracker: the NACK aged-gap sweep on demand-driven schemes, the
// random-regular push scheduler, dynamic-trees under NACK, and a
// dynamic-trees churn run with the NACK backfill channel (`sweep_tag`,
// `repair_horizon`) driven outside the session.
//
// Shared between lossy_golden_test.cpp and the capture utility
// (lossy_golden_capture.cpp), so the cell list cannot drift from the golden
// text in lossy_golden.inc.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/config.hpp"
#include "src/core/report.hpp"
#include "src/dyntree/protocol.hpp"
#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"

namespace streamcast::core {

struct LossyGoldenCell {
  std::string id;
  SessionConfig cfg;
};

inline std::vector<LossyGoldenCell> lossy_golden_cells() {
  std::vector<LossyGoldenCell> cells;

  // Streaming code: mean GE burst ~3.3 channel uses, so runs beyond B = 1
  // and B = 2 are common and runs beyond B = 4 occur; rare enough that most
  // short runs still decode.
  const loss::GilbertElliottLoss::Params bursty{
      .p_enter = 0.03, .p_recover = 0.3, .loss_good = 0.0, .loss_bad = 1.0};
  struct Code {
    Slot t;
    PacketId b;
  };
  const Code codes[] = {{4, 1}, {4, 2}, {12, 4}};
  struct Overlay {
    const char* label;
    Scheme scheme;
    NodeKey n;
    int d;
  };
  const Overlay overlays[] = {
      {"multi-tree/greedy", Scheme::kMultiTreeGreedy, 40, 2},
      {"multi-tree/structured", Scheme::kMultiTreeStructured, 31, 2},
      {"chain", Scheme::kChain, 24, 1},
      {"single-tree", Scheme::kSingleTree, 30, 2},
  };
  std::uint64_t seed = 0xb1c0;
  for (const Overlay& o : overlays) {
    for (const Code& c : codes) {
      SessionConfig cfg{.scheme = o.scheme, .n = o.n, .d = o.d};
      cfg.loss.model = loss::ErasureKind::kGilbertElliott;
      cfg.loss.ge = bursty;
      cfg.loss.seed = seed++;
      cfg.loss.recovery_policy = "streaming-code";
      cfg.loss.code = {.decode_delay = c.t, .burst = c.b};
      cells.push_back({std::string("streaming-code ") + o.label + " T=" +
                           std::to_string(c.t) + " B=" + std::to_string(c.b),
                       cfg});
    }
  }
  // Long bad spells on the dense chain: bursts well past T, so whole decode
  // windows die and the relays' abandonment cascades down the chain.
  {
    SessionConfig cfg{.scheme = Scheme::kChain, .n = 16, .d = 1};
    cfg.loss.model = loss::ErasureKind::kGilbertElliott;
    cfg.loss.ge = {.p_enter = 0.04, .p_recover = 0.12, .loss_good = 0.0,
                   .loss_bad = 1.0};
    cfg.loss.seed = 0xca5c;
    cfg.loss.recovery_policy = "streaming-code";
    cfg.loss.code = {.decode_delay = 4, .burst = 2};
    cfg.startup.policy = "loss-adaptive";
    cells.push_back({"streaming-code chain cascade loss-adaptive", cfg});
  }

  // The other tracker readers under NACK.
  const loss::GilbertElliottLoss::Params mild{
      .p_enter = 0.02, .p_recover = 0.5, .loss_good = 0.0, .loss_bad = 1.0};
  const auto nack = [&](const char* id, Scheme scheme, NodeKey n, int d,
                        std::uint64_t loss_seed) {
    SessionConfig cfg{.scheme = scheme, .n = n, .d = d};
    cfg.seed = 0x5eed + loss_seed;
    cfg.loss.model = loss::ErasureKind::kGilbertElliott;
    cfg.loss.ge = mild;
    cfg.loss.seed = loss_seed;
    cfg.loss.recovery_policy = "nack";
    cells.push_back({id, cfg});
  };
  // Demand-driven: the session enables the aged-gap sweep (gap_timeout).
  nack("nack hypercube gap-sweep", Scheme::kHypercube, 31, 1, 0x4c01);
  nack("nack hypercube/grouped gap-sweep", Scheme::kHypercubeGrouped, 24, 2,
       0x4c02);
  nack("nack random-regular", Scheme::kRandomRegular, 40, 2, 0x4c03);
  nack("nack dynamic-trees", Scheme::kDynamicTrees, 40, 2, 0x4c04);
  return cells;
}

/// Golden text of one session cell: the serialized report plus the
/// streaming-code channel counters serialize() leaves out.
inline std::string lossy_golden_text(const LossRunResult& r) {
  std::ostringstream os;
  os << serialize(r) << "\ncode fec_decodes=" << r.loss.fec_decodes
     << " guard_collisions=" << r.loss.guard_collisions
     << " unrecoverable=" << r.loss.unrecoverable
     << " max_erasure_run=" << r.loss.max_erasure_run;
  return os.str();
}

/// FNV-1a fold of the post-repair delivery stream plus a delivery count.
class DeliveryDigest final : public sim::DeliveryObserver {
 public:
  void on_delivery(const sim::Delivery& d) override {
    ++count_;
    fold(d.sent);
    fold(d.received);
    fold(d.tx.from);
    fold(d.tx.to);
    fold(d.tx.packet);
    fold(d.tx.tag);
    fold(d.tx.retransmit ? 1 : 0);
  }
  void on_drop(const sim::Drop& d) override {
    ++drops_;
    fold(d.sent);
    fold(d.tx.packet);
  }

  void fold(std::int64_t value) {
    const auto v = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t hash() const { return hash_; }
  std::int64_t count() const { return count_; }
  std::int64_t drops() const { return drops_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
  std::int64_t count_ = 0;
  std::int64_t drops_ = 0;
};

/// A dynamic-trees churn run with the NACK backfill channel, wired the way
/// bench/churn_realistic wires it (aged-gap sweep with a tag no live
/// delivery uses, a repair horizon, joiners seated at the live edge,
/// departed keys retired past the end) plus Bernoulli link loss.
struct BackfillCell {
  std::string id;
  int d;
  NodeKey initial;
  std::uint64_t seed;
};

inline std::vector<BackfillCell> backfill_cells() {
  return {{"nack-backfill dynamic-trees d=2", 2, 24, 0xbf02},
          {"nack-backfill dynamic-trees d=3", 3, 30, 0xbf03}};
}

inline std::string run_backfill_cell(const BackfillCell& cell) {
  constexpr Slot kEvery = 23;
  constexpr int kEvents = 14;
  constexpr Slot kEnd = kEvery * (kEvents + 1) + 120;
  const NodeKey capacity = cell.initial + kEvents + 1;
  dyntree::DynamicTreesProtocol proto(
      dyntree::DynamicForest(cell.d, cell.seed));
  net::UniformCluster base(capacity, cell.d, 1, cell.d);
  net::ProvisionedTopology topo(base, 1, 1);
  loss::BernoulliLoss model(0.03, cell.seed);

  loss::RecoveryOptions opts;
  opts.policy = "nack";
  opts.gap_timeout = 4 * cell.d + 4;
  opts.sweep_tag = -2;
  opts.repair_horizon = 40;
  loss::RecoveryProtocol recovery(topo, proto, opts);
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  DeliveryDigest digest;
  recovery.add_observer(digest);

  std::vector<NodeKey> live;
  for (NodeKey i = 0; i < cell.initial; ++i) live.push_back(proto.join());
  proto.forest().rebalance();
  for (int e = 0; e < kEvents; ++e) {
    const Slot t = kEvery * (e + 1);
    engine.run_until(t);
    if (e % 3 == 2) {
      const NodeKey key = proto.join();
      live.push_back(key);
      recovery.seat(key, proto.live_edge(t));
    } else {
      const std::size_t victim =
          (static_cast<std::size_t>(e) * 7 + 3) % live.size();
      const NodeKey key = live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      proto.leave(key);
      recovery.seat(key, kEnd + 1);
    }
    proto.forest().rebalance();
  }
  engine.run_until(kEnd);

  std::ostringstream os;
  const loss::RecoveryStats& s = recovery.stats();
  os << "stats data=" << s.data_transmissions
     << " retransmissions=" << s.retransmissions << " nacks=" << s.nacks
     << " suppressed_causal=" << s.suppressed_causal
     << " suppressed_redundant=" << s.suppressed_redundant
     << "\nstream deliveries=" << digest.count()
     << " drops=" << digest.drops() << " digest=" << digest.hash()
     << "\nprefix";
  for (NodeKey v = 1; v < topo.size(); ++v) {
    os << ' ' << recovery.gap_free_prefix(v);
  }
  return os.str();
}

}  // namespace streamcast::core
