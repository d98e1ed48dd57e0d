// Recovery subsystem tests: sequence tracking, NACK repair, FEC decode,
// the zero-loss bit-identical regression, the gap-free-prefix invariant
// under heavy loss, and the playback-continuity metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/core/session.hpp"
#include "src/loss/model.hpp"
#include "src/loss/recovery.hpp"
#include "src/metrics/continuity.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/util/prng.hpp"

namespace streamcast {
namespace {

using loss::RecoveryMode;
using loss::RecoveryOptions;
using loss::RecoveryProtocol;
using loss::SequenceTracker;
using sim::Delivery;
using sim::NodeKey;
using sim::PacketId;
using sim::Slot;
using sim::Tx;

Tx tx(NodeKey from, NodeKey to, PacketId p) {
  return Tx{.from = from, .to = to, .packet = p, .tag = 0};
}

/// Scripted inner protocol: replays (slot, Tx) and records deliveries.
class Scripted final : public sim::Protocol {
 public:
  void at(Slot t, Tx t_x) { script_.emplace_back(t, t_x); }

  void transmit(Slot t, std::vector<Tx>& out) override {
    for (const auto& [slot, item] : script_) {
      if (slot == t) out.push_back(item);
    }
  }
  void deliver(Slot t, const Tx& t_x) override {
    delivered.push_back(Delivery{.sent = -1, .received = t, .tx = t_x});
  }

  std::vector<Delivery> delivered;

 private:
  std::vector<std::pair<Slot, Tx>> script_;
};

/// Deterministic loss: erases the nth transmission of each listed packet id.
class DropSpecific final : public loss::LossModel {
 public:
  /// Erase the first `times` transmissions carrying packet id `p`.
  void drop(PacketId p, int times = 1) { budget_[p] = times; }

  bool erased(Slot, const Tx& t_x) override {
    auto it = budget_.find(t_x.packet);
    if (it == budget_.end() || it->second == 0) return false;
    --it->second;
    return true;
  }

 private:
  std::map<PacketId, int> budget_;
};

TEST(SequenceTracker, PrefixAndAhead) {
  SequenceTracker tr;
  EXPECT_EQ(tr.gap_free_prefix(), 0);
  tr.mark(0);
  tr.mark(1);
  EXPECT_EQ(tr.gap_free_prefix(), 2);
  tr.mark(3);
  tr.mark(5);
  EXPECT_EQ(tr.gap_free_prefix(), 2);
  EXPECT_TRUE(tr.has(3));
  EXPECT_FALSE(tr.has(2));
  std::vector<PacketId> ahead;
  tr.for_each_ahead([&](PacketId p) { ahead.push_back(p); });
  EXPECT_EQ(ahead, (std::vector<PacketId>{3, 5}));
  EXPECT_EQ(tr.newest(), 5);
  tr.mark(2);  // closes the gap; prefix swallows 3, stops at 4
  EXPECT_EQ(tr.gap_free_prefix(), 4);
  tr.mark(4);
  EXPECT_EQ(tr.gap_free_prefix(), 6);
  EXPECT_TRUE(tr.ahead_empty());
  EXPECT_EQ(tr.newest(), 5);
  tr.mark(1);  // idempotent below the prefix
  EXPECT_EQ(tr.gap_free_prefix(), 6);
}

/// The pre-bitmap tracker: prefix plus a std::set of the ids ahead of it.
class SetTracker {
 public:
  void mark(PacketId p) {
    if (p < next_) return;
    ahead_.insert(p);
    swallow();
  }
  void start_at(PacketId p) {
    if (p <= next_) return;
    next_ = p;
    ahead_.erase(ahead_.begin(), ahead_.lower_bound(next_));
    swallow();
  }
  bool has(PacketId p) const { return p < next_ || ahead_.contains(p); }
  PacketId prefix() const { return next_; }
  PacketId newest() const {
    return ahead_.empty() ? next_ - 1 : *ahead_.rbegin();
  }
  const std::set<PacketId>& ahead() const { return ahead_; }

 private:
  void swallow() {
    while (!ahead_.empty() && *ahead_.begin() == next_) {
      ahead_.erase(ahead_.begin());
      ++next_;
    }
  }

  PacketId next_ = 0;
  std::set<PacketId> ahead_;
};

void expect_same(const SequenceTracker& tr, const SetTracker& model,
                 int script, int op) {
  SCOPED_TRACE(::testing::Message() << "script " << script << " op " << op);
  ASSERT_EQ(tr.gap_free_prefix(), model.prefix());
  ASSERT_EQ(tr.ahead_empty(), model.ahead().empty());
  ASSERT_EQ(tr.newest(), model.newest());
  std::vector<PacketId> ahead;
  tr.for_each_ahead([&](PacketId p) { ahead.push_back(p); });
  ASSERT_EQ(ahead,
            std::vector<PacketId>(model.ahead().begin(), model.ahead().end()));
  // Probe around the prefix, around every held id, and many words past
  // the newest.
  std::vector<PacketId> probes;
  for (PacketId p = model.prefix() - 70; p < model.prefix() + 140; ++p) {
    probes.push_back(p);
  }
  for (const PacketId a : model.ahead()) {
    probes.insert(probes.end(), {a - 1, a, a + 1});
  }
  for (PacketId p = model.newest(); p < model.newest() + 5 * 64; p += 61) {
    probes.push_back(p);
  }
  for (const PacketId p : probes) {
    ASSERT_EQ(tr.has(p), model.has(p)) << "has(" << p << ")";
  }
}

TEST(SequenceTracker, MatchesSetModelOnRandomScripts) {
  util::Prng rng(0x7eac);
  for (int script = 0; script < 300; ++script) {
    SequenceTracker tr;
    SetTracker model;
    // Scripts differ in how far ahead of the prefix ids land: within a
    // word, a few words, or hundreds of words (sparse far-future ids).
    const std::int64_t reach = std::int64_t{1} << rng.range(2, 14);
    for (int op = 0; op < 200; ++op) {
      const PacketId base = model.prefix();
      const std::int64_t kind = rng.range(0, 99);
      PacketId p = 0;
      if (kind < 40) {
        p = base + rng.range(0, 3);  // at or just past the prefix
      } else if (kind < 80) {
        p = base + rng.range(0, reach);  // anywhere in the script's reach
      } else if (kind < 88 && !model.ahead().empty()) {
        p = model.newest();  // repeated mark of a held id
      } else if (kind < 92) {
        p = base - rng.range(1, 5);  // below the prefix: a no-op
      }
      if (kind < 92) {
        tr.mark(p);
        model.mark(p);
      } else {
        // start_at below, at, inside or past the held ids.
        p = base + rng.range(-3, 2 * reach);
        tr.start_at(p);
        model.start_at(p);
      }
      expect_same(tr, model, script, op);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SequenceTracker, FarAheadIdsAndSeatingPastThem) {
  SequenceTracker tr;
  tr.mark(1);
  tr.mark(100000);  // ~1500 words past the prefix
  tr.mark(100000);  // idempotent
  EXPECT_TRUE(tr.has(100000));
  EXPECT_FALSE(tr.has(99999));
  EXPECT_EQ(tr.newest(), 100000);
  tr.start_at(5000);  // forgets 1, keeps the far id
  EXPECT_EQ(tr.gap_free_prefix(), 5000);
  EXPECT_FALSE(tr.ahead_empty());
  tr.start_at(100001);  // seats past every held id
  EXPECT_EQ(tr.gap_free_prefix(), 100001);
  EXPECT_TRUE(tr.ahead_empty());
  EXPECT_EQ(tr.newest(), 100000);
  tr.mark(100001);
  tr.mark(100003);
  EXPECT_EQ(tr.gap_free_prefix(), 100002);
  EXPECT_EQ(tr.newest(), 100003);
}

TEST(RecoveryProtocol, NackRepairsSingleDropInOrder) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 5; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  DropSpecific model;
  model.drop(1);
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(12);

  EXPECT_EQ(engine.stats().drops, 1);
  EXPECT_EQ(engine.stats().retransmissions, 1);
  EXPECT_EQ(recovery.stats().retransmissions, 1);
  EXPECT_EQ(recovery.stats().nacks, 1);
  EXPECT_EQ(recovery.gap_free_prefix(1), 5);
  EXPECT_TRUE(recovery.all_gap_free(1, 1, 5));
  // The wrapped protocol saw its lossless delivery order.
  ASSERT_EQ(inner.delivered.size(), 5u);
  for (PacketId p = 0; p < 5; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
  }
}

TEST(RecoveryProtocol, LostRepairIsRenacked) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 5; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  DropSpecific model;
  model.drop(1, /*times=*/2);  // the data packet AND its first repair
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(20);

  EXPECT_EQ(engine.stats().drops, 2);
  EXPECT_EQ(recovery.stats().retransmissions, 2);
  EXPECT_EQ(recovery.stats().nacks, 2);
  EXPECT_EQ(recovery.gap_free_prefix(1), 5);
}

TEST(RecoveryProtocol, FecDecodesSingleLossWithoutRoundTrip) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 8; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(
      topo, inner,
      RecoveryOptions{.mode = RecoveryMode::kFec, .fec_window = 4});
  DropSpecific model;
  model.drop(1);
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(12);

  EXPECT_EQ(recovery.stats().fec_decodes, 1);
  EXPECT_EQ(recovery.stats().parity_transmissions, 2);  // two full windows
  EXPECT_EQ(recovery.stats().retransmissions, 0);
  EXPECT_EQ(recovery.gap_free_prefix(1), 8);
  // In-order hand-off held packets 2, 3 until the decode closed the gap.
  ASSERT_EQ(inner.delivered.size(), 8u);
  for (PacketId p = 0; p < 8; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
  }
}

TEST(RecoveryProtocol, LostParityLeavesWindowUnprotected) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 4; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(
      topo, inner,
      RecoveryOptions{.mode = RecoveryMode::kFec, .fec_window = 4});
  DropSpecific model;
  model.drop(1);
  model.drop(sim::kControlIdBase);  // the parity of window [0, 4)
  sim::Engine engine(topo, recovery);
  engine.set_loss_model(&model);
  engine.add_observer(recovery);
  engine.run_until(12);

  EXPECT_EQ(recovery.stats().fec_decodes, 0);
  EXPECT_EQ(recovery.gap_free_prefix(1), 1);  // the gap never closes
}

TEST(RecoveryProtocol, ZeroLossSchedulePassesThroughUntouched) {
  net::UniformCluster base(2, 1);
  net::ProvisionedTopology topo(base, 1, 1);
  Scripted inner;
  for (Slot t = 0; t < 6; ++t) inner.at(t, tx(0, 1, t));
  RecoveryProtocol recovery(topo, inner,
                            RecoveryOptions{.mode = RecoveryMode::kNack});
  sim::Engine engine(topo, recovery);
  engine.add_observer(recovery);
  engine.run_until(8);

  const auto& rs = recovery.stats();
  EXPECT_EQ(rs.data_transmissions, 6);
  EXPECT_EQ(rs.retransmissions, 0);
  EXPECT_EQ(rs.suppressed_causal, 0);
  EXPECT_EQ(rs.suppressed_redundant, 0);
  EXPECT_EQ(rs.nacks, 0);
  ASSERT_EQ(inner.delivered.size(), 6u);
  for (PacketId p = 0; p < 6; ++p) {
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].tx.packet, p);
    EXPECT_EQ(inner.delivered[static_cast<std::size_t>(p)].received, p);
  }
}

// --- session-level: the zero-loss bit-identical regression ----------------

void expect_identical_reports(const core::QosReport& plain,
                              const core::QosReport& lossy) {
  EXPECT_EQ(plain.scheme, lossy.scheme);
  EXPECT_EQ(plain.n, lossy.n);
  EXPECT_EQ(plain.d, lossy.d);
  EXPECT_EQ(plain.worst_delay, lossy.worst_delay);
  EXPECT_EQ(plain.average_delay, lossy.average_delay);
  EXPECT_EQ(plain.max_buffer, lossy.max_buffer);
  EXPECT_EQ(plain.average_buffer, lossy.average_buffer);
  EXPECT_EQ(plain.max_neighbors, lossy.max_neighbors);
  EXPECT_EQ(plain.average_neighbors, lossy.average_neighbors);
  EXPECT_EQ(plain.transmissions, lossy.transmissions);
  EXPECT_EQ(lossy.drops, 0);
  EXPECT_EQ(lossy.retransmissions, 0);
}

TEST(LossySession, ZeroLossRateIsBitIdenticalAcrossSchemes) {
  const struct {
    core::Scheme scheme;
    NodeKey n;
    int d;
  } cases[] = {
      {core::Scheme::kMultiTreeGreedy, 20, 2},
      {core::Scheme::kMultiTreeStructured, 13, 2},
      {core::Scheme::kHypercube, 15, 1},
      {core::Scheme::kHypercubeGrouped, 14, 2},
      {core::Scheme::kChain, 6, 1},
      {core::Scheme::kSingleTree, 7, 2},
  };
  for (const auto& c : cases) {
    core::SessionConfig cfg{.scheme = c.scheme, .n = c.n, .d = c.d};
    const core::QosReport plain = core::StreamingSession(cfg).run();
    cfg.loss.model = loss::ErasureKind::kBernoulli;
    cfg.loss.rate = 0.0;
    const core::LossRunResult lossy = core::StreamingSession(cfg).run_lossy();
    SCOPED_TRACE(plain.scheme);
    expect_identical_reports(plain, lossy.qos);
    EXPECT_TRUE(lossy.loss.all_gap_free);
    EXPECT_EQ(lossy.loss.incomplete_nodes, 0);
    EXPECT_EQ(lossy.loss.drain_slots, 0);
    // Playback at the measured playback delay never stalls on a reliable
    // run — the paper's delay definition, restated as a continuity metric.
    EXPECT_EQ(lossy.loss.stalls, 0);
    EXPECT_EQ(lossy.loss.stall_slots, 0);
    EXPECT_EQ(lossy.loss.undecodable, 0);
  }
}

TEST(LossySession, EveryReceiverReachesGapFreePrefixUnderHeavyLoss) {
  const struct {
    core::Scheme scheme;
    NodeKey n;
    int d;
    double rate;
  } cases[] = {
      {core::Scheme::kMultiTreeGreedy, 30, 2, 0.2},
      {core::Scheme::kHypercube, 15, 1, 0.1},
      {core::Scheme::kChain, 8, 1, 0.2},
      {core::Scheme::kSingleTree, 10, 2, 0.1},
  };
  for (const auto& c : cases) {
    core::SessionConfig cfg{.scheme = c.scheme, .n = c.n, .d = c.d};
    cfg.loss.model = loss::ErasureKind::kBernoulli;
    cfg.loss.rate = c.rate;
    cfg.loss.seed = 17;
    const core::LossRunResult r = core::StreamingSession(cfg).run_lossy();
    SCOPED_TRACE(r.qos.scheme);
    EXPECT_TRUE(r.loss.all_gap_free);
    EXPECT_EQ(r.loss.incomplete_nodes, 0);
    EXPECT_GT(r.loss.drops, 0);
    EXPECT_GT(r.loss.retransmissions, 0);
  }
}

TEST(LossySession, GilbertElliottBurstsAreRepaired) {
  core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
                          .n = 20,
                          .d = 2};
  cfg.loss.model = loss::ErasureKind::kGilbertElliott;
  cfg.loss.ge = {.p_enter = 0.02, .p_recover = 0.25, .loss_good = 0.0,
                 .loss_bad = 1.0};
  cfg.loss.seed = 3;
  const core::LossRunResult r = core::StreamingSession(cfg).run_lossy();
  EXPECT_TRUE(r.loss.all_gap_free);
  EXPECT_EQ(r.loss.incomplete_nodes, 0);
  EXPECT_GT(r.loss.drops, 0);
}

TEST(LossySession, DeterministicAcrossRuns) {
  core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
                          .n = 15,
                          .d = 2};
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  cfg.loss.rate = 0.1;
  cfg.loss.seed = 99;
  const core::LossRunResult a = core::StreamingSession(cfg).run_lossy();
  const core::LossRunResult b = core::StreamingSession(cfg).run_lossy();
  EXPECT_EQ(a.qos.worst_delay, b.qos.worst_delay);
  EXPECT_EQ(a.qos.transmissions, b.qos.transmissions);
  EXPECT_EQ(a.loss.drops, b.loss.drops);
  EXPECT_EQ(a.loss.retransmissions, b.loss.retransmissions);
  EXPECT_EQ(a.loss.stall_slots, b.loss.stall_slots);
}

TEST(LossySession, MultiClusterWithLossRejected) {
  core::SessionConfig cfg{.scheme = core::Scheme::kMultiTreeGreedy,
                          .n = 5,
                          .d = 2,
                          .clusters = 2};
  cfg.loss.model = loss::ErasureKind::kBernoulli;
  cfg.loss.rate = 0.1;
  EXPECT_THROW(core::StreamingSession{cfg}, std::invalid_argument);
}

// --- playback-continuity metrics ------------------------------------------

TEST(ContinuityRecorder, StallsGapsAndFinish) {
  metrics::ContinuityRecorder rec(2, 5);
  auto arrive = [&](PacketId p, Slot at) {
    rec.on_delivery(Delivery{.sent = at, .received = at, .tx = tx(0, 1, p)});
  };
  arrive(0, 2);
  arrive(1, 3);
  arrive(2, 10);
  // packet 3 never arrives
  arrive(4, 11);

  const auto r = rec.report(1, /*playback_start=*/5, /*horizon=*/20);
  EXPECT_EQ(r.stalls, 1);        // one wait, for packet 2
  EXPECT_EQ(r.stall_slots, 3);   // slots 7, 8, 9
  EXPECT_EQ(r.undecodable, 1);   // packet 3
  ASSERT_EQ(r.gap_lengths.size(), 1u);
  EXPECT_EQ(r.gap_lengths[0], 1);
  EXPECT_EQ(r.finish_slot, 12);
}

TEST(ContinuityRecorder, NoStallWhenEverythingArrivedBeforeStart) {
  metrics::ContinuityRecorder rec(2, 4);
  for (PacketId p = 0; p < 4; ++p) {
    rec.on_delivery(Delivery{.sent = p, .received = p, .tx = tx(0, 1, p)});
  }
  const auto r = rec.report(1, /*playback_start=*/4, /*horizon=*/100);
  EXPECT_EQ(r.stalls, 0);
  EXPECT_EQ(r.stall_slots, 0);
  EXPECT_EQ(r.undecodable, 0);
  EXPECT_TRUE(r.gap_lengths.empty());
  EXPECT_EQ(r.finish_slot, 8);
}

TEST(ContinuityRecorder, TrailingGapAndAdjacentStalls) {
  metrics::ContinuityRecorder rec(2, 4);
  auto arrive = [&](PacketId p, Slot at) {
    rec.on_delivery(Delivery{.sent = at, .received = at, .tx = tx(0, 1, p)});
  };
  arrive(0, 5);
  arrive(1, 7);
  // packets 2 and 3 never arrive: one trailing gap of length 2
  const auto r = rec.report(1, /*playback_start=*/0, /*horizon=*/50);
  EXPECT_EQ(r.stalls, 2);       // waits for packet 0 and again for packet 1
  EXPECT_EQ(r.stall_slots, 6);  // 5 slots for packet 0, 1 more for packet 1
  EXPECT_EQ(r.undecodable, 2);
  ASSERT_EQ(r.gap_lengths.size(), 1u);
  EXPECT_EQ(r.gap_lengths[0], 2);
}

TEST(ContinuityRecorder, CountsRepairTrafficForOverhead) {
  metrics::ContinuityRecorder rec(2, 8);
  for (PacketId p = 0; p < 4; ++p) {
    rec.on_delivery(Delivery{.sent = p, .received = p, .tx = tx(0, 1, p)});
  }
  Tx repair = tx(0, 1, 4);
  repair.retransmit = true;
  rec.on_delivery(Delivery{.sent = 5, .received = 5, .tx = repair});
  rec.on_delivery(
      Delivery{.sent = 6, .received = 6, .tx = tx(0, 1, sim::kControlIdBase)});
  EXPECT_EQ(rec.data_deliveries(), 4);
  EXPECT_EQ(rec.repair_deliveries(), 1);
  EXPECT_EQ(rec.parity_deliveries(), 1);
  EXPECT_DOUBLE_EQ(rec.redundancy_overhead(), 0.5);
}

}  // namespace
}  // namespace streamcast
