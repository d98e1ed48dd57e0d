#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "src/metrics/buffers.hpp"
#include "src/metrics/delay.hpp"
#include "src/metrics/neighbors.hpp"
#include "src/metrics/summary.hpp"
#include "src/util/prng.hpp"

namespace streamcast::metrics {
namespace {

sim::Delivery make(NodeKey from, NodeKey to, PacketId p, Slot at) {
  return sim::Delivery{
      .sent = at,
      .received = at,
      .tx = {.from = from, .to = to, .packet = p, .tag = 0}};
}

TEST(DelayRecorder, PaperNodeOneExample) {
  // §2.3: node 1 receives packets 0, 1, 2 in slots 0, 2, 1. Playback delay
  // under our convention: max(0-0, 2-1, 1-2) = 1.
  DelayRecorder rec(/*nodes=*/2, /*window=*/3);
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(0, 1, 1, 2));
  rec.on_delivery(make(0, 1, 2, 1));
  ASSERT_TRUE(rec.complete(1));
  EXPECT_EQ(rec.playback_delay(1), 1);
}

TEST(DelayRecorder, IncompleteWindowHasNoDelay) {
  DelayRecorder rec(2, 3);
  rec.on_delivery(make(0, 1, 0, 0));
  EXPECT_FALSE(rec.complete(1));
  EXPECT_EQ(rec.playback_delay(1), std::nullopt);
  EXPECT_THROW(rec.worst_delay(1, 1), std::logic_error);
}

TEST(DelayRecorder, FirstArrivalWins) {
  DelayRecorder rec(2, 1);
  rec.on_delivery(make(0, 1, 0, 5));
  rec.on_delivery(make(0, 1, 0, 2));  // later report of an earlier slot is
                                      // ignored: first delivery stands
  EXPECT_EQ(rec.arrival(1, 0), 5);
}

TEST(DelayRecorder, PacketsOutsideWindowIgnored) {
  DelayRecorder rec(2, 2);
  rec.on_delivery(make(0, 1, 7, 0));
  EXPECT_FALSE(rec.complete(1));
}

TEST(DelayRecorder, WorstAndAverageOverRange) {
  DelayRecorder rec(4, 2);
  // node 1: arrivals 0,1 -> a=0; node 2: 1,2 -> a=1; node 3: 4,2 -> a=4.
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(0, 1, 1, 1));
  rec.on_delivery(make(0, 2, 0, 1));
  rec.on_delivery(make(0, 2, 1, 2));
  rec.on_delivery(make(0, 3, 0, 4));
  rec.on_delivery(make(0, 3, 1, 2));
  EXPECT_EQ(rec.worst_delay(1, 3), 4);
  EXPECT_DOUBLE_EQ(rec.average_delay(1, 3), (0.0 + 1.0 + 4.0) / 3.0);
  EXPECT_EQ(rec.delays(1, 3), (std::vector<Slot>{0, 1, 4}));
}

TEST(DelayRecorder, KeyRangeIgnoresKeysOutsideAndAnswersByGlobalKey) {
  // Keys [10, 13): a shard's slice of a larger topology.
  DelayRecorder rec(/*nodes=*/3, /*window=*/2, /*ledger=*/nullptr,
                    /*base=*/10);
  EXPECT_EQ(rec.nodes(), 3);
  for (const NodeKey foreign : {0, 9, 13, 20}) {
    rec.on_delivery(make(1, foreign, 0, 0));
    rec.on_delivery(make(1, foreign, 1, 1));
  }
  // node 10: arrivals 0, 1 -> a = 0; node 12: arrivals 3, 2 -> a = 3.
  rec.on_delivery(make(1, 10, 0, 0));
  rec.on_delivery(make(1, 10, 1, 1));
  rec.on_delivery(make(1, 12, 0, 3));
  rec.on_delivery(make(1, 12, 1, 2));
  EXPECT_EQ(rec.playback_delay(10), 0);
  EXPECT_FALSE(rec.complete(11));
  EXPECT_EQ(rec.playback_delay(11), std::nullopt);
  EXPECT_EQ(rec.playback_delay(12), 3);
  EXPECT_EQ(rec.arrival(12, 0), 3);
  std::vector<Slot> row;
  rec.arrivals(12, row);
  EXPECT_EQ(row, (std::vector<Slot>{3, 2}));
}

TEST(BufferOccupancy, InOrderUnitRateNeedsOnePacket) {
  // Packet j arrives in slot j, playback starts at 0: buffer holds exactly
  // the packet being played.
  const std::vector<Slot> arrivals{0, 1, 2, 3};
  EXPECT_EQ(max_buffer_occupancy(arrivals, 0), 1u);
}

TEST(BufferOccupancy, DelayedStartAccumulates) {
  const std::vector<Slot> arrivals{0, 1, 2, 3};
  // Start at 3: by slot 3 packets 0..3 arrived, only packet 0 played.
  EXPECT_EQ(max_buffer_occupancy(arrivals, 3), 4u);
}

TEST(BufferOccupancy, SeriesShape) {
  const std::vector<Slot> arrivals{0, 2, 1};
  const auto series = occupancy_series(arrivals, /*start=*/2);
  // During slot 0: {p0}; slot 1: {p0,p2}; slot 2: +p1, p0 playing -> 3;
  // slot 3: p0 gone, p1 playing -> 2; slot 4: p2 playing -> 1.
  EXPECT_EQ(series, (std::vector<std::size_t>{1, 2, 3, 2, 1}));
}

TEST(BufferOccupancy, PaperNodeOneNeedsThreeWithStartThree) {
  // §2.3: "node 1 will receive packets 0, 1, and 2 in time slots 0, 2, and
  // 1, respectively. Therefore a buffer size of 3 is sufficient for node 1."
  // (The paper starts playback after one packet from each of the d=3 trees.)
  const std::vector<Slot> arrivals{0, 2, 1};
  EXPECT_EQ(max_buffer_occupancy(arrivals, /*start=*/3), 3u);
}

TEST(BufferOccupancy, InfeasibleStartThrows) {
  const std::vector<Slot> arrivals{5, 6};
  EXPECT_THROW(occupancy_series(arrivals, 0), std::logic_error);
}

TEST(BufferOccupancy, PerNodeViaRecorder) {
  DelayRecorder rec(2, 3);
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(0, 1, 1, 2));
  rec.on_delivery(make(0, 1, 2, 1));
  const auto occ = max_occupancies(rec, 1, 1);
  ASSERT_EQ(occ.size(), 1u);
  // a(1) = 1. During-slot occupancy: t0 {p0}; t1 {p0 playing, p2} -> 2;
  // t2 {p1 arriving+playing, p2} -> 2; t3 {p2 playing} -> 1. Max is 2.
  EXPECT_EQ(occ[0], 2u);
}

TEST(NeighborRecorder, CountsBothDirectionsDistinct) {
  NeighborRecorder rec(5);
  rec.on_delivery(make(0, 1, 0, 0));
  rec.on_delivery(make(1, 2, 0, 1));
  rec.on_delivery(make(1, 2, 1, 2));  // repeat partner: still one neighbor
  rec.on_delivery(make(3, 1, 5, 2));
  EXPECT_EQ(rec.count(1), 3u);  // 0, 2, 3
  EXPECT_EQ(rec.count(2), 1u);
  EXPECT_EQ(rec.count(4), 0u);
  EXPECT_EQ(rec.max_count(1, 4), 3u);
  EXPECT_DOUBLE_EQ(rec.mean_count(1, 4), (3.0 + 1.0 + 1.0 + 0.0) / 4.0);
}

TEST(NeighborRecorder, KeyRangeIgnoresKeysOutsideAndCountsByGlobalKey) {
  // Keys [10, 13), narrow rows so the range also covers the spill path.
  NeighborRecorder rec(/*nodes=*/3, /*width=*/1, /*ledger=*/nullptr,
                       /*base=*/10);
  rec.on_delivery(make(0, 9, 0, 0));    // no tracked key
  rec.on_delivery(make(13, 20, 0, 0));  // no tracked key
  rec.on_delivery(make(9, 10, 0, 0));   // foreign partner of 10
  rec.on_delivery(make(10, 13, 1, 1));  // foreign partner of 10
  rec.on_delivery(make(10, 12, 2, 2));
  rec.on_delivery(make(12, 10, 3, 3));  // repeat pair
  EXPECT_EQ(rec.count(10), 3u);
  EXPECT_EQ(rec.count(11), 0u);
  EXPECT_EQ(rec.count(12), 1u);
  EXPECT_EQ(rec.max_count(10, 12), 3u);
  EXPECT_DOUBLE_EQ(rec.mean_count(10, 12), 4.0 / 3.0);
}

TEST(NeighborRecorder, MatchesSetModelOnRandomDeliveries) {
  // Random deliveries against a std::set-per-node model, from the narrowest
  // row up. Two hub nodes draw partners from the whole key space, so their
  // partner lists outgrow the inline row and spill; keys just past the
  // recorder's span are never holders but still count as partners.
  for (const int width : {1, 2, 3, NeighborRecorder::kInlineWidth}) {
    int spilled = 0;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      util::Prng rng(seed * 7919 + static_cast<std::uint64_t>(width));
      const auto nodes = static_cast<NodeKey>(rng.range(2, 64));
      NeighborRecorder rec(nodes, width);
      std::vector<std::set<NodeKey>> model(static_cast<std::size_t>(nodes));
      const auto record = [&](NodeKey holder, NodeKey partner) {
        if (holder >= nodes) return;
        model[static_cast<std::size_t>(holder)].insert(partner);
      };
      const auto key = [&] {
        return static_cast<NodeKey>(rng.range(0, nodes + 2));
      };
      const std::int64_t deliveries = rng.range(0, 800);
      for (std::int64_t i = 0; i < deliveries; ++i) {
        const NodeKey from =
            rng.chance(0.3) ? static_cast<NodeKey>(i % 2) : key();
        const NodeKey to = key();
        rec.on_delivery(make(from, to, 0, 0));
        record(from, to);
        record(to, from);
        if (i % 97 != 0 && i + 1 != deliveries) continue;
        for (NodeKey x = 0; x < nodes; ++x) {
          ASSERT_EQ(rec.count(x), model[static_cast<std::size_t>(x)].size())
              << "width " << width << " seed " << seed << " node " << x
              << " after " << i + 1 << " deliveries";
        }
      }
      std::size_t widest = 0;
      for (const auto& partners : model) {
        widest = std::max(widest, partners.size());
        if (partners.size() > static_cast<std::size_t>(width)) ++spilled;
      }
      EXPECT_EQ(rec.max_count(0, nodes - 1), widest);
    }
    EXPECT_GT(spilled, 0) << "width " << width << " never spilled";
  }
}

TEST(Summary, BasicStatistics) {
  const std::vector<double> v{4, 1, 3, 2, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_DOUBLE_EQ(s.p50, 3);
  EXPECT_DOUBLE_EQ(s.p95, 5);
}

TEST(Summary, EmptyInput) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.n, 0u);
}

TEST(Summary, SlotOverload) {
  const std::vector<sim::Slot> v{10, 20};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 15);
}

}  // namespace
}  // namespace streamcast::metrics
