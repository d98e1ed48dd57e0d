// Intra-run sharded multicluster execution (DESIGN.md §14).
//
// One super-tree run is split across a std::jthread pool at the cluster
// boundary: shard s owns the contiguous cluster range
// [⌊sK/S⌋, ⌊(s+1)K/S⌋) — its protocol slice, SoA engine state, arena-backed
// in-flight ring, and observer stack — and advances T_c slots per epoch.
// The topology lays clusters out back to back, so a contiguous cluster range
// owns one contiguous key run; every per-node array of the shard (engine
// capacity and duplicate state, recorders, auditor) is sized to that run
// and indexed by key − base, so S shards together hold one topology's worth
// of per-node state, not S copies. Shards interact only
// through backbone packets, and every cross-shard link has latency exactly
// T_c (shards are cluster-contiguous, the global source sits in cluster 0,
// and all cross-cluster latencies are T_c), so a packet sent during epoch e
// arrives either in the last slot of epoch e (injected retroactively at the
// barrier through the engine's late-delivery path) or inside epoch e+1
// (ringed before the epoch starts). A T_c-slot epoch therefore cannot
// reorder backbone delivery; the proof sketch is in DESIGN.md §14.
//
// Byte-identity contract: the merged QosReport, trace, audit verdicts, and
// engine totals at ANY shard count equal the shards == 1 run bit-for-bit.
// Aggregation reuses core::aggregate_qos with receivers iterated in global
// (cluster, local) order — each read from its owning shard's stack — so
// every floating-point fold happens in the serial order; EngineStats are
// summed in shard submission order; the delivery trace is merged in the
// canonical (received, sent, from, to, packet, tag) order at every shard
// count, including 1.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "src/core/config.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/report.hpp"
#include "src/multitree/protocol.hpp"
#include "src/sim/erasure.hpp"
#include "src/sim/trace.hpp"

namespace streamcast::core {

/// Per-phase wall time and allocation accounting of one sharded run, for
/// `bench/perf_sweep --shards` (shard overhead must be attributable, not
/// just end-to-end).
struct ShardMetrics {
  int shards = 1;
  double construct_s = 0;
  double pump_s = 0;
  double merge_s = 0;
  /// Engine totals summed over shards in submission order (allocation
  /// counters included).
  sim::EngineStats stats{};
  /// The largest shard's BudgetLedger peak: the per-shard footprint of
  /// engine state, ring arena and recorders (the auditor is not charged).
  std::size_t ledger_peak_bytes = 0;
};

/// How the sharded multicluster runner executes one run. The defaults
/// reproduce the historical serial session path exactly.
struct ShardOptions {
  /// Worker count; clamped to [1, clusters]. 1 = the serial pump.
  int shards = 1;
  /// Stream mode forwarded to the multi-tree intra protocols (the session
  /// path always passes kPreRecorded; live-pipelined cells come through
  /// here).
  multitree::StreamMode mode = multitree::StreamMode::kPreRecorded;
  /// Count receivers with incomplete windows instead of throwing (lossy
  /// cells may legitimately miss packets).
  bool skip_incomplete = false;
  /// When non-null, receives the merged delivery trace in canonical
  /// (received, sent, from, to, packet, tag) order — at every shard count,
  /// including 1 (the serial bucket order is not reproducible across
  /// shards; the canonical order is, and nothing else observes it).
  sim::Trace* trace = nullptr;
  /// Per-shard erasure oracle factory; null = lossless. Sharding an oracle
  /// is sound only when its decisions are a pure per-link function (e.g.
  /// Gilbert–Elliott forks one PRNG per directed link from the seed, so any
  /// partition of senders reproduces the serial stream; Bernoulli draws
  /// from one global-order PRNG and is NOT shardable). The oracle must
  /// stay alive until the run returns — ownership is transferred here.
  std::function<std::unique_ptr<sim::ErasureOracle>(int shard)> make_loss;
};

/// Runs one multicluster session sharded `opts.shards` ways and returns the
/// merged QosReport. `metrics`, when given, receives per-phase wall times
/// and merged engine totals; `incomplete`, when given, receives the number
/// of skipped receivers (skip_incomplete runs). Throws the first worker's
/// exception (in shard order) if any shard fails; audit runs (config.audit)
/// throw sim::ProtocolViolation if any shard's auditor is unclean.
QosReport run_multicluster_sharded(const SessionConfig& config,
                                   const ShardOptions& opts = {},
                                   ShardMetrics* metrics = nullptr,
                                   NodeKey* incomplete = nullptr);

}  // namespace streamcast::core
