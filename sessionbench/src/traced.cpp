#include "traced.hpp"

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>

#include "src/core/pipeline.hpp"
#include "src/core/session.hpp"
#include "src/core/shard.hpp"
#include "src/loss/model.hpp"
#include "src/multitree/analysis.hpp"
#include "src/policy/registry.hpp"
#include "src/scheme/registry.hpp"
#include "src/supertree/protocol.hpp"

namespace sessionbench {

namespace {

namespace sim = streamcast::sim;
namespace metrics = streamcast::metrics;
namespace scale = streamcast::scale;
namespace scheme = streamcast::scheme;
namespace net = streamcast::net;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Forwarding decorator: times and counts the engine's calls into a
/// protocol. Deliver calls are timed only on request (one clock pair per
/// delivery); transmit is called once per slot.
class TimedProtocol final : public sim::Protocol {
 public:
  TimedProtocol(sim::Protocol& inner, bool time_deliver)
      : inner_(inner), time_deliver_(time_deliver) {}

  void transmit(sim::Slot t, std::vector<sim::Tx>& out) override {
    const std::size_t before = out.size();
    const auto start = Clock::now();
    inner_.transmit(t, out);
    transmit_s += since(start);
    ++transmit_calls;
    emitted += static_cast<double>(out.size() - before);
  }

  void deliver(sim::Slot t, const sim::Tx& tx) override {
    ++deliver_calls;
    if (!time_deliver_) {
      inner_.deliver(t, tx);
      return;
    }
    const auto start = Clock::now();
    inner_.deliver(t, tx);
    deliver_s += since(start);
  }

  double transmit_s = 0;
  double deliver_s = 0;
  double transmit_calls = 0;
  double emitted = 0;
  double deliver_calls = 0;

 private:
  sim::Protocol& inner_;
  bool time_deliver_;
};

/// Captures the delivery stream a run's recorders observe, in chunks, and
/// replays each chunk into fresh recorders of the family the run uses —
/// one timer per recorder per chunk — so each recorder's cost on this
/// stream is measured without instrumenting the library. Chunks bound the
/// capture's memory; time spent flushing inside the pump is reported so
/// the caller can take it out of the pump's span.
class RecorderReplay final : public sim::DeliveryObserver {
 public:
  RecorderReplay(bool scaled, bool continuity, sim::NodeKey span,
                 sim::PacketId window) {
    if (scaled) {
      scale_delays_.emplace(span, window, nullptr);
      scale_neighbors_.emplace(span, scale::ScaleOptions{}.neighbor_cap,
                               nullptr);
    } else {
      delays_.emplace(span, window);
      neighbors_.emplace(span);
      if (continuity) continuity_.emplace(span, window);
    }
    chunk_.reserve(kChunk);
  }

  void on_delivery(const sim::Delivery& d) override {
    chunk_.push_back(d);
    if (chunk_.size() == kChunk) flush();
  }

  void flush() {
    const auto start = Clock::now();
    // The capture's own append cost, estimated by one more append pass.
    auto t = Clock::now();
    copy_.assign(chunk_.begin(), chunk_.end());
    append_s += since(t);
    if (delays_) {
      delay_s += replay(*delays_);
      neighbor_s += replay(*neighbors_);
      if (continuity_) continuity_s += replay(*continuity_);
    } else {
      delay_s += replay(*scale_delays_);
      neighbor_s += replay(*scale_neighbors_);
    }
    chunk_.clear();
    flush_s += since(start);
  }

  /// Records the replayed costs under the family's module names.
  void report(Layers& layers) const {
    const std::string family = delays_ ? "metrics." : "scale.";
    layers.add(family + "delay_s", delay_s);
    layers.add(family + "neighbor_s", neighbor_s);
    if (continuity_) layers.add("metrics.continuity_s", continuity_s);
    layers.add("_trace.append_s", append_s);
  }

  double flush_s = 0;

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 18;

  double replay(sim::DeliveryObserver& recorder) const {
    const auto start = Clock::now();
    for (const sim::Delivery& d : chunk_) recorder.on_delivery(d);
    return since(start);
  }

  std::optional<metrics::DelayRecorder> delays_;
  std::optional<metrics::NeighborRecorder> neighbors_;
  std::optional<metrics::ContinuityRecorder> continuity_;
  std::optional<scale::ScaleDelayRecorder> scale_delays_;
  std::optional<scale::ScaleNeighborRecorder> scale_neighbors_;
  std::vector<sim::Delivery> chunk_;
  std::vector<sim::Delivery> copy_;
  double delay_s = 0;
  double neighbor_s = 0;
  double continuity_s = 0;
  double append_s = 0;
};

void record_build(Layers& layers, const std::string& scheme_slug,
                  double seconds) {
  layers.add("scheme.build_s", seconds);
  layers.add("scheme.build_s." + scheme_slug, seconds);
}

void record_protocol(Layers& layers, const TimedProtocol& p) {
  layers.add("protocol.transmit_s", p.transmit_s);
  layers.add("protocol.transmit_calls", p.transmit_calls);
  layers.add("protocol.tx_emitted", p.emitted);
  layers.add("protocol.deliver_calls", p.deliver_calls);
}

/// The pump's span and the engine's counters. `flush_s` is replay work
/// done inside the span, which belongs to the trace, not the engine.
void record_pump(Layers& layers, core::RunPipeline& pipeline, double pump_s,
                 double flush_s) {
  const sim::EngineStats& st = pipeline.engine().stats();
  layers.add("sim.pump_s", pump_s - flush_s);
  layers.add("sim.slots", static_cast<double>(pipeline.end()));
  layers.add("sim.transmissions", static_cast<double>(st.transmissions));
  layers.add("sim.deliveries", static_cast<double>(st.deliveries));
  layers.add("sim.drops", static_cast<double>(st.drops));
  layers.add("sim.arena_bytes", static_cast<double>(st.arena_bytes));
  layers.add("sim.ring_relayouts", static_cast<double>(st.ring_relayouts));
  layers.add("sim.seen_relayouts", static_cast<double>(st.seen_relayouts));
  layers.peak("util.budget_peak_bytes",
              static_cast<double>(pipeline.ledger().peak()));
}

std::vector<core::NodeKey> receivers_1_to(core::NodeKey n) {
  std::vector<core::NodeKey> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), core::NodeKey{1});
  return keys;
}

/// StreamingSession::run()'s reliable path (registry build, RunPipeline,
/// aggregate), with the protocol wrapped and the recorders replayed.
Outcome traced_reliable(const Cell& cell, Layers& layers) {
  const core::SessionConfig& cfg = cell.config;
  if (replays(cell)) {
    const auto start = Clock::now();
    const core::QosReport qos = core::StreamingSession(cfg).run();
    layers.add("scale.replay_s", since(start));
    return outcome_of(qos);
  }
  const scheme::Descriptor& desc = scheme::descriptor(cfg.scheme);
  auto start = Clock::now();
  scheme::Overlay overlay = desc.build(cfg);
  record_build(layers, slug(desc.name), since(start));

  TimedProtocol protocol(*overlay.protocol, false);
  core::ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = cfg.n + 1;
  spec.scale = cfg.scale;
  core::RunPipeline pipeline(*overlay.topology, protocol, spec);
  RecorderReplay replay(pipeline.observers().scaled(), false, cfg.n + 1,
                        overlay.window);
  pipeline.engine().add_observer(replay);

  start = Clock::now();
  pipeline.run(overlay.window + overlay.slack);
  const double pump_s = since(start);
  const double in_pump = replay.flush_s;
  replay.flush();
  record_pump(layers, pipeline, pump_s, in_pump);
  record_protocol(layers, protocol);
  replay.report(layers);

  start = Clock::now();
  const core::QosReport qos =
      pipeline.aggregate({.label = core::scheme_label(cfg.scheme),
                          .report_n = cfg.n,
                          .d = cfg.d,
                          .receivers = receivers_1_to(cfg.n)});
  layers.add("core.aggregate_s", since(start));
  return outcome_of(qos);
}

/// StreamingSession::run_lossy()'s wiring, with one decorator around the
/// recovery host and one around the scheme protocol it wraps.
Outcome traced_lossy(const Cell& cell, Layers& layers) {
  const core::SessionConfig& cfg = cell.config;
  const core::LossConfig& lc = cfg.loss;
  const scheme::Descriptor& desc = scheme::descriptor(cfg.scheme);
  auto start = Clock::now();
  scheme::Overlay overlay = desc.build(cfg);
  record_build(layers, slug(desc.name), since(start));

  net::ProvisionedTopology topology(*overlay.topology, lc.extra_send,
                                    lc.extra_recv);
  const std::unique_ptr<streamcast::loss::LossModel> model =
      streamcast::loss::make_model(lc.model, lc.rate, lc.ge, lc.seed);
  TimedProtocol inner(*overlay.protocol, true);
  streamcast::loss::RecoveryOptions opts;
  opts.mode = lc.recovery;
  opts.policy = lc.recovery_policy;
  opts.fec_window = lc.fec_window;
  opts.code = lc.code;
  opts.dense_links = desc.caps.dense_links;
  if (desc.caps.demand_driven) opts.gap_timeout = overlay.slack;
  streamcast::loss::RecoveryProtocol recovery(topology, inner, opts);
  TimedProtocol host(recovery, true);

  core::ObserverSpec spec;
  spec.window = overlay.window;
  spec.node_span = cfg.n + 1;
  spec.continuity = true;
  spec.scale = cfg.scale;
  core::RunPipeline pipeline(topology, host, spec, model.get(), &recovery);
  RecorderReplay replay(false, true, cfg.n + 1, overlay.window);
  recovery.add_observer(replay);

  start = Clock::now();
  pipeline.run(overlay.window + overlay.slack,
               {.from = 1, .to = cfg.n, .max_drain = lc.max_drain});
  const double pump_s = since(start);
  const double in_pump = replay.flush_s;
  replay.flush();
  record_pump(layers, pipeline, pump_s, in_pump);
  record_protocol(layers, inner);
  replay.report(layers);
  layers.add("_policy.host_s", host.transmit_s + host.deliver_s);
  layers.add("_policy.inner_s", inner.transmit_s + inner.deliver_s);
  layers.add("core.drain_slots", static_cast<double>(pipeline.drained()));

  start = Clock::now();
  core::LossRunResult result;
  core::NodeKey incomplete = 0;
  result.qos = pipeline.aggregate({.label = core::scheme_label(cfg.scheme),
                                   .report_n = cfg.n,
                                   .d = cfg.d,
                                   .receivers = receivers_1_to(cfg.n),
                                   .skip_incomplete = true},
                                  &incomplete);
  const auto startup =
      streamcast::policy::startup_policy(cfg.startup.policy).make(cfg.startup);
  result.loss = pipeline.loss_summary(lc, *startup, 1, cfg.n,
                                      result.qos.worst_delay, &result.startup);
  result.loss.incomplete_nodes = incomplete;
  layers.add("core.aggregate_s", since(start));

  const streamcast::loss::RecoveryStats& rs = recovery.stats();
  layers.add("loss.retransmissions", static_cast<double>(rs.retransmissions));
  layers.add("loss.parity_transmissions",
             static_cast<double>(rs.parity_transmissions));
  layers.add("loss.nacks", static_cast<double>(rs.nacks));
  layers.add("loss.unrecoverable", static_cast<double>(rs.unrecoverable));
  layers.add("_loss.data_transmissions",
             static_cast<double>(rs.data_transmissions));
  return outcome_of(result);
}

/// One super-tree run through a serial RunPipeline: the topology and
/// protocol run_multicluster_sharded builds per shard, built once.
Outcome traced_supertree(const Cell& cell, Layers& layers) {
  const core::SessionConfig& cfg = cell.config;
  const scheme::Descriptor& desc = scheme::descriptor(cfg.scheme);
  auto start = Clock::now();
  const std::vector<net::ClusteredTopology::ClusterSpec> specs(
      static_cast<std::size_t>(cfg.clusters),
      net::ClusteredTopology::ClusterSpec{cfg.n});
  net::ClusteredTopology topology(specs, cfg.big_d, cfg.d, cfg.t_c);
  streamcast::supertree::SuperTreeProtocol inner(topology, desc.intra);
  record_build(layers, "supertree-" + slug(desc.name), since(start));

  core::PacketId window = cfg.window;
  if (window == 0) {
    window = 2 * streamcast::multitree::worst_delay_bound(cfg.n, cfg.d);
  }
  const core::Slot horizon = window + desc.multicluster_bound(cfg) + 8;
  TimedProtocol protocol(inner, false);
  core::ObserverSpec spec;
  spec.window = window;
  spec.node_span = topology.size();
  spec.scale = cfg.scale;
  core::RunPipeline pipeline(topology, protocol, spec);
  RecorderReplay replay(pipeline.observers().scaled(), false, topology.size(),
                        window);
  pipeline.engine().add_observer(replay);

  start = Clock::now();
  pipeline.run(horizon);
  const double pump_s = since(start);
  const double in_pump = replay.flush_s;
  replay.flush();
  record_pump(layers, pipeline, pump_s, in_pump);
  record_protocol(layers, protocol);
  replay.report(layers);

  std::vector<core::NodeKey> receivers;
  for (int c = 0; c < cfg.clusters; ++c) {
    for (core::NodeKey x = 1; x <= topology.cluster_receivers(c); ++x) {
      receivers.push_back(topology.receiver(c, x));
    }
  }
  start = Clock::now();
  const core::QosReport qos =
      pipeline.aggregate({.label = core::scheme_label(cfg.scheme, cfg.clusters),
                          .report_n = cfg.n * cfg.clusters,
                          .d = cfg.d,
                          .receivers = std::move(receivers)});
  layers.add("core.aggregate_s", since(start));
  return outcome_of(qos);
}

/// The sharded run at the cell's shard count and at S = 1, timed by the
/// runner's own ShardMetrics.
std::vector<Outcome> traced_sharded(const Cell& cell, Layers& layers) {
  std::vector<Outcome> outcomes;
  core::ShardMetrics m;
  core::ShardOptions opts;
  opts.shards = cell.config.shards;
  const double cpu_start = cpu_seconds();
  outcomes.push_back(
      outcome_of(core::run_multicluster_sharded(cell.config, opts, &m)));
  // Construction and merge run on one thread; the rest of the call's CPU
  // time is the pump's.
  const double cpu_pump = cpu_seconds() - cpu_start - m.construct_s - m.merge_s;
  layers.add("shard.construct_s", m.construct_s);
  layers.add("shard.pump_s", m.pump_s);
  layers.add("shard.merge_s", m.merge_s);
  layers.add("_shard.cpu_pump_s", cpu_pump);

  core::ShardMetrics serial;
  opts.shards = 1;
  outcomes.push_back(
      outcome_of(core::run_multicluster_sharded(cell.config, opts, &serial)));
  layers.add("shard.serial_pump_s", serial.pump_s);
  return outcomes;
}

}  // namespace

void Layers::peak(const std::string& name, double value) {
  auto [it, inserted] = values_.try_emplace(name, value);
  if (!inserted && value > it->second) it->second = value;
}

void Layers::finish() {
  auto take = [this](const std::string& name) {
    const auto it = values_.find(name);
    if (it == values_.end()) return 0.0;
    const double v = it->second;
    values_.erase(it);
    return v;
  };
  auto value = [this](const std::string& name) {
    return has(name) ? values_.at(name) : 0.0;
  };
  const double append_s = take("_trace.append_s");
  if (has("_policy.host_s")) {
    values_["policy.self_s"] = take("_policy.host_s") - take("_policy.inner_s");
  }
  if (has("_loss.data_transmissions")) {
    const double data = take("_loss.data_transmissions");
    values_["loss.redundancy_overhead"] =
        (value("loss.retransmissions") + value("loss.parity_transmissions")) /
        data;
  }
  if (has("shard.pump_s")) {
    values_["shard.pump_speedup"] =
        value("shard.serial_pump_s") / value("shard.pump_s");
    values_["shard.cpu_per_wall"] =
        take("_shard.cpu_pump_s") / value("shard.pump_s");
  }
  if (has("sim.pump_s")) {
    // Self time: the pump's span minus the spans inside it that belong to
    // other layers (scheme transmit, recovery host, recorders) and to the
    // trace's own capture.
    values_["sim.engine_self_s"] =
        value("sim.pump_s") - value("protocol.transmit_s") -
        value("policy.self_s") - value("metrics.delay_s") -
        value("metrics.neighbor_s") - value("metrics.continuity_s") -
        value("scale.delay_s") - value("scale.neighbor_s") - append_s;
  }
}

std::string unit_of(const std::string& name) {
  if (name.ends_with("_s") || name.find("_s.") != std::string::npos) {
    return "s";
  }
  if (name.ends_with("_bytes")) return "bytes";
  if (name == "shard.pump_speedup" || name == "shard.cpu_per_wall" ||
      name == "loss.redundancy_overhead") {
    return "ratio";
  }
  return "count";
}

std::vector<Outcome> run_cell_traced(const Cell& cell, Layers& layers) {
  try {
    switch (cell.kind) {
      case CellKind::kReliable:
        return {traced_reliable(cell, layers)};
      case CellKind::kLossy:
        return {traced_lossy(cell, layers)};
      case CellKind::kMulticluster: {
        std::vector<Outcome> outcomes = traced_sharded(cell, layers);
        outcomes.push_back(traced_supertree(cell, layers));
        return outcomes;
      }
    }
  } catch (const std::exception& e) {
    return {outcome_of(e)};
  }
  return {};
}

}  // namespace sessionbench
