#include "check.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>

#include "src/core/session.hpp"
#include "src/core/shard.hpp"
#include "src/scheme/registry.hpp"

namespace sessionbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The scheme's reliable-link delay/buffer envelope (single-cluster cells).
bool within_envelope(const Cell& cell, const core::QosReport& qos) {
  if (cell.kind == CellKind::kMulticluster) return true;
  const auto env =
      streamcast::scheme::descriptor(cell.config.scheme).envelope(cell.config);
  if (env.delay >= 0 && qos.worst_delay > env.delay) return false;
  return env.buffer < 0 ||
         static_cast<std::int64_t>(qos.max_buffer) <= env.buffer;
}

}  // namespace

Outcome outcome_of(const core::QosReport& qos) {
  return {.threw = false, .output = core::serialize(qos), .qos = qos};
}

Outcome outcome_of(const core::LossRunResult& result) {
  return {.threw = false,
          .output = core::serialize(result) + "\n" +
                    core::serialize(result.startup),
          .qos = result.qos};
}

Outcome outcome_of(const std::exception& error) {
  return {.threw = true, .output = error.what(), .qos = {}};
}

Outcome run_cell(const Cell& cell, Timing* timing) {
  const core::SessionConfig& cfg = cell.config;
  Timing t;
  auto start = Clock::now();
  // Only the public call is timed; serializing its report is not.
  auto timed = [&](auto&& session_call) {
    start = Clock::now();
    const auto report = session_call();
    t.session_s = since(start);
    return outcome_of(report);
  };
  Outcome out;
  try {
    if (cell.kind == CellKind::kMulticluster) {
      core::ShardOptions opts;
      opts.shards = cfg.shards;
      core::ShardMetrics metrics;
      out = timed(
          [&] { return core::run_multicluster_sharded(cfg, opts, &metrics); });
      t.setup_s = metrics.construct_s;
    } else {
      if (timing != nullptr && !replays(cell)) {
        const auto& desc = streamcast::scheme::descriptor(cfg.scheme);
        // An untimed build first takes on the heap clean-up the previous
        // session left behind (up to 10 ms after a streaming-code session,
        // a hundred times a 150-node build).
        desc.build(cfg);
        start = Clock::now();
        const streamcast::scheme::Overlay overlay = desc.build(cfg);
        t.setup_s = since(start);
      }
      const core::StreamingSession session(cfg);
      out = cell.kind == CellKind::kLossy
                ? timed([&] { return session.run_lossy(); })
                : timed([&] { return session.run(); });
    }
  } catch (const std::exception& e) {
    // A failed session counts with the time it took to fail.
    t.session_s = since(start);
    out = outcome_of(e);
  }
  if (timing != nullptr) *timing = t;
  return out;
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool References::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, cell, seed, value;
    if (fields >> workload >> cell >> seed >> value) {
      add(workload, cell, seed, value);
    }
  }
  return true;
}

void References::add(const std::string& workload, const std::string& cell,
                     const std::string& seed, const std::string& value) {
  table_[{workload, cell, seed}] = value;
}

std::optional<std::string> References::find(const std::string& workload,
                                            const Cell& cell,
                                            std::uint64_t seed) const {
  const std::string key = cell.seeded ? std::to_string(seed) : "*";
  const auto it = table_.find({workload, cell.name, key});
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

Verdict judge(const Cell& cell, const Outcome& outcome,
              const std::string& reference) {
  if (reference == "envelope") {
    if (outcome.threw) {
      return {.known_defect = true, .reason = outcome.output};
    }
    if (!within_envelope(cell, outcome.qos)) {
      return {.failed = true,
              .mismatch = true,
              .reason = "report exceeds the scheme envelope: " +
                        outcome.output};
    }
    return {};
  }
  if (outcome.threw) {
    return {.failed = true,
            .mismatch = true,
            .reason = "threw where the reference ran: " + outcome.output};
  }
  if (digest(outcome.output) != reference) {
    return {.failed = true,
            .mismatch = true,
            .reason = "output digest " + digest(outcome.output) +
                      " differs from reference " + reference};
  }
  return {};
}

std::string capture_reference(const Cell& cell) {
  Cell audited = cell;
  if (replays(cell)) {
    // The closed-form replay's reference comes from the slot-engine pump
    // it replaces, without the auditor: auditing a million-node pump
    // takes over 10 GiB.
    audited.config.scale.allow_replay = false;
  } else {
    audited.config.audit = true;
  }
  const Outcome out = run_cell(audited, nullptr);
  return out.threw ? "envelope" : digest(out.output);
}

}  // namespace sessionbench
