// Static scheme registry: one descriptor per overlay scheme of the paper.
//
// A descriptor bundles everything the run pipeline needs to execute a scheme
// — the overlay factory (topology + protocol + measurement window + horizon
// slack), the capability flags the session validates against, the §7 audit
// envelope (the delay/buffer bounds the paper proves), and the canonical
// name with its exact-inverse parser. Adding scheme #7 means adding one
// descriptor here; the session, the benches, the audit grid, and the parity
// suite all pick it up by iterating `all()`.
//
// Scheme dispatch is centralized in this directory by construction:
// tools/lint_ast.py fails CI on a `case Scheme::` arm anywhere outside
// src/scheme/.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "src/audit/auditor.hpp"
#include "src/core/config.hpp"
#include "src/multitree/forest.hpp"
#include "src/net/topology.hpp"
#include "src/sim/protocol.hpp"
#include "src/supertree/protocol.hpp"

namespace streamcast::scheme {

using core::PacketId;
using core::Scheme;
using core::SessionConfig;
using core::Slot;

/// A built single-cluster overlay, ready to hand to the engine. The forest
/// (multi-tree schemes only) is owned here because the protocol references
/// it for the lifetime of the run.
struct Overlay {
  std::unique_ptr<net::Topology> topology;
  std::unique_ptr<multitree::Forest> forest;
  std::unique_ptr<sim::Protocol> protocol;
  /// Packets measured when SessionConfig::window == 0 left the choice to
  /// the scheme (enough for steady state).
  PacketId window = 0;
  /// Horizon slack beyond window + worst delay.
  Slot slack = 4;
};

/// What a scheme supports / how its schedule behaves. The session validates
/// configurations against these flags instead of switching on the enum, and
/// the parity suite asserts they match what the legacy dispatch allowed.
struct Capabilities {
  /// multitree::StreamMode changes the schedule (live modes). Schemes that
  /// stream pre-recorded data ignore the mode.
  bool live_modes = false;
  /// Runs under loss::RecoveryProtocol on a provisioned topology. Every
  /// current scheme does; a future scheme may opt out.
  bool lossy_links = true;
  /// Valid intra-cluster scheme for the §2.1 super-tree composition.
  bool multicluster = false;
  /// Eligible for the memoized periodic-schedule cache (DESIGN.md §8).
  bool memoized_schedule = false;
  /// Every packet id flows over every link (newest-only forwarders), so the
  /// recovery layer may treat per-link id gaps as losses.
  bool dense_links = false;
  /// Demand-driven exchanges stop offering a packet once its consumption
  /// slot passes; the recovery layer must sweep aged gaps on a timeout.
  bool demand_driven = false;
  /// The degree parameter d is meaningful (benches sweep it; schemes with
  /// d fixed at 1 run a single chain).
  bool degree_sweep = false;
  /// Lossless runs of this scheme can be replayed in closed form by
  /// scale::replay_structured (DESIGN.md §11): the schedule is d-periodic
  /// position arithmetic, so QoS aggregates need no per-slot simulation.
  bool closed_form_replay = false;
  /// The overlay adapts to membership churn mid-run (join/leave/swap rules
  /// mutate the structure while the stream keeps flowing); the churn
  /// benches pick it up as the adaptive competitor.
  bool churn = false;
  /// Delay-bounded recovery policies (policy caps.bounded_recovery, e.g.
  /// streaming-code) are sound: every window gap is link-visible as a
  /// failed transmission. Demand-driven offer schedules retire packets at
  /// their consumption slot, producing silent gaps only a feedback sweep
  /// closes, so they opt out and the session rejects the combination.
  bool bounded_recovery_policies = true;
  /// Churn-induced gaps can be repaired through a NACK backfill channel
  /// (loss::RecoveryProtocol::seat seats joiners at the live edge);
  /// bench/churn_realistic picks it up as the repaired competitor.
  bool churn_backfill = false;
};

/// The §7 audit envelope a scheme claims on reliable links: worst playback
/// delay and max buffer occupancy. -1 skips a check.
struct Envelope {
  Slot delay = -1;
  std::int64_t buffer = -1;
};

struct Descriptor {
  Scheme id;
  /// Canonical name; core::scheme_name/parse_scheme round-trip through it.
  const char* name;
  Capabilities caps;
  /// Builds the single-cluster overlay for a validated config.
  Overlay (*build)(const SessionConfig&);
  /// Reliable-link delay/buffer envelope (lossy adjustments are applied
  /// uniformly by audit_envelope()).
  Envelope (*envelope)(const SessionConfig&);
  /// Super-tree intra-cluster mapping; meaningful iff caps.multicluster.
  supertree::IntraScheme intra = supertree::IntraScheme::kMultiTree;
  /// Structural delay bound of the cross-cluster composition; null unless
  /// caps.multicluster.
  Slot (*multicluster_bound)(const SessionConfig&) = nullptr;
};

/// Every registered scheme, in core::Scheme enumerator order.
std::span<const Descriptor> all();

const Descriptor& descriptor(Scheme s);

/// The scheme's claimed QoS envelope packaged as auditor options, with the
/// uniform lossy-run adjustments (repairs may exceed the deterministic
/// delay bound; buffers keep gap-backlog slack; completeness is accounted
/// in LossSummary instead of violated).
audit::AuditOptions audit_envelope(const SessionConfig& config,
                                   PacketId window);

}  // namespace streamcast::scheme
