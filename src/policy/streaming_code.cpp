// streamcast: hot-path (lint: hot-path-alloc applies to this file)
#include "src/policy/streaming_code.hpp"

#include <algorithm>
#include <vector>

namespace streamcast::policy {

namespace {

/// Cap on how many skipped ids one transmission may open for forwarding; a
/// dense scheme advances one id per slot per link, so anything near this
/// bound would indicate a mis-flagged strided scheme.
constexpr PacketId kMaxSkipRange = 4096;

}  // namespace

StreamingCodePolicy::StreamingCodePolicy(const RecoveryPolicyOptions& options)
    : RecoveryPolicy(options),
      decode_delay_(std::max<Slot>(1, options.code.decode_delay)),
      max_burst_(std::max<PacketId>(1, options.code.burst)) {
  // BLK needs T >= B: a burst must fit inside its own decode window.
  decode_delay_ = std::max(decode_delay_, static_cast<Slot>(max_burst_));
}

void StreamingCodePolicy::bind(RecoveryHost& host) {
  out_.resize(static_cast<std::size_t>(host.node_count()));
}

std::int32_t StreamingCodePolicy::find_link(NodeKey from, NodeKey to) const {
  for (const auto& [dst, id] : out_[static_cast<std::size_t>(from)]) {
    if (dst == to) return id;
  }
  return -1;
}

StreamingCodePolicy::Link& StreamingCodePolicy::link_for(NodeKey from,
                                                         NodeKey to) {
  auto& out = out_[static_cast<std::size_t>(from)];
  const auto it = std::ranges::lower_bound(
      out, to, {}, &std::pair<NodeKey, std::int32_t>::first);
  if (it != out.end() && it->first == to) {
    return links_[static_cast<std::size_t>(it->second)];
  }
  const auto id = static_cast<std::int32_t>(links_.size());
  out.insert(it, {to, id});
  links_.push_back(Link{.from = from, .to = to});
  return links_.back();
}

void StreamingCodePolicy::record_use(Link& link, const Tx& tx, bool parity) {
  const auto idx = static_cast<UseIndex>(link.uses.size());
  link.uses.push_back(Use{.tx = tx, .parity = parity});
  ++pending_uses_;
  if (parity) {
    parity_at_.push_back(ParityUse{
        .link = static_cast<std::int32_t>(&link - links_.data()),
        .index = idx});
  } else {
    link.credit += static_cast<std::int64_t>(max_burst_);
  }
}

void StreamingCodePolicy::finalize_use(Link& link, UseIndex idx,
                                       UseState state) {
  link.uses[static_cast<std::size_t>(idx)].state = state;
  --pending_uses_;
  const auto size = static_cast<UseIndex>(link.uses.size());
  while (link.first_pending < size &&
         link.uses[static_cast<std::size_t>(link.first_pending)].state !=
             UseState::kPending) {
    ++link.first_pending;
  }
}

void StreamingCodePolicy::on_data_emitted(RecoveryHost& host, Slot /*t*/,
                                          const Tx& tx) {
  Link& link = link_for(tx.from, tx.to);
  if (options().dense_links) detect_skips(host, link, tx);
  record_use(link, tx, /*parity=*/false);
  activate(link);
}

void StreamingCodePolicy::detect_skips(RecoveryHost& host, Link& link,
                                       const Tx& tx) {
  // On a dense link the inner schedule advances one id per emission; a jump
  // means the ids in between were lost upstream before this link ever
  // carried them. Queue them for forwarding once the sender holds them.
  // Every queued id is above last_data, so appending keeps the queue
  // ascending and duplicate-free.
  if (tx.packet > link.last_data + 1) {
    const PacketId lo =
        std::max(link.last_data + 1, tx.packet - kMaxSkipRange);
    for (PacketId g = lo; g < tx.packet; ++g) {
      if (host.has_arrived(tx.to, g)) continue;
      if (host.in_flight(tx.to, g)) continue;
      link.skipped.emplace_back(g, tx.tag);
    }
  }
  link.last_data = std::max(link.last_data, tx.packet);
}

void StreamingCodePolicy::forward_skipped(RecoveryHost& host, Slot t,
                                          Link& link,
                                          // lint: allow(hot-path-alloc)
                                          std::vector<Tx>& out) {
  const NodeKey from = link.from;
  const NodeKey to = link.to;
  // Compacts the queue in place: `kept` entries stay queued, in order.
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i < link.skipped.size(); ++i) {
    const auto [id, tag] = link.skipped[i];
    if (host.has_arrived(to, id) || host.abandoned(to, id)) continue;
    if (host.abandoned(from, id)) {
      // The upstream hop gave this id up: the sender will never hold it,
      // so no data use can ever carry it here. Cascade the abandonment.
      host.abandon_gap(t, to, id);
      continue;
    }
    if (host.in_flight(to, id) || !host.holds(from, id)) {
      link.skipped[kept++] = link.skipped[i];  // still undecided upstream,
      continue;                                // or already on its way
    }
    if (!host.send_available(from) ||
        !host.recv_headroom(t + host.link_latency(from, to) - 1, to)) {
      break;  // out of capacity this slot; the queue carries over
    }
    const Tx fwd{
        .from = from, .to = to, .packet = id, .tag = tag, .retransmit = true};
    record_use(link, fwd, /*parity=*/false);
    out.push_back(fwd);
    ++host.stats().retransmissions;
    host.use_send(from);
    host.note_planned_arrival(t + host.link_latency(from, to) - 1, to);
    host.set_in_flight(to, id, true);
  }
  for (; i < link.skipped.size(); ++i) link.skipped[kept++] = link.skipped[i];
  link.skipped.resize(kept);
}

bool StreamingCodePolicy::emit_parity_use(RecoveryHost& host, Slot t,
                                          Link& link,
                                          // lint: allow(hot-path-alloc)
                                          std::vector<Tx>& out) {
  const NodeKey from = link.from;
  const NodeKey to = link.to;
  if (!host.send_available(from) ||
      !host.recv_headroom(t + host.link_latency(from, to) - 1, to)) {
    return false;  // blocked on capacity; the credit carries over
  }
  const Tx parity{.from = from, .to = to, .packet = next_code_id_++, .tag = -1};
  record_use(link, parity, /*parity=*/true);
  out.push_back(parity);
  host.use_send(from);
  host.note_planned_arrival(t + host.link_latency(from, to) - 1, to);
  ++host.stats().parity_transmissions;
  return true;
}

void StreamingCodePolicy::emit(RecoveryHost& host, Slot t,
                               // lint: allow(hot-path-alloc)
                               std::vector<Tx>& out) {
  // Ascending (from, to): parity ids and residual capacity are handed out
  // in this order. Links that joined since the last pass merge into place.
  if (!joining_.empty()) {
    const auto by_key = [&](std::int32_t a, std::int32_t b) {
      const Link& x = links_[static_cast<std::size_t>(a)];
      const Link& y = links_[static_cast<std::size_t>(b)];
      return std::pair{x.from, x.to} < std::pair{y.from, y.to};
    };
    std::ranges::sort(joining_, by_key);
    const auto mid = static_cast<std::ptrdiff_t>(active_.size());
    active_.insert(active_.end(), joining_.begin(), joining_.end());
    std::inplace_merge(active_.begin(), active_.begin() + mid, active_.end(),
                       by_key);
    joining_.clear();
  }
  std::size_t kept = 0;
  for (const std::int32_t id : active_) {
    Link& link = links_[static_cast<std::size_t>(id)];
    // Relay forwarding: re-inject ids the dense schedule skipped past, as
    // regular parity-protected data uses.
    if (!link.skipped.empty()) forward_skipped(host, t, link, out);
    // Cadence parity: one parity use per T credit (B credit per data use),
    // i.e. the code's B:T parity:data ratio.
    while (link.credit >= static_cast<std::int64_t>(decode_delay_)) {
      if (!emit_parity_use(host, t, link, out)) break;
      link.credit -= static_cast<std::int64_t>(decode_delay_);
    }
    // Window flush: an undecided erasure at index i needs the link's index
    // stream to reach i + T before its fate is known. Once the data
    // schedule goes quiet (end of stream, drain), keep the stream moving
    // with extra parity uses until every open window is full.
    if (window_open(link)) emit_parity_use(host, t, link, out);
    if (owes_emit(link)) {
      active_[kept++] = id;
    } else {
      link.active = false;
    }
  }
  active_.resize(kept);
}

bool StreamingCodePolicy::window_open(const Link& link) const {
  return !link.open.empty() && static_cast<UseIndex>(link.uses.size()) <=
                                   link.open.back() + decode_delay_;
}

bool StreamingCodePolicy::owes_emit(const Link& link) const {
  return !link.skipped.empty() ||
         link.credit >= static_cast<std::int64_t>(decode_delay_) ||
         window_open(link);
}

void StreamingCodePolicy::activate(Link& link) {
  if (link.active) return;
  link.active = true;
  joining_.push_back(static_cast<std::int32_t>(&link - links_.data()));
}

std::pair<StreamingCodePolicy::UseIndex, StreamingCodePolicy::UseIndex>
StreamingCodePolicy::erasure_run(const Link& link, UseIndex idx) const {
  const auto erased = [&](UseIndex k) {
    return k >= 0 && k < static_cast<UseIndex>(link.uses.size()) &&
           link.uses[static_cast<std::size_t>(k)].state == UseState::kErased;
  };
  UseIndex s = idx;
  while (erased(s - 1)) --s;
  UseIndex e = idx;
  while (erased(e + 1)) ++e;
  return {s, e};
}

void StreamingCodePolicy::finalize_data_use(RecoveryHost& host, Slot t,
                                            const Tx& tx, UseState state) {
  const std::int32_t id = find_link(tx.from, tx.to);
  if (id < 0) return;
  Link& link = links_[static_cast<std::size_t>(id)];
  // The pending data use of this packet: at most one per packet at a time
  // (the host's in-flight suppression), and uses finalize close to index
  // order, so the scan from the first pending use is short.
  const auto size = static_cast<UseIndex>(link.uses.size());
  UseIndex idx = link.first_pending;
  for (; idx < size; ++idx) {
    const Use& use = link.uses[static_cast<std::size_t>(idx)];
    if (use.state == UseState::kPending && !use.parity &&
        use.tx.packet == tx.packet) {
      break;
    }
  }
  if (idx == size) return;
  finalize_use(link, idx, state);
  if (state == UseState::kErased) {
    link.open.insert(std::ranges::lower_bound(link.open, idx), idx);
    ++undecided_;
    activate(link);
    const auto [s, e] = erasure_run(link, idx);
    host.stats().max_erasure_run =
        std::max(host.stats().max_erasure_run, e - s + 1);
  } else {
    // A later transmission of the same packet got through: any open erased
    // use of it on this link is naturally repaired and needs no decode.
    std::erase_if(link.open, [&](UseIndex k) {
      Use& prior = link.uses[static_cast<std::size_t>(k)];
      if (prior.decided || prior.tx.packet != tx.packet) return false;
      prior.decided = true;
      --undecided_;
      return true;
    });
  }
  settle(host, t, link);
}

void StreamingCodePolicy::on_data_arrival(RecoveryHost& host, Slot t,
                                          const Tx& tx) {
  finalize_data_use(host, t, tx, UseState::kArrived);
}

void StreamingCodePolicy::on_data_drop(RecoveryHost& host,
                                       const sim::Drop& d) {
  finalize_data_use(host, d.would_arrive, d.tx, UseState::kErased);
}

void StreamingCodePolicy::finalize_parity_use(RecoveryHost& host, Slot t,
                                              PacketId id, UseState state) {
  const PacketId slot = id - sim::kControlIdBase;
  if (slot < 0 || slot >= static_cast<PacketId>(parity_at_.size())) return;
  ParityUse& at = parity_at_[static_cast<std::size_t>(slot)];
  if (at.link < 0) return;
  Link& link = links_[static_cast<std::size_t>(at.link)];
  const UseIndex idx = at.index;
  at.link = -1;
  finalize_use(link, idx, state);
  if (state == UseState::kErased) {
    // An erased parity use carries no stream gap of its own, but it extends
    // the channel's erasure run and can collide with an open decode window.
    link.uses[static_cast<std::size_t>(idx)].decided = true;
    const auto [s, e] = erasure_run(link, idx);
    host.stats().max_erasure_run =
        std::max(host.stats().max_erasure_run, e - s + 1);
  }
  settle(host, t, link);
}

void StreamingCodePolicy::on_control_arrival(RecoveryHost& host, Slot t,
                                             const Tx& tx) {
  finalize_parity_use(host, t, tx.packet, UseState::kArrived);
}

void StreamingCodePolicy::on_control_drop(RecoveryHost& host,
                                          const sim::Drop& d) {
  finalize_parity_use(host, d.would_arrive, d.tx.packet, UseState::kErased);
}

void StreamingCodePolicy::decide(Link& link, UseIndex idx) {
  Use& use = link.uses[static_cast<std::size_t>(idx)];
  if (use.decided) return;
  use.decided = true;
  if (!use.parity) {
    const auto it = std::ranges::lower_bound(link.open, idx);
    if (it != link.open.end() && *it == idx) {
      link.open.erase(it);
      --undecided_;
    }
  }
}

void StreamingCodePolicy::settle(RecoveryHost& host, Slot t, Link& link) {
  open_scratch_.assign(link.open.begin(), link.open.end());
  for (const UseIndex idx : open_scratch_) {
    // Still open iff undecided: an earlier run of this pass may have
    // decided it.
    if (link.uses[static_cast<std::size_t>(idx)].decided) continue;
    // The maximal erasure run [s, e] containing idx. Channel uses finalize
    // in index order per link, so everything inside is final.
    const auto [s, e] = erasure_run(link, idx);

    const auto declare_unrecoverable = [&](UseIndex lo, UseIndex hi) {
      for (UseIndex j = lo; j <= hi; ++j) {
        Use& use = link.uses[static_cast<std::size_t>(j)];
        if (use.state != UseState::kErased || use.decided) continue;
        if (!use.parity) {
          ++host.stats().unrecoverable;
          if (!host.has_arrived(use.tx.to, use.tx.packet)) {
            host.abandon_gap(t, use.tx.to, use.tx.packet);
          }
        }
        decide(link, j);
      }
    };

    if (e - s + 1 > static_cast<UseIndex>(max_burst_)) {
      // Burst longer than B: beyond the code's correction capability.
      declare_unrecoverable(s, e);
      continue;
    }

    // Decode window for position idx: every channel use in (e, idx + T]
    // must have arrived. A second erasure inside it is a guard-space
    // collision; a pending or not-yet-emitted use leaves the decision open.
    bool wait = false;
    bool collision = false;
    const auto size = static_cast<UseIndex>(link.uses.size());
    for (UseIndex k = e + 1; k <= idx + static_cast<UseIndex>(decode_delay_);
         ++k) {
      const UseState state =
          k < size ? link.uses[static_cast<std::size_t>(k)].state
                   : UseState::kPending;
      if (state == UseState::kPending) {
        wait = true;
        break;
      }
      if (state == UseState::kErased) {
        collision = true;
        break;
      }
    }
    if (collision) {
      ++host.stats().guard_collisions;
      declare_unrecoverable(s, e);
      continue;
    }
    if (wait) continue;

    // All of (e, idx + T] arrived: the BLK code recovers position idx.
    const Use& use = link.uses[static_cast<std::size_t>(idx)];
    if (!host.has_arrived(use.tx.to, use.tx.packet)) {
      ++host.stats().fec_decodes;
      host.ingest_decoded(t, use.tx);
    }
    decide(link, idx);
  }
}

}  // namespace streamcast::policy
