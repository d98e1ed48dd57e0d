// Network model: who can talk to whom, how fast, and with what per-slot
// capacity. The paper's model (§1-2) is a complete graph per cluster with
// unit intra-cluster latency, latency T_c across clusters, and per-node
// send/receive capacities of one packet per slot except for super nodes.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/packet.hpp"

namespace streamcast::net {

using sim::NodeKey;
using sim::Slot;

/// Abstract capacity/latency oracle consulted by the slot engine.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Total number of node keys, source(s) included. Valid keys: [0, size()).
  virtual NodeKey size() const = 0;

  /// The node that originates the stream: key 0 in every topology.
  NodeKey source() const { return 0; }

  /// Slots a transmission occupies, >= 1. (1 means same-slot receipt.)
  virtual Slot latency(NodeKey from, NodeKey to) const = 0;

  /// Packets the node may originate per slot.
  virtual int send_capacity(NodeKey n) const = 0;

  /// Packets the node may receive per slot.
  virtual int recv_capacity(NodeKey n) const = 0;
};

/// Single cluster: key 0 is the source S (capacity `source_capacity`, the
/// paper's d), keys 1..n are homogeneous receivers with capacity
/// `peer_send_capacity` up / `recv_capacity` down (both default 1, the
/// paper's model), all pairwise latencies are T_i (default 1). The relaxed
/// capacities model the randomized-overlay regime (Kim–Srikant: in-degree d,
/// upload a constant factor above the stream rate — their theorems provision
/// rate (1-eps) against unit capacity; at the rate-1 boundary a swarm has
/// zero slack for an unlucky sender with nothing useful to offer, so the
/// random-regular scheme runs receivers at upload 2).
class UniformCluster final : public Topology {
 public:
  UniformCluster(NodeKey n_receivers, int source_capacity, Slot t_i = 1,
                 int recv_capacity = 1, int peer_send_capacity = 1);

  NodeKey size() const override { return n_receivers_ + 1; }
  Slot latency(NodeKey from, NodeKey to) const override;
  int send_capacity(NodeKey n) const override;
  int recv_capacity(NodeKey n) const override;

  NodeKey receivers() const { return n_receivers_; }
  int source_capacity() const { return source_capacity_; }

 private:
  NodeKey n_receivers_;
  int source_capacity_;
  Slot t_i_;
  int recv_capacity_;
  int peer_send_capacity_;
};

/// Multi-cluster world for the super-tree scheme (§2.1).
///
/// Key layout (constructed by ClusteredTopology itself):
///   0                     — global source S (capacity D)
///   then per cluster i:   S_i (capacity D), S'_i (capacity d),
///                         followed by the cluster's n_i plain receivers.
/// Latency is t_i within a cluster (the global source belongs to cluster 0 by
/// convention, matching the paper's figure where S sits beside S_1) and t_c
/// between clusters.
class ClusteredTopology final : public Topology {
 public:
  struct ClusterSpec {
    NodeKey n_receivers = 0;
  };

  ClusteredTopology(std::vector<ClusterSpec> clusters, int big_d, int small_d,
                    Slot t_c, Slot t_i = 1);

  NodeKey size() const override { return total_; }
  Slot latency(NodeKey from, NodeKey to) const override;
  int send_capacity(NodeKey n) const override;
  int recv_capacity(NodeKey n) const override;

  int clusters() const { return static_cast<int>(specs_.size()); }
  NodeKey super_node(int cluster) const;        // S_i
  NodeKey local_root(int cluster) const;        // S'_i
  NodeKey receiver(int cluster, NodeKey local_id) const;  // local_id in 1..n_i
  NodeKey cluster_receivers(int cluster) const;
  int cluster_of(NodeKey n) const;
  Slot t_c() const { return t_c_; }
  Slot t_i() const { return t_i_; }
  int big_d() const { return big_d_; }
  int small_d() const { return small_d_; }

 private:
  std::vector<ClusterSpec> specs_;
  std::vector<NodeKey> cluster_base_;  // key of S_i for each cluster
  std::vector<int> owner_;             // cluster index per key
  NodeKey total_ = 0;
  int big_d_;
  int small_d_;
  Slot t_c_;
  Slot t_i_;
};

/// Capacity-headroom decorator for lossy runs. The paper's schedules consume
/// every node's capacity exactly, so an erasure channel leaves zero slack for
/// repair traffic: a stream at rate 1 into a receive capacity of 1 can never
/// also carry retransmissions or parity. ProvisionedTopology grants each node
/// `extra_send` / `extra_recv` additional packets per slot on top of the base
/// topology — the provisioning cost of surviving loss, reported alongside the
/// delay and buffer costs by the loss benches. Latencies are unchanged, and a
/// lossless run never uses the headroom, so results at loss rate 0 are
/// bit-identical to the base topology.
class ProvisionedTopology final : public Topology {
 public:
  ProvisionedTopology(const Topology& base, int extra_send, int extra_recv);

  NodeKey size() const override { return base_.size(); }
  Slot latency(NodeKey from, NodeKey to) const override {
    return base_.latency(from, to);
  }
  int send_capacity(NodeKey n) const override {
    return base_.send_capacity(n) + extra_send_;
  }
  int recv_capacity(NodeKey n) const override {
    const int cap = base_.recv_capacity(n);
    // Nodes that cannot receive at all (sources) stay that way: repair
    // traffic must never flow "up" into the stream origin.
    return cap == 0 ? 0 : cap + extra_recv_;
  }

  const Topology& base() const { return base_; }

 private:
  const Topology& base_;
  int extra_send_;
  int extra_recv_;
};

}  // namespace streamcast::net
