// Baseline edge partitioners the paper compares against (Section IV.B),
// plus the canonical streaming edge partitioners from the related work
// (Greedy/PowerGraph, HDRF, NE) as extensions.
//
// All baselines implement the RunContext-based Partitioner interface: the
// base class records the shared "runs" counter and "total_s" timer; each
// algorithm additionally writes the cheap per-algorithm counters documented
// on its class (docs/API.md lists the full telemetry schema).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "partition/partitioner.hpp"

namespace tlp::baselines {

/// Edges a streaming partitioner (greedy, hdrf) places between two polls
/// of the run's cancel token and deadline.
inline constexpr std::size_t kCancelPollEdges = 4096;

/// How streaming partitioners traverse the edge set.
enum class StreamMode {
  kSeededShuffle,  ///< default: seeded random arrival order
  kNaturalOrder,   ///< stream edges in EdgeId order (caller controls order
                   ///< by constructing the graph with that edge order)
};

/// Random: every edge hashed uniformly onto [0, p). The paper's quality
/// floor (Gonzalez et al., PowerGraph). Counters: edges_assigned.
class RandomPartitioner : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;
};

/// DBH — Degree-Based Hashing (Xie et al., NIPS 2014): each edge is hashed
/// by its lower-degree endpoint, so high-degree vertices absorb the
/// replication (optimal for power-law graphs among hashing schemes).
/// Counters: edges_assigned.
class DbhPartitioner : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "dbh"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;
};

/// Grid (2D) constrained hashing: partitions arranged in a sqrt(p) x
/// sqrt(p) grid; edge (u,v) lands in the intersection of u's row and v's
/// column, bounding each vertex's replicas by 2*sqrt(p)-1.
/// Counters: edges_assigned, grid_rows, grid_cols.
class GridPartitioner : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "grid"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;
};

/// Greedy (PowerGraph, Gonzalez et al. OSDI 2012): streaming; place each
/// edge in the partition already holding both endpoints, else one endpoint
/// (breaking ties toward the lighter partition), else the lightest.
/// Counters: edges_assigned, case_shared, case_disjoint, case_single,
/// case_fresh (the four PowerGraph placement rules).
class GreedyPartitioner : public Partitioner {
 public:
  explicit GreedyPartitioner(StreamMode mode = StreamMode::kSeededShuffle)
      : mode_(mode) {}
  [[nodiscard]] std::string name() const override { return "greedy"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;

 private:
  StreamMode mode_;
};

/// HDRF (Petroni et al., CIKM 2015): greedy streaming that prefers
/// replicating the higher-degree endpoint, with an explicit balance term.
/// Counters: edges_assigned.
class HdrfPartitioner : public Partitioner {
 public:
  /// lambda > 0 weighs the balance term (paper default 1.0).
  explicit HdrfPartitioner(double lambda = 1.0,
                           StreamMode mode = StreamMode::kSeededShuffle)
      : lambda_(lambda), mode_(mode) {}
  [[nodiscard]] std::string name() const override { return "hdrf"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;

 private:
  double lambda_;
  StreamMode mode_;
};

/// LDG (Stanton & Kliot, KDD 2012): streaming *vertex* partitioner — each
/// vertex goes to the partition with the most already-placed neighbors,
/// scaled by a linear capacity penalty. Edges are then derived from the
/// vertex parts (see vertex_to_edge.hpp), matching how vertex partitioners
/// are evaluated under the edge-partitioning RF metric.
/// Counters: vertices_placed, edges_assigned.
class LdgPartitioner : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "ldg"; }

  /// The underlying vertex assignment (exposed for tests/benches).
  [[nodiscard]] std::vector<PartitionId> vertex_partition(
      const Graph& g, const PartitionConfig& config) const;

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;
};

/// FENNEL (Tsourakakis et al., WSDM 2014): streaming vertex partitioner
/// with an interpolated objective — place v in argmax
/// |N(v) ∩ P_k| - alpha * gamma * |P_k|^(gamma-1). Edges derived like LDG.
/// Counters: vertices_placed, edges_assigned.
class FennelPartitioner : public Partitioner {
 public:
  /// gamma = 1.5 and load-derived alpha are the paper's defaults.
  explicit FennelPartitioner(double gamma = 1.5) : gamma_(gamma) {}
  [[nodiscard]] std::string name() const override { return "fennel"; }

  [[nodiscard]] std::vector<PartitionId> vertex_partition(
      const Graph& g, const PartitionConfig& config) const;

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;

 private:
  double gamma_;
};

/// 2PS — Two-Phase Streaming (Mayer et al. 2022, simplified): phase 1
/// streams the edges once through a volume-capped streaming clustering
/// (merge endpoints' clusters when capacity allows); phase 2 packs clusters
/// onto partitions by volume and streams edges again, keeping intra-cluster
/// edges on their cluster's partition and splitting cross-cluster edges
/// HDRF-style. The modern streaming counterpart of TLP's locality idea.
/// Counters: edges_assigned, clusters_formed, intra_cluster_edges; timers
/// cluster_s, assign_s.
class TwoPhaseStreamingPartitioner : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "2ps"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;
};

/// NE — Neighborhood Expansion (Zhang et al., KDD 2017), the paper's
/// closest offline rival: grows each partition by repeatedly moving the
/// boundary vertex with the fewest external neighbors into the core and
/// claiming its incident edges.
/// Counters: edges_assigned, ne_joins, ne_reseeds.
class NePartitioner : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "ne"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;
};

}  // namespace tlp::baselines
