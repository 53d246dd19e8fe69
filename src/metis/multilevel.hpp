// MetisPartitioner: from-scratch multilevel k-way vertex partitioner in the
// style of METIS (Karypis & Kumar 1998): HEM coarsening, GGGP+FM initial
// partitioning via recursive bisection, greedy k-way uncoarsening
// refinement. The vertex partition is converted to an edge partition the
// standard way (each edge to one endpoint's part) for RF evaluation.
#pragma once

#include <string>
#include <vector>

#include "partition/partitioner.hpp"

namespace tlp::metis {

struct MetisOptions {
  /// Allowed vertex-weight imbalance per part (METIS default ~1.03).
  double imbalance = 1.03;
  /// Stop coarsening below this many vertices (scaled by 4*k if larger).
  VertexId coarsen_until = 128;
  /// Stop coarsening when a step shrinks the graph by less than this factor.
  double min_shrink = 0.95;
  /// Refinement passes per uncoarsening level.
  int refine_passes = 8;
};

class MetisPartitioner : public Partitioner {
 public:
  explicit MetisPartitioner(MetisOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "metis"; }

  /// The underlying multilevel vertex partition (exposed for tests and
  /// edge-cut benches). With a context, records per-phase timers
  /// (coarsen_s, initial_s, refine_s) and the coarsen_levels counter, and
  /// polls its cancel token once per coarsening level and once per
  /// refinement pass (throws RunCancelled).
  [[nodiscard]] std::vector<PartitionId> vertex_partition(
      const Graph& g, const PartitionConfig& config,
      RunContext* ctx = nullptr) const;

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;

 private:
  MetisOptions options_;
};

}  // namespace tlp::metis
