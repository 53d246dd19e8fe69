// TLP: the paper's Two-stage Local Partitioning algorithm (Section III),
// plus the TLP_R ablation variant (Section IV.C).
//
// Partitions are grown one at a time from a random seed. Each step selects
// one frontier vertex and allocates its unassigned edges into the current
// partition. The selection criterion switches between:
//   Stage I  (loose partition): μs1, closeness x degree (Eq. 7)
//   Stage II (tight partition): μs2, modularity gain (Eqs. 9-10)
// TLP switches on modularity M(P_k) <= 1 (Table II / Algorithm 1); TLP_R
// switches on the edge-count ratio |E(P_k)| <= R*C (Table V).
//
// Telemetry (written into RunContext::telemetry(); see docs/API.md):
//   counters  stage1_joins, stage2_joins, stage1_degree_sum,
//             stage2_degree_sum, restarts, spilled_edges, capacity_closes,
//             strict_round_ends, stage_switches (selections whose stage
//             differs from the round's previous selection, both
//             directions); gauges peak_frontier, peak_members
//   series    round_seed, round_joins, round_stage1_joins,
//             round_stage2_joins, round_restarts, round_edges (one entry
//             per round), and round<k>_modularity when
//             TlpOptions::modularity_sample_stride != 0.
#pragma once

#include <cstddef>
#include <string>

#include "partition/partitioner.hpp"

namespace tlp {

/// How the stage boundary is decided.
enum class StageRule {
  kModularity,  ///< TLP: Stage I while M(P_k) <= 1
  kEdgeRatio,   ///< TLP_R: Stage I while |E(P_k)| <= R*C
};

/// What to do when the frontier empties before the partition is full.
enum class EmptyFrontierPolicy {
  /// Reseed a new random vertex into the same partition and keep growing
  /// (default; guarantees every edge lands in one of the p partitions).
  kRestart,
  /// Paper-literal Algorithm 1: end the round. Edges left over after p
  /// rounds are spilled round-robin to the lightest partitions.
  kStrict,
};

struct TlpOptions {
  StageRule stage_rule = StageRule::kModularity;
  /// Stage ratio R for StageRule::kEdgeRatio; ignored for kModularity.
  double stage_ratio = 0.5;
  EmptyFrontierPolicy empty_frontier = EmptyFrontierPolicy::kRestart;
  /// If true (paper-literal "while |E(P_k)| <= C"), joining a vertex may
  /// overshoot C by (its connection count - 1) edges. If false, the round
  /// closes as soon as adding the selected vertex would exceed C.
  bool allow_overshoot = true;
  /// Sample M = E_in/E_out into the round<k>_modularity telemetry series
  /// every this many joins (0 = don't sample); feeds the Table-II stage
  /// dynamics plots.
  std::size_t modularity_sample_stride = 0;
};

class TlpPartitioner : public Partitioner {
 public:
  explicit TlpPartitioner(TlpOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const TlpOptions& options() const { return options_; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;

 private:
  TlpOptions options_;
};

/// Convenience factory for the TLP_R ablation with a given R in [0,1].
[[nodiscard]] TlpPartitioner make_tlp_r(double ratio);

}  // namespace tlp
