// MultiTlpPartitioner: concurrent multi-seed TLP, grown round-robin.
//
// The paper grows partitions strictly one at a time, which systematically
// starves the last rounds (they inherit whatever the earlier rounds left
// behind, and close at a lower M(P_k)). This extension grows all p
// partitions at once, on the calling thread, in cycles: in each cycle every
// open partition k = 0..p-1, in ascending order, takes one step.
//
//   A step selects k's next two-stage join v (or a seed, preferring a
//   vertex no partition has touched yet), claims v's residual edges to
//   members of k through ResidualState::mark_assigned, and updates every
//   partition's e_out for the claimed edges. It then folds the join into
//   every open frontier: k's own frontier gains v's residual neighbours;
//   in any other partition, a candidate that lost a connection is
//   refreshed in full and one that only lost residual degree is re-keyed.
//   Partition k + 1 takes its step on that state.
//
// The commit is immediate, so no claim can be contested. Every partition
// keeps its own modularity state and stage, so the Table-II switching
// logic is unchanged; only the growth schedule differs. Unlike the
// sequential algorithm, a candidate's residual degree and connection
// counts can DECREASE (another partition may claim its edges), so each
// partition's core/frontier.hpp Frontier is re-stated eagerly through
// Frontier::upsert rather than grown through add_connection.
//
// Telemetry follows the TLP schema (see core/tlp.hpp and docs/API.md):
// stage counters, degree sums and stage_switches aggregate across all
// concurrently growing partitions, stage1_intersections counts the one
// shared scorer's intersections, and the round_* series hold one entry per
// partition.
#pragma once

#include <cstddef>
#include <string>

#include "partition/partitioner.hpp"

namespace tlp {

struct MultiTlpOptions {
  /// Capacity overshoot on join, as in TLP (paper-literal loop condition).
  bool allow_overshoot = true;
  /// Has no effect: growth runs on the calling thread. It stays declared
  /// only because existing callers still assign it.
  std::size_t num_threads = 1;
  /// Has no effect: nothing reads it. It stays declared only because
  /// existing callers still assign it.
  bool steal = true;
};

class MultiTlpPartitioner : public Partitioner {
 public:
  explicit MultiTlpPartitioner(MultiTlpOptions options = {})
      : options_(options) {}

  [[nodiscard]] std::string name() const override { return "multi_tlp"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;

 private:
  MultiTlpOptions options_;
};

}  // namespace tlp
