// MultiTlpPartitioner: concurrent multi-seed TLP, grown in lock-step
// super-steps.
//
// The paper grows partitions strictly one at a time, which systematically
// starves the last rounds (they inherit whatever the earlier rounds left
// behind). This extension grows all p partitions at once in
// bulk-synchronous super-steps, on the calling thread:
//
//   A. propose+claim: for every open partition k, in ascending k, select
//      the next two-stage join from the pre-step state and claim the
//      join's residual edges through ResidualState::try_claim (a
//      test-and-set on the packed assigned bitmap).
//   B. commit: duplicate seeds are deduped (lowest partition id keeps the
//      seed), contested edges are resolved lowest-partition-id-wins, and
//      the step's edge events are committed: EdgePartition assignment,
//      residual-degree decrements, memberships, and all e_in/e_out
//      accounting, in partition-id order.
//   C. frontier update: every partition folds the step's committed events
//      into its frontier (full refreshes for candidates that lost
//      connections, rekeys for residual-degree changes, and incremental
//      inserts for the partition's own join).
//
// Every partition keeps its own modularity state and stage, so the
// Table-II switching logic is unchanged; only the growth schedule differs.
// Unlike the sequential algorithm, a candidate's residual degree and
// connection counts can DECREASE (another partition may claim its edges),
// so each partition's core/frontier.hpp Frontier is re-stated eagerly
// through Frontier::upsert rather than grown through add_connection.
//
// Telemetry follows the TLP schema (see core/tlp.hpp and docs/API.md):
// stage counters/degree sums aggregate across all concurrently growing
// partitions, the round_* series hold one entry per partition, and the
// super-step machinery adds super_steps / claim_conflicts / stale_claims /
// seed_collisions counters plus worker_propose / worker_update phase
// timers (phases A and C).
#pragma once

#include <cstddef>
#include <string>

#include "partition/partitioner.hpp"

namespace tlp {

struct MultiTlpOptions {
  /// Capacity overshoot on join, as in TLP (paper-literal loop condition).
  bool allow_overshoot = true;
  /// Has no effect: every super-step phase runs on the calling thread.
  /// It stays declared only because existing callers still assign it.
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
