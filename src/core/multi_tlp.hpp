// MultiTlpPartitioner: concurrent multi-seed TLP, grown in parallel
// super-steps.
//
// The paper grows partitions strictly one at a time, which systematically
// starves the last rounds (they inherit whatever the earlier rounds left
// behind). This extension — in the spirit of the paper's "partition the
// graph data in parallel" future work — grows all p partitions at once in
// bulk-synchronous super-steps:
//
//   A. propose+claim (parallel): each worker owns the partitions k with
//      k % W == w. For every open partition it selects the next two-stage
//      join from the frozen pre-step state and claims the join's residual
//      edges through ResidualState::try_claim (an atomic fetch_or on the
//      packed assigned bitmap).
//   B. commit (serial): duplicate seeds are deduped (lowest partition id
//      keeps the seed), contested edges are resolved lowest-partition-id-
//      wins, and the step's edge events are committed: EdgePartition
//      assignment, residual-degree decrements, memberships, and all
//      e_in/e_out accounting, in partition-id order.
//   C. frontier update (parallel): every worker folds the step's committed
//      events into its partitions' frontiers (full refreshes for candidates
//      that lost connections, rekeys for residual-degree changes, and
//      incremental inserts for the partition's own join).
//
// All algorithmic state is sharded per PARTITION, never per worker, and
// every cross-partition decision is taken serially at the barrier, so the
// result is bit-identical for every worker count (including the inline
// 1-thread path) — only wall-clock time changes with `num_threads`.
//
// Both parallel phases use the same static schedule: worker k % W runs
// partition k, in ascending k (docs/THREADING.md).
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
// seed_collisions / threads. Worker-side phase timers accumulate in
// per-worker child RunContexts and merge into the parent at the end of the
// run. The scheduler instruments itself: a per-super-step worker_busy
// series (W entries per step when W > 1) and an imbalance gauge (max/mean
// whole-run worker busy time) — these are wall-clock/schedule-dependent
// and are the ONLY keys besides `threads` allowed to vary across worker
// counts.
#pragma once

#include <cstddef>
#include <string>

#include "partition/partitioner.hpp"

namespace tlp {

struct MultiTlpOptions {
  /// Capacity overshoot on join, as in TLP (paper-literal loop condition).
  bool allow_overshoot = true;
  /// Worker threads for the super-step phases. 1 (default) runs inline on
  /// the calling thread without a pool; 0 means hardware_concurrency. The
  /// partition result is bit-identical for every value; the count is capped
  /// at num_partitions.
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
