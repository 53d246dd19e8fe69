#include "core/refine_rf.hpp"

#include "refine/move_state.hpp"

namespace tlp {

namespace {

/// Edges between two cancel-token polls inside a sweep (the engine polls
/// every 4096 heap pops for the same reason: a poll may read the clock).
constexpr EdgeId kCancelPollEdges = 4096;

}  // namespace

RefineResult refine_replication(const Graph& g, EdgePartition& partition,
                                const RefineOptions& options,
                                RunContext& ctx) {
  RefineResult result;
  const PartitionId p = partition.num_partitions();
  if (p < 2 || g.num_edges() == 0) return result;

  refine::MoveState state(
      g, partition,
      refine::MoveState::cap_for(g.num_edges(), p, options.balance_slack),
      ctx.arena());

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ctx.check_cancelled();
    std::size_t moves_this_pass = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (e % kCancelPollEdges == kCancelPollEdges - 1) ctx.check_cancelled();
      const PartitionId from = partition.partition_of(e);
      if (from == kNoPartition) continue;
      const Edge& edge = g.edge(e);
      // No replica can be freed -> no move can have positive gain.
      if (state.freed(edge, from) == 0) continue;
      const refine::MoveState::Candidate cand = state.best_key(edge, from);
      if (cand.to == kNoPartition || cand.gain <= 0) continue;
      result.replicas_removed += static_cast<std::size_t>(
          state.apply(e, state.target(edge, from, cand.gain), partition));
      ++moves_this_pass;
    }
    result.moves += moves_this_pass;
    ++result.passes;
    if (moves_this_pass == 0) break;
  }
  return result;
}

RefineResult refine_replication(const Graph& g, EdgePartition& partition,
                                const RefineOptions& options) {
  RunContext ctx;
  return refine_replication(g, partition, options, ctx);
}

RefineResult refine_partition(const Graph& g, EdgePartition& partition,
                              const RefineOptions& options, RunContext& ctx) {
  switch (options.engine) {
    case RefineEngine::kGreedy:
      return refine_replication(g, partition, options, ctx);
    case RefineEngine::kGainHeap:
      return refine::refine_gain(g, partition, options, ctx);
  }
  return {};
}

EdgePartition RefinedPartitioner::do_partition(const Graph& g,
                                               const PartitionConfig& config,
                                               RunContext& ctx) const {
  EdgePartition result = base_->partition(g, config, ctx);
  const RefineResult refined = [&] {
    const auto timer = ctx.telemetry().time("refine_s");
    return refine_partition(g, result, options_, ctx);
  }();
  Telemetry& t = ctx.telemetry();
  t.add("refine_moves", static_cast<double>(refined.moves));
  t.add("refine_replicas_removed",
        static_cast<double>(refined.replicas_removed));
  t.add("refine_passes", static_cast<double>(refined.passes));
  // The net applied gain equals the replicas removed — recorded under its
  // own key so bench scrapes read the gain model's output directly.
  t.add("refine_gain_applied",
        static_cast<double>(refined.replicas_removed));
  t.add("refine_escape_moves", static_cast<double>(refined.escape_moves));
  t.add("refine_rollbacks", static_cast<double>(refined.rollbacks));
  t.add("refine_heap_rebuilds", static_cast<double>(refined.heap_rebuilds));
  t.add("refine_reindexed", static_cast<double>(refined.reindexed));
  t.add("refine_requeued", static_cast<double>(refined.requeued));
  t.add("refine_touches", static_cast<double>(refined.touches));
  t.add("refine_start_rekeyed", static_cast<double>(refined.start_rekeyed));
  t.add_seconds("refine_rebuild_s", refined.rebuild_s);
  t.add_seconds("refine_walk_s", refined.walk_s);
  return result;
}

}  // namespace tlp
