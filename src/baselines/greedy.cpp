#include <algorithm>
#include <numeric>
#include <random>

#include "baselines/baselines.hpp"
#include "partition/replica_set.hpp"

namespace tlp::baselines {

EdgePartition GreedyPartitioner::do_partition(const Graph& g,
                                              const PartitionConfig& config,
                                              RunContext& ctx) const {
  const PartitionId p = config.num_partitions;
  EdgePartition result(p, g.num_edges());
  ScratchArena& arena = ctx.arena();
  ReplicaSetPool replicas(arena, g.num_vertices(), p);
  auto load = arena.acquire<EdgeId>(p, 0);
  auto remaining = arena.acquire<std::size_t>(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) remaining[v] = g.degree(v);

  // Stream edges in a seeded random order (PowerGraph streams in arrival
  // order; a seeded shuffle removes dependence on file ordering).
  auto order = arena.acquire<EdgeId>(static_cast<std::size_t>(g.num_edges()));
  std::iota(order->begin(), order->end(), EdgeId{0});
  if (mode_ == StreamMode::kSeededShuffle) {
    std::mt19937_64 rng(config.seed);
    std::shuffle(order->begin(), order->end(), rng);
  }

  // Least-loaded partition within a candidate mask test.
  const auto least_loaded = [&](auto&& allowed) {
    PartitionId best = kNoPartition;
    for (PartitionId k = 0; k < p; ++k) {
      if (allowed(k) && (best == kNoPartition || load[k] < load[best])) {
        best = k;
      }
    }
    return best;
  };

  // The four PowerGraph placement cases, tallied for telemetry.
  std::size_t case_shared = 0;
  std::size_t case_disjoint = 0;
  std::size_t case_single = 0;
  std::size_t case_fresh = 0;

  std::size_t streamed = 0;
  for (const EdgeId e : *order) {
    if (++streamed % kCancelPollEdges == 0) ctx.check_cancelled();
    const Edge& edge = g.edge(e);
    const bool u_placed = !replicas.empty(edge.u);
    const bool v_placed = !replicas.empty(edge.v);
    PartitionId target;
    if (replicas.intersects(edge.u, edge.v)) {
      // Case 1: shared partition exists; pick the least loaded of them.
      target = least_loaded([&](PartitionId k) {
        return replicas.contains(edge.u, k) && replicas.contains(edge.v, k);
      });
      ++case_shared;
    } else if (u_placed && v_placed) {
      // Case 2: both placed, disjoint; replicate the endpoint with fewer
      // remaining edges into a partition of the other (more-remaining)
      // endpoint (PowerGraph rule).
      const VertexId anchor =
          remaining[edge.u] >= remaining[edge.v] ? edge.u : edge.v;
      target = least_loaded(
          [&](PartitionId k) { return replicas.contains(anchor, k); });
      ++case_disjoint;
    } else if (u_placed || v_placed) {
      // Case 3: only one endpoint placed; join it.
      const VertexId anchor = u_placed ? edge.u : edge.v;
      target = least_loaded(
          [&](PartitionId k) { return replicas.contains(anchor, k); });
      ++case_single;
    } else {
      // Case 4: fresh edge; least-loaded partition overall.
      target = least_loaded([](PartitionId) { return true; });
      ++case_fresh;
    }
    result.assign(e, target);
    replicas.insert(edge.u, target);
    replicas.insert(edge.v, target);
    ++load[target];
    --remaining[edge.u];
    --remaining[edge.v];
  }

  Telemetry& t = ctx.telemetry();
  t.add("edges_assigned", static_cast<double>(g.num_edges()));
  t.add("case_shared", static_cast<double>(case_shared));
  t.add("case_disjoint", static_cast<double>(case_disjoint));
  t.add("case_single", static_cast<double>(case_single));
  t.add("case_fresh", static_cast<double>(case_fresh));
  return result;
}

}  // namespace tlp::baselines
