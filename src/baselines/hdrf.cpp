#include <algorithm>
#include <numeric>
#include <random>

#include "baselines/baselines.hpp"
#include "partition/replica_set.hpp"

namespace tlp::baselines {

EdgePartition HdrfPartitioner::do_partition(const Graph& g,
                                            const PartitionConfig& config,
                                            RunContext& ctx) const {
  const PartitionId p = config.num_partitions;
  EdgePartition result(p, g.num_edges());
  ScratchArena& arena = ctx.arena();
  ReplicaSetPool replicas(arena, g.num_vertices(), p);
  auto load = arena.acquire<EdgeId>(p, 0);

  auto order = arena.acquire<EdgeId>(static_cast<std::size_t>(g.num_edges()));
  std::iota(order->begin(), order->end(), EdgeId{0});
  if (mode_ == StreamMode::kSeededShuffle) {
    std::mt19937_64 rng(config.seed);
    std::shuffle(order->begin(), order->end(), rng);
  }

  constexpr double kEps = 1e-9;
  std::size_t streamed = 0;
  for (const EdgeId e : *order) {
    if (++streamed % kCancelPollEdges == 0) ctx.check_cancelled();
    const Edge& edge = g.edge(e);
    // Partial degrees as in the HDRF paper; using final degrees (available
    // here since the whole graph is known) is the common offline variant.
    const auto du = static_cast<double>(g.degree(edge.u));
    const auto dv = static_cast<double>(g.degree(edge.v));
    const double theta_u = du / std::max(du + dv, 1.0);
    const double theta_v = 1.0 - theta_u;

    const EdgeId max_load = *std::max_element(load->begin(), load->end());
    const EdgeId min_load = *std::min_element(load->begin(), load->end());

    PartitionId best = 0;
    double best_score = -1.0;
    for (PartitionId k = 0; k < p; ++k) {
      // Replication score: reward partitions already holding an endpoint,
      // preferring to replicate the higher-degree endpoint elsewhere
      // ("highest degree replicated first").
      double c_rep = 0.0;
      if (replicas.contains(edge.u, k)) c_rep += 1.0 + (1.0 - theta_u);
      if (replicas.contains(edge.v, k)) c_rep += 1.0 + (1.0 - theta_v);
      const double c_bal =
          static_cast<double>(max_load - load[k]) /
          (kEps + static_cast<double>(max_load - min_load));
      const double score = c_rep + lambda_ * c_bal;
      if (score > best_score) {
        best_score = score;
        best = k;
      }
    }
    result.assign(e, best);
    replicas.insert(edge.u, best);
    replicas.insert(edge.v, best);
    ++load[best];
  }
  ctx.telemetry().add("edges_assigned", static_cast<double>(g.num_edges()));
  return result;
}

}  // namespace tlp::baselines
