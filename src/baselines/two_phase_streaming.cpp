#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "baselines/baselines.hpp"

namespace tlp::baselines {
namespace {

/// Phase-1 streaming clustering state (union-by-relabel with volume caps).
struct Clustering {
  ScratchArena::Lease<VertexId> cluster;  // per vertex
  ScratchArena::Lease<EdgeId> volume;     // per cluster: sum of member degrees
  Clustering(const Graph& g, ScratchArena& arena)
      : cluster(arena.acquire<VertexId>(g.num_vertices())),
        volume(arena.acquire<EdgeId>(g.num_vertices(), 0)) {
    std::iota(cluster->begin(), cluster->end(), VertexId{0});
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      volume[v] = static_cast<EdgeId>(g.degree(v));
    }
  }
};

}  // namespace

EdgePartition TwoPhaseStreamingPartitioner::do_partition(
    const Graph& g, const PartitionConfig& config, RunContext& ctx) const {
  const PartitionId p = config.num_partitions;
  EdgePartition result(p, g.num_edges());
  if (g.num_edges() == 0) return result;
  ScratchArena& arena = ctx.arena();
  Telemetry& t = ctx.telemetry();

  auto order = arena.acquire<EdgeId>(static_cast<std::size_t>(g.num_edges()));
  std::iota(order->begin(), order->end(), EdgeId{0});
  std::mt19937_64 rng(config.seed);
  std::shuffle(order->begin(), order->end(), rng);

  // ---- Phase 1: streaming clustering ------------------------------------
  // Volume cap ~ 2m/p keeps every cluster assignable to one partition.
  auto cluster_timer = t.time("cluster_s");
  const EdgeId volume_cap =
      std::max<EdgeId>(2, 2 * g.num_edges() / std::max<PartitionId>(p, 1));
  Clustering clusters(g, arena);
  for (const EdgeId e : *order) {
    const Edge& edge = g.edge(e);
    const VertexId cu = clusters.cluster[edge.u];
    const VertexId cv = clusters.cluster[edge.v];
    if (cu == cv) continue;
    // Move the endpoint in the lower-volume cluster into the other cluster
    // when the target has room (the 2PS merge rule, vertex-granular).
    const bool move_u = clusters.volume[cu] <= clusters.volume[cv];
    const VertexId vertex = move_u ? edge.u : edge.v;
    const VertexId from = move_u ? cu : cv;
    const VertexId to = move_u ? cv : cu;
    const auto degree = static_cast<EdgeId>(g.degree(vertex));
    if (clusters.volume[to] + degree > volume_cap) continue;
    clusters.cluster[vertex] = to;
    clusters.volume[from] -= degree;
    clusters.volume[to] += degree;
  }

  // ---- Pack clusters onto partitions (largest-first bin packing) --------
  std::vector<VertexId> cluster_ids;
  for (VertexId c = 0; c < clusters.volume->size(); ++c) {
    if (clusters.volume[c] > 0) cluster_ids.push_back(c);
  }
  std::sort(cluster_ids.begin(), cluster_ids.end(),
            [&](VertexId a, VertexId b) {
              if (clusters.volume[a] != clusters.volume[b]) {
                return clusters.volume[a] > clusters.volume[b];
              }
              return a < b;
            });
  auto cluster_partition =
      arena.acquire<PartitionId>(clusters.volume->size(), 0);
  auto packed = arena.acquire<EdgeId>(p, 0);
  for (const VertexId c : cluster_ids) {
    const auto lightest = static_cast<PartitionId>(std::distance(
        packed->begin(), std::min_element(packed->begin(), packed->end())));
    cluster_partition[c] = lightest;
    packed[lightest] += clusters.volume[c];
  }
  cluster_timer.stop();

  // ---- Phase 2: cluster-aware edge assignment ----------------------------
  auto assign_timer = t.time("assign_s");
  auto load = arena.acquire<EdgeId>(p, 0);
  const EdgeId cap = config.capacity(g.num_edges()) +
                     config.capacity(g.num_edges()) / 10 + 1;
  std::size_t intra_cluster = 0;
  for (const EdgeId e : *order) {
    const Edge& edge = g.edge(e);
    const PartitionId pu = cluster_partition[clusters.cluster[edge.u]];
    const PartitionId pv = cluster_partition[clusters.cluster[edge.v]];
    PartitionId target;
    if (pu == pv && load[pu] < cap) {
      target = pu;  // intra-cluster (or co-located clusters): keep together
      ++intra_cluster;
    } else {
      // Cross-cluster: prefer the endpoint partition with room and lighter
      // load; fall back to globally lightest.
      const bool u_ok = load[pu] < cap;
      const bool v_ok = load[pv] < cap;
      if (u_ok && (!v_ok || load[pu] <= load[pv])) {
        target = pu;
      } else if (v_ok) {
        target = pv;
      } else {
        target = static_cast<PartitionId>(std::distance(
            load->begin(), std::min_element(load->begin(), load->end())));
      }
    }
    result.assign(e, target);
    ++load[target];
  }
  assign_timer.stop();

  t.add("edges_assigned", static_cast<double>(g.num_edges()));
  t.add("clusters_formed", static_cast<double>(cluster_ids.size()));
  t.add("intra_cluster_edges", static_cast<double>(intra_cluster));
  return result;
}

}  // namespace tlp::baselines
