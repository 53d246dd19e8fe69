#include "partition/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace tlp {
namespace {

/// Visits each (vertex, partition) incidence pair exactly once. A p-entry
/// "last vertex seen" table dedups the pairs: vertices are visited in
/// order, so last_seen[k] == v iff v already reported partition k. Ids
/// outside [0, p) (hand-built invalid partitions, which the validator
/// reports) are skipped, as EdgePartition::edge_counts skips them.
template <typename Fn>
void for_each_vertex_partition(const Graph& g, const EdgePartition& partition,
                               Fn&& fn) {
  std::vector<VertexId> last_seen(partition.num_partitions(), kInvalidVertex);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      const PartitionId p = partition.partition_of(nb.edge);
      if (p < last_seen.size() && last_seen[p] != v) {
        last_seen[p] = v;
        fn(v, p);
      }
    }
  }
}

}  // namespace

std::vector<PartitionId> replica_counts(const Graph& g,
                                        const EdgePartition& partition) {
  std::vector<PartitionId> counts(g.num_vertices(), 0);
  for_each_vertex_partition(g, partition,
                            [&](VertexId v, PartitionId) { ++counts[v]; });
  return counts;
}

std::vector<std::size_t> vertex_counts(const Graph& g,
                                       const EdgePartition& partition) {
  std::vector<std::size_t> counts(partition.num_partitions(), 0);
  for_each_vertex_partition(g, partition,
                            [&](VertexId, PartitionId p) { ++counts[p]; });
  return counts;
}

double replication_factor(const Graph& g, const EdgePartition& partition) {
  std::size_t replicas = 0;
  std::size_t covered_vertices = 0;
  const auto counts = replica_counts(g, partition);
  for (const PartitionId c : counts) {
    if (c > 0) {
      replicas += c;
      ++covered_vertices;
    }
  }
  return covered_vertices == 0
             ? 1.0
             : static_cast<double>(replicas) / static_cast<double>(covered_vertices);
}

double balance_factor(const EdgePartition& partition) {
  const auto counts = partition.edge_counts();
  if (counts.empty() || partition.num_edges() == 0) return 1.0;
  const EdgeId max_load = *std::max_element(counts.begin(), counts.end());
  const double avg = static_cast<double>(partition.num_edges()) /
                     static_cast<double>(counts.size());
  return static_cast<double>(max_load) / avg;
}

double PartitionModularity::value() const {
  if (external_edges == 0) {
    return internal_edges == 0 ? 0.0
                               : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(internal_edges) /
         static_cast<double>(external_edges);
}

std::vector<PartitionModularity> partition_modularity(
    const Graph& g, const EdgePartition& partition) {
  const PartitionId p = partition.num_partitions();
  std::vector<PartitionModularity> result(p);

  // Membership bitmaps V(P_k) built from incidences.
  std::vector<std::vector<bool>> member(
      p, std::vector<bool>(g.num_vertices(), false));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const PartitionId k = partition.partition_of(e);
    if (k == kNoPartition) continue;
    ++result[k].internal_edges;
    member[k][g.edge(e).u] = true;
    member[k][g.edge(e).v] = true;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const PartitionId owner = partition.partition_of(e);
    const Edge& edge = g.edge(e);
    for (PartitionId k = 0; k < p; ++k) {
      if (k == owner) continue;
      if (member[k][edge.u] || member[k][edge.v]) {
        ++result[k].external_edges;
      }
    }
  }
  return result;
}

double claim1_predicted_rf(const Graph& g, const EdgePartition& partition) {
  const auto mods = partition_modularity(g, partition);
  double sum_inverse = 0.0;
  for (const PartitionModularity& m : mods) {
    const double value = m.value();
    if (value > 0.0 && std::isfinite(value)) {
      sum_inverse += 1.0 / (2.0 * value);  // factor-2 endpoint correction
    }
    // M = +inf contributes 0; M = 0 (empty partition) contributes 0 replicas.
  }
  const double p = static_cast<double>(partition.num_partitions());
  return 1.0 + sum_inverse / p;
}

EdgeId edge_cut(const Graph& g, const std::vector<PartitionId>& vertex_parts) {
  EdgeId cut = 0;
  for (const Edge& e : g.edges()) {
    if (vertex_parts[e.u] != vertex_parts[e.v]) ++cut;
  }
  return cut;
}

}  // namespace tlp
