// Basic graph algorithms used by partitioners, tests, and the engine.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace tlp {

/// BFS order from `source`; visits only the component containing source.
[[nodiscard]] std::vector<VertexId> bfs_order(const Graph& g, VertexId source);

/// BFS distance (hop count) from source; unreachable = SIZE_MAX.
[[nodiscard]] std::vector<std::size_t> bfs_distances(const Graph& g,
                                                     VertexId source);

/// Connected-component labels in [0, count). Isolated vertices get their own
/// component.
struct ComponentLabels {
  std::vector<VertexId> label;  ///< per-vertex component id
  VertexId count = 0;           ///< number of components
};
[[nodiscard]] ComponentLabels connected_components(const Graph& g);

/// Size of the largest connected component (0 for the empty graph).
[[nodiscard]] std::size_t largest_component_size(const Graph& g);

/// Induced subgraph on `vertices` (ids relabeled to [0, |vertices|) in the
/// order given; duplicates in `vertices` are invalid).
[[nodiscard]] Graph induced_subgraph(const Graph& g,
                                     const std::vector<VertexId>& vertices);

/// Number of triangles each vertex participates in (exact; each triangle
/// is found once, from its smallest vertex, by bitset probes).
[[nodiscard]] std::vector<std::size_t> triangle_counts(const Graph& g);

/// Local clustering coefficient per vertex: triangles(v) / C(deg(v), 2);
/// 0 for degree < 2.
[[nodiscard]] std::vector<double> local_clustering(const Graph& g);

/// Average local clustering coefficient over vertices of degree >= 2
/// (the Watts-Strogatz statistic SNAP reports; used to audit how close the
/// synthetic dataset stand-ins get to the originals).
[[nodiscard]] double average_clustering(const Graph& g);

/// Global clustering coefficient (transitivity): 3*triangles / open wedges.
[[nodiscard]] double global_clustering(const Graph& g);

/// k-core decomposition: core[v] = largest k such that v belongs to a
/// subgraph of minimum degree k (Matula-Beck peeling, O(m)).
[[nodiscard]] std::vector<std::uint32_t> core_numbers(const Graph& g);

/// Degeneracy of the graph = max core number (0 for edgeless graphs).
[[nodiscard]] std::uint32_t degeneracy(const Graph& g);

}  // namespace tlp
