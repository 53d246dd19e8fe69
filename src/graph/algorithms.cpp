#include "graph/algorithms.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>

namespace tlp {

std::vector<VertexId> bfs_order(const Graph& g, VertexId source) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("bfs_order: source out of range");
  }
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> order;
  std::deque<VertexId> queue{source};
  seen[source] = true;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    order.push_back(v);
    for (const Neighbor& nb : g.neighbors(v)) {
      if (!seen[nb.vertex]) {
        seen[nb.vertex] = true;
        queue.push_back(nb.vertex);
      }
    }
  }
  return order;
}

std::vector<std::size_t> bfs_distances(const Graph& g, VertexId source) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("bfs_distances: source out of range");
  }
  constexpr auto kUnreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(g.num_vertices(), kUnreached);
  std::deque<VertexId> queue{source};
  dist[source] = 0;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const Neighbor& nb : g.neighbors(v)) {
      if (dist[nb.vertex] == kUnreached) {
        dist[nb.vertex] = dist[v] + 1;
        queue.push_back(nb.vertex);
      }
    }
  }
  return dist;
}

ComponentLabels connected_components(const Graph& g) {
  ComponentLabels result;
  result.label.assign(g.num_vertices(), kInvalidVertex);
  std::deque<VertexId> queue;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if (result.label[start] != kInvalidVertex) continue;
    const VertexId c = result.count++;
    result.label[start] = c;
    queue.push_back(start);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      for (const Neighbor& nb : g.neighbors(v)) {
        if (result.label[nb.vertex] == kInvalidVertex) {
          result.label[nb.vertex] = c;
          queue.push_back(nb.vertex);
        }
      }
    }
  }
  return result;
}

std::size_t largest_component_size(const Graph& g) {
  const ComponentLabels cc = connected_components(g);
  std::vector<std::size_t> sizes(cc.count, 0);
  for (const VertexId label : cc.label) ++sizes[label];
  return sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
}

Graph induced_subgraph(const Graph& g, const std::vector<VertexId>& vertices) {
  std::unordered_map<VertexId, VertexId> relabel;
  relabel.reserve(vertices.size());
  for (VertexId i = 0; i < vertices.size(); ++i) {
    const auto [it, inserted] = relabel.emplace(vertices[i], i);
    if (!inserted) {
      throw std::invalid_argument("induced_subgraph: duplicate vertex");
    }
  }
  EdgeList edges;
  for (const Edge& e : g.edges()) {
    const auto iu = relabel.find(e.u);
    const auto iv = relabel.find(e.v);
    if (iu != relabel.end() && iv != relabel.end()) {
      edges.push_back(Edge{iu->second, iv->second});
    }
  }
  return Graph::from_edges(static_cast<VertexId>(vertices.size()),
                           std::move(edges));
}

std::vector<std::size_t> triangle_counts(const Graph& g) {
  // Each triangle u < v < w is found once, from its smallest vertex u: the
  // bits of u's higher neighbours are set once, then the higher neighbours
  // of each such v are probed against them, as Stage1Scorer probes N(v).
  // Adjacency lists ascend, so a vertex's higher neighbours are a suffix,
  // and a probe stops past u's largest neighbour.
  const VertexId n = g.num_vertices();
  std::vector<std::size_t> counts(n, 0);
  std::vector<std::uint64_t> bits((static_cast<std::size_t>(n) + 63) / 64, 0);
  const auto higher = [&g](VertexId x) {
    const std::span<const VertexId> ids = g.neighbor_ids(x);
    const auto first = std::upper_bound(ids.begin(), ids.end(), x);
    return ids.subspan(static_cast<std::size_t>(first - ids.begin()));
  };
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const VertexId> nu = higher(u);
    if (nu.size() < 2) continue;
    for (const VertexId v : nu) bits[v >> 6] |= std::uint64_t{1} << (v & 63);
    const VertexId last = nu.back();
    for (const VertexId v : nu.first(nu.size() - 1)) {
      for (const VertexId w : higher(v)) {
        if (w > last) break;
        if ((bits[w >> 6] >> (w & 63)) & 1) {
          ++counts[u];
          ++counts[v];
          ++counts[w];
        }
      }
    }
    for (const VertexId v : nu) bits[v >> 6] = 0;
  }
  return counts;
}

std::vector<double> local_clustering(const Graph& g) {
  const auto triangles = triangle_counts(g);
  std::vector<double> result(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::size_t d = g.degree(v);
    if (d >= 2) {
      const double wedges = static_cast<double>(d) * (d - 1) / 2.0;
      result[v] = static_cast<double>(triangles[v]) / wedges;
    }
  }
  return result;
}

double average_clustering(const Graph& g) {
  const auto local = local_clustering(g);
  double sum = 0.0;
  std::size_t eligible = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) >= 2) {
      sum += local[v];
      ++eligible;
    }
  }
  return eligible == 0 ? 0.0 : sum / static_cast<double>(eligible);
}

double global_clustering(const Graph& g) {
  const auto triangles = triangle_counts(g);
  // Each triangle is counted at each of its 3 vertices.
  std::size_t closed = 0;
  std::size_t wedges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    closed += triangles[v];
    const std::size_t d = g.degree(v);
    if (d >= 2) wedges += d * (d - 1) / 2;
  }
  return wedges == 0 ? 0.0
                     : static_cast<double>(closed) / static_cast<double>(wedges);
}

std::vector<std::uint32_t> core_numbers(const Graph& g) {
  // Matula-Beck: repeatedly remove a minimum-degree vertex; its degree at
  // removal (clamped to the running max) is its core number. Bucket queue
  // keeps the whole decomposition O(n + m).
  const VertexId n = g.num_vertices();
  std::vector<std::uint32_t> degree(n);
  std::size_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.degree(v));
    max_degree = std::max<std::size_t>(max_degree, degree[v]);
  }

  // bin[d] = start offset of degree-d vertices in `order`.
  std::vector<std::size_t> bin(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[degree[v] + 1];
  for (std::size_t d = 1; d < bin.size(); ++d) bin[d] += bin[d - 1];
  std::vector<VertexId> order(n);
  std::vector<std::size_t> position(n);
  {
    std::vector<std::size_t> cursor(bin.begin(), bin.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]]++;
      order[position[v]] = v;
    }
  }

  std::vector<std::uint32_t> core(n, 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const VertexId v = order[i];
    core[v] = degree[v];
    for (const Neighbor& nb : g.neighbors(v)) {
      const VertexId u = nb.vertex;
      if (degree[u] > degree[v]) {
        // Swap u to the front of its degree bucket, then demote it.
        const std::size_t pu = position[u];
        const std::size_t pw = bin[degree[u]];
        const VertexId w = order[pw];
        if (u != w) {
          std::swap(order[pu], order[pw]);
          position[u] = pw;
          position[w] = pu;
        }
        ++bin[degree[u]];
        --degree[u];
      }
    }
  }
  return core;
}

std::uint32_t degeneracy(const Graph& g) {
  const auto core = core_numbers(g);
  return core.empty() ? 0 : *std::max_element(core.begin(), core.end());
}

}  // namespace tlp
