#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "graph/intersect_kernels.hpp"

namespace tlp {

Graph Graph::from_edges(VertexId num_vertices, EdgeList edges) {
  for (Edge& e : edges) {
    if (e.u >= num_vertices || e.v >= num_vertices) {
      throw std::invalid_argument("Graph::from_edges: endpoint out of range");
    }
    if (e.is_self_loop()) {
      throw std::invalid_argument("Graph::from_edges: self-loop present");
    }
    e = e.canonical();
  }

  // A lexicographically sorted edge list (what GraphBuilder produces) lets
  // the counting sort emit each adjacency list already ordered: for a fixed
  // vertex w, entries from edges (u, w) with u < w arrive before entries
  // from edges (w, v) with v > w, and within each group the neighbor ids
  // ascend with the edge order. Duplicates are then adjacent in the input.
  const bool sorted = std::is_sorted(edges.begin(), edges.end());
  if (sorted) {
    const auto dup = std::adjacent_find(edges.begin(), edges.end());
    if (dup != edges.end()) {
      throw std::invalid_argument("Graph::from_edges: duplicate edge");
    }
  }

  // Counting sort into CSR: degrees, prefix sums, fill. The offsets array
  // doubles as the fill cursor (offsets[v] ends up at the old offsets[v+1])
  // and is shifted back afterwards — no separate cursor vector, so the
  // build peak is exactly the final footprint plus the input edge list.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(num_vertices) + 1,
                                   0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }

  std::vector<Neighbor> adjacency(2 * edges.size());
  for (EdgeId id = 0; id < edges.size(); ++id) {
    const Edge& e = edges[static_cast<std::size_t>(id)];
    adjacency[offsets[e.u]++] = Neighbor{e.v, id};
    adjacency[offsets[e.v]++] = Neighbor{e.u, id};
  }
  for (VertexId v = num_vertices; v > 0; --v) {
    offsets[v] = offsets[v - 1];
  }
  offsets[0] = 0;

  if (!sorted) {
    for (VertexId v = 0; v < num_vertices; ++v) {
      auto begin = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
      auto end =
          adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
      std::sort(begin, end, [](const Neighbor& a, const Neighbor& b) {
        return a.vertex < b.vertex;
      });
      // Duplicate detection is cheap once sorted; duplicates would corrupt
      // every partitioner's bookkeeping, so fail loudly here.
      for (auto it = begin; it != end && std::next(it) != end; ++it) {
        if (it->vertex == std::next(it)->vertex) {
          throw std::invalid_argument("Graph::from_edges: duplicate edge");
        }
      }
    }
  }

  std::vector<VertexId> adjacency_ids(adjacency.size());
  for (std::size_t i = 0; i < adjacency.size(); ++i) {
    adjacency_ids[i] = adjacency[i].vertex;
  }

  return from_storage(make_in_memory_storage(
      num_vertices, std::move(offsets), std::move(adjacency),
      std::move(adjacency_ids), std::move(edges)));
}

Graph Graph::from_storage(std::shared_ptr<const GraphStorage> storage) {
  Graph g;
  g.view_ = storage->view();
  g.storage_ = std::move(storage);
  return g;
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = neighbor_ids(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::size_t Graph::intersection_cost(std::size_t deg_a, std::size_t deg_b) {
  const std::size_t small = std::min(deg_a, deg_b);
  const std::size_t big = std::max(deg_a, deg_b);
  if (small == 0) return 1;
  if (intersect::chooses_gallop(small, big)) {
    // Galloping path: each of the `small` probes costs ~2·log2 of its jump
    // distance; the jump distances sum to `big`, so log2(big/small) + 2 per
    // probe bounds the total. The vectorized landing window only shaves a
    // constant off the final binary search, so the model stays scalar.
    return small * (static_cast<std::size_t>(std::bit_width(big / small)) + 2);
  }
  const std::size_t lanes = intersect::active().lane_width;
  if (lanes <= 1) return small + big;
  // Vectorized merge: the block staircase retires one lane-width block of
  // either list per step, so ~(small + big) / lanes steps, each costing
  // roughly two scalar units (load + compare tree + advance). Quantized to
  // whole lanes so tiny lists don't round to zero.
  return 2 * ((small + big + lanes - 1) / lanes);
}

std::size_t Graph::common_neighbor_count(VertexId u, VertexId v) const {
  const auto a = neighbor_ids(u);
  const auto b = neighbor_ids(v);
  // The active intersect kernel handles the swap/empty preconditions and
  // the merge-vs-gallop dispatch (shared with intersection_cost via
  // intersect::chooses_gallop). Operates on neighbor_ids spans, so it is
  // storage-tier-agnostic by construction.
  return intersect::count(a.data(), a.size(), b.data(), b.size());
}

std::string Graph::summary() const {
  std::string s = "Graph(n=" + std::to_string(view_.num_vertices) +
                  ", m=" + std::to_string(view_.num_edges);
  if (storage_tier() != StorageTier::kInMemory) {
    s += ", storage=";
    s += storage_tier_name(storage_tier());
  }
  return s + ")";
}

}  // namespace tlp
