// Immutable undirected graph in CSR (compressed sparse row) form.
//
// Every undirected edge has a single EdgeId (its index in edges()) and
// appears twice in the adjacency structure, once per endpoint. Adjacency
// lists are sorted by neighbor id, which makes common-neighbor counting
// (needed by the TLP Stage-I score, Eq. 7 of the paper) a linear merge.
//
// Graph is a facade over a GraphStorage policy (graph/storage.hpp): the
// CSR arrays live in heap vectors (default) or in a read-only mapped CSR
// file (out-of-core tier). The facade caches the storage's raw-pointer
// StorageView by value, and every adjacency accessor is base + offsets[v]
// on either tier. Copying a Graph shares the immutable storage (shallow,
// cheap, thread-safe for reads).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/edge.hpp"
#include "graph/storage.hpp"
#include "graph/types.hpp"
#include "util/simd.hpp"

namespace tlp {

/// Immutable undirected graph. Construct via GraphBuilder (which deduplicates
/// and canonicalizes), Graph::from_edges for already-clean input, or
/// io::load_csr_file / io::with_tier for the out-of-core mmap tier.
class Graph {
 public:
  Graph() = default;

  /// Builds an in-memory graph over vertices [0, num_vertices) from a clean
  /// edge list: no duplicates (in either orientation) and no self-loops.
  /// Endpoints must be < num_vertices. Use GraphBuilder for untrusted input.
  /// Edge ids are the input positions; a lexicographically sorted input
  /// list additionally skips the per-vertex adjacency sort (the counting
  /// sort then emits each list already ordered).
  static Graph from_edges(VertexId num_vertices, EdgeList edges);

  /// Wraps an existing storage (any tier). The storage is shared, not
  /// copied; it must stay immutable for the graph's lifetime.
  static Graph from_storage(std::shared_ptr<const GraphStorage> storage);

  [[nodiscard]] VertexId num_vertices() const { return view_.num_vertices; }
  [[nodiscard]] EdgeId num_edges() const { return view_.num_edges; }
  [[nodiscard]] bool empty() const { return view_.num_edges == 0; }

  /// All edges in canonical (u <= v) orientation; EdgeId e refers to edges()[e].
  [[nodiscard]] std::span<const Edge> edges() const {
    return {view_.edges, static_cast<std::size_t>(view_.num_edges)};
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    assert(e < view_.num_edges);
    return view_.edges[static_cast<std::size_t>(e)];
  }

  /// Neighbors of v, sorted by neighbor vertex id.
  [[nodiscard]] std::span<const Neighbor> neighbors(VertexId v) const {
    assert(v < view_.num_vertices);
    const std::size_t begin = view_.offsets[v];
    return {view_.adj + begin, view_.offsets[v + 1] - begin};
  }

  /// Vertex-only view of neighbors(v): same order, 4-byte stride. The
  /// growth hot path (Stage-I scoring, common-neighbor intersections)
  /// walks this mirror instead of the Neighbor pairs — a vertex-only scan
  /// through {vertex, edge} records wastes half its memory bandwidth.
  [[nodiscard]] std::span<const VertexId> neighbor_ids(VertexId v) const {
    assert(v < view_.num_vertices);
    const std::size_t begin = view_.offsets[v];
    return {view_.ids + begin, view_.offsets[v + 1] - begin};
  }

  [[nodiscard]] std::size_t degree(VertexId v) const {
    assert(v < view_.num_vertices);
    return view_.offsets[v + 1] - view_.offsets[v];
  }

  /// Hints that degree(v) (or neighbors(v)) is about to be read: the
  /// offsets entry is the first load of either. Never faults.
  void prefetch_degree(VertexId v) const {
    simd::prefetch_read(view_.offsets + v);
  }

  /// Average degree 2m/n (0 for the empty graph).
  [[nodiscard]] double average_degree() const {
    return view_.num_vertices == 0
               ? 0.0
               : 2.0 * static_cast<double>(view_.num_edges) /
                     view_.num_vertices;
  }

  /// True iff u and v are adjacent. O(log deg) via binary search.
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Number of common neighbors |N(u) ∩ N(v)|, by intersect::count
  /// (graph/intersect_kernels.hpp): a linear merge of the sorted adjacency
  /// lists, or a galloping intersection when the degrees are skewed by
  /// ≥ intersect::kGallopSkew× (hub vertices in power-law graphs).
  /// Operates on neighbor_ids spans, so it is tier-agnostic by
  /// construction.
  [[nodiscard]] std::size_t common_neighbor_count(VertexId u, VertexId v) const;

  /// Releases the mapped adjacency spans back to the kernel
  /// (MADV_DONTNEED) after a partition run commits; pages re-fault from
  /// the page cache/file if touched again. No-op on in-memory graphs.
  void release_cold_pages() const {
    if (storage_ != nullptr) storage_->release_cold_pages();
  }

  /// Which tier the CSR bytes live on (kInMemory for default-constructed
  /// and from_edges graphs).
  [[nodiscard]] StorageTier storage_tier() const {
    return storage_ == nullptr ? StorageTier::kInMemory : storage_->tier();
  }

  /// Resident vs mapped byte accounting for the CSR arrays.
  [[nodiscard]] MemoryFootprint memory_footprint() const {
    return storage_ == nullptr ? MemoryFootprint{} : storage_->footprint();
  }

  /// Human-readable one-line summary, e.g. "Graph(n=1005, m=25571)";
  /// the mmap tier is tagged: "Graph(n=…, m=…, storage=mmap)".
  [[nodiscard]] std::string summary() const;

 private:
  std::shared_ptr<const GraphStorage> storage_;
  StorageView view_;  // cached by value: hot accessors never indirect
};

}  // namespace tlp
