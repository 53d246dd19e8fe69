// The two-hop counting pass shared by sequential (core/tlp.cpp) and
// concurrent (core/multi_tlp.cpp) growth: one sweep over v's one-hop
// adjacency lists yields |N(u) ∩ N(v)| for every two-hop neighbor u at
// once, which beats per-pair intersections when v's neighbors are small.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/simd.hpp"

namespace tlp {

/// How many inner-loop iterations ahead the counting pass issues a write
/// prefetch for its count[u] target. Far enough to beat a memory
/// round-trip at ~1 increment/cycle, near enough to stay inside most
/// adjacency lists.
inline constexpr std::size_t kCountPrefetchDistance = 8;

/// Adds |N(u) ∩ N(v)| to count[u] for every two-hop neighbor u of v and
/// appends each u whose count leaves zero to `touched`. Precondition:
/// count is all-zero; the caller resets count[u] for every touched u once
/// it has read the counts.
///
/// Walks the vertex-only adjacency mirror: the loop is pure memory
/// bandwidth and never needs the edge ids. Two software prefetches hide
/// its two cache-miss streams: the NEXT one-hop neighbor's adjacency head
/// (so list w+1 is in flight while list w is scanned) and the count[u]
/// cells a few iterations ahead (the increments are random-access over an
/// O(n) array).
inline void count_two_hop(const Graph& g, VertexId v, std::uint32_t* count,
                          std::vector<VertexId>& touched) {
  const auto hops = g.neighbor_ids(v);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i + 1 < hops.size()) g.prefetch_neighbor_ids(hops[i + 1]);
    const auto ids = g.neighbor_ids(hops[i]);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (j + kCountPrefetchDistance < ids.size()) {
        simd::prefetch_write(&count[ids[j + kCountPrefetchDistance]]);
      }
      const VertexId u = ids[j];
      if (count[u]++ == 0) touched.push_back(u);
    }
  }
}

}  // namespace tlp
