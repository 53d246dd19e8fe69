#include "core/residual.hpp"

namespace tlp {
namespace {

std::size_t max_degree_of(const Graph& g) {
  std::size_t max_d = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > max_d) max_d = g.degree(v);
  }
  return max_d;
}

}  // namespace

ResidualState::ResidualState(const Graph& g, ScratchArena& arena)
    : graph_(&g),
      assigned_(arena.acquire<std::uint64_t>(
          (static_cast<std::size_t>(g.num_edges()) + 63) / 64, 0)),
      residual_degree_(arena, g.num_vertices(), max_degree_of(g)),
      unassigned_(g.num_edges()) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    residual_degree_.set(v, static_cast<std::uint32_t>(g.degree(v)));
  }
}

}  // namespace tlp
