// Deterministic random-graph generators.
//
// These stand in for the paper's SNAP datasets (offline environment, see
// DESIGN.md §4). All generators are seeded and reproducible across runs and
// platforms (std::mt19937_64 with explicit distributions only).
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/graph.hpp"

namespace tlp::gen {

/// G(n, m): exactly m distinct uniform random edges (no loops/duplicates).
/// Requires m <= n*(n-1)/2.
[[nodiscard]] Graph erdos_renyi(VertexId n, EdgeId m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new vertex with `edges_per_vertex` edges, preferring high-
/// degree targets. Produces a power-law degree tail.
[[nodiscard]] Graph barabasi_albert(VertexId n, std::size_t edges_per_vertex,
                                    std::uint64_t seed);

/// R-MAT recursive matrix generator (Chakrabarti et al.). Probabilities
/// (a, b, c, d = 1-a-b-c) steer edges into quadrants; a >> d yields skewed,
/// community-free power-law graphs like the Slashdot networks. Generates
/// until `m` distinct non-loop edges exist.
struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
};
[[nodiscard]] Graph rmat(VertexId n, EdgeId m, const RmatParams& params,
                         std::uint64_t seed);

/// Chung-Lu model: edge (u,v) appears with probability ~ w_u*w_v / sum(w).
/// Weights follow a power law with exponent `gamma`; expected edge count is
/// tuned to `m`. Matches a target degree sequence in expectation.
[[nodiscard]] Graph chung_lu_power_law(VertexId n, EdgeId m, double gamma,
                                       std::uint64_t seed);

/// Degree-corrected stochastic block model: power-law weights (exponent
/// `gamma`) drive per-vertex degrees while `blocks` round-robin communities
/// (vertex v in block v % blocks) receive ~`p_in_fraction` of the edges.
/// This is the closest synthetic match for social graphs: heavy-tailed
/// degrees AND non-trivial clustering, both of which the TLP modularity
/// switch is sensitive to (DESIGN.md §4).
[[nodiscard]] Graph dcsbm(VertexId n, EdgeId m, double gamma, VertexId blocks,
                          double p_in_fraction, std::uint64_t seed);

/// Stochastic block model: `blocks` equal-sized communities; edges sampled
/// so that ~`p_in_fraction` of the target m are intra-block. High
/// p_in_fraction yields strong community structure (email/collaboration
/// networks).
[[nodiscard]] Graph sbm(VertexId n, EdgeId m, VertexId blocks,
                        double p_in_fraction, std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with k nearest neighbors per
/// vertex, each edge rewired with probability beta.
[[nodiscard]] Graph watts_strogatz(VertexId n, std::size_t k, double beta,
                                   std::uint64_t seed);

// ---- deterministic fixtures (tests and worked examples) -------------------

[[nodiscard]] Graph path_graph(VertexId n);
[[nodiscard]] Graph cycle_graph(VertexId n);
[[nodiscard]] Graph star_graph(VertexId leaves);   ///< center = vertex 0
[[nodiscard]] Graph complete_graph(VertexId n);
[[nodiscard]] Graph grid_graph(VertexId rows, VertexId cols);
/// `cliques` disjoint cliques of size `clique_size`, consecutive cliques
/// joined by a single bridge edge (connected caveman graph).
[[nodiscard]] Graph caveman_graph(VertexId cliques, VertexId clique_size);

}  // namespace tlp::gen
