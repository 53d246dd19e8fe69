// Tests for all random-graph generators and deterministic fixtures.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gen/generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/stats.hpp"

namespace tlp::gen {
namespace {

TEST(ErdosRenyi, ExactEdgeCount) {
  const Graph g = erdos_renyi(100, 250, /*seed=*/1);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 250u);
}

TEST(ErdosRenyi, DeterministicForSeed) {
  const Graph a = erdos_renyi(50, 100, 42);
  const Graph b = erdos_renyi(50, 100, 42);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e), b.edge(e));
  }
}

TEST(ErdosRenyi, DifferentSeedsDiffer) {
  const Graph a = erdos_renyi(50, 100, 1);
  const Graph b = erdos_renyi(50, 100, 2);
  bool any_diff = false;
  for (EdgeId e = 0; e < a.num_edges() && !any_diff; ++e) {
    any_diff = !(a.edge(e) == b.edge(e));
  }
  EXPECT_TRUE(any_diff);
}

TEST(ErdosRenyi, RejectsImpossibleEdgeCount) {
  EXPECT_THROW(erdos_renyi(4, 7, 1), std::invalid_argument);  // max C(4,2)=6
}

TEST(ErdosRenyi, CompleteGraphIsReachable) {
  const Graph g = erdos_renyi(5, 10, 3);
  EXPECT_EQ(g.num_edges(), 10u);
}

TEST(BarabasiAlbert, SizeAndAttachment) {
  const Graph g = barabasi_albert(500, 3, /*seed=*/2);
  EXPECT_EQ(g.num_vertices(), 500u);
  // Seed clique C(4,2)=6 edges + 496 * 3.
  EXPECT_EQ(g.num_edges(), 6u + 496u * 3u);
  EXPECT_EQ(largest_component_size(g), 500u);  // BA is connected
}

TEST(BarabasiAlbert, HubsEmerge) {
  const Graph g = barabasi_albert(2000, 2, /*seed=*/8);
  const GraphStats s = compute_stats(g);
  EXPECT_GT(s.max_degree, 20u);  // preferential attachment creates hubs
  EXPECT_EQ(s.min_degree, 2u);
}

TEST(BarabasiAlbert, RejectsZeroEdgesPerVertex) {
  EXPECT_THROW(barabasi_albert(10, 0, 1), std::invalid_argument);
}

TEST(Rmat, SizeAndSkew) {
  const Graph g = rmat(1 << 12, 20000, RmatParams{}, /*seed=*/4);
  EXPECT_EQ(g.num_edges(), 20000u);
  const GraphStats s = compute_stats(g);
  // Skewed quadrant probabilities concentrate edges on low-id vertices.
  EXPECT_GT(s.max_degree, 10 * static_cast<std::size_t>(s.avg_degree));
}

TEST(Rmat, RejectsBadProbabilities) {
  EXPECT_THROW(rmat(16, 10, RmatParams{0.9, 0.2, 0.2}, 1),
               std::invalid_argument);
  EXPECT_THROW(rmat(0, 0, RmatParams{}, 1), std::invalid_argument);
  EXPECT_THROW(rmat(4, 100, RmatParams{}, 1), std::invalid_argument);
}

TEST(Rmat, Deterministic) {
  const Graph a = rmat(256, 500, RmatParams{}, 7);
  const Graph b = rmat(256, 500, RmatParams{}, 7);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) EXPECT_EQ(a.edge(e), b.edge(e));
}

TEST(ChungLu, SizeAndTail) {
  const Graph g = chung_lu_power_law(5000, 25000, 2.1, /*seed=*/6);
  EXPECT_EQ(g.num_edges(), 25000u);
  const GraphStats s = compute_stats(g);
  EXPECT_GT(s.max_degree, 5 * static_cast<std::size_t>(s.avg_degree));
}

TEST(ChungLu, RejectsBadParameters) {
  EXPECT_THROW(chung_lu_power_law(1, 0, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(chung_lu_power_law(10, 5, 0.9, 1), std::invalid_argument);
  EXPECT_THROW(chung_lu_power_law(4, 100, 2.0, 1), std::invalid_argument);
}

TEST(Sbm, CommunityStructureDominates) {
  const Graph g = sbm(1000, 10000, 10, 0.9, /*seed=*/3);
  EXPECT_EQ(g.num_edges(), 10000u);
  // Count intra-block edges (block = v % 10): should be close to 90%.
  EdgeId intra = 0;
  for (const Edge& e : g.edges()) {
    if (e.u % 10 == e.v % 10) ++intra;
  }
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(g.num_edges()),
            0.8);
}

TEST(Sbm, RejectsBadParameters) {
  EXPECT_THROW(sbm(10, 5, 0, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(sbm(10, 5, 11, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(sbm(10, 5, 2, 1.5, 1), std::invalid_argument);
}

TEST(WattsStrogatz, RingWithoutRewiring) {
  const Graph g = watts_strogatz(20, 4, 0.0, /*seed=*/1);
  EXPECT_EQ(g.num_edges(), 40u);  // n*k/2
  for (VertexId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(WattsStrogatz, RewiringKeepsEdgeBudget) {
  const Graph g = watts_strogatz(100, 6, 0.3, /*seed=*/5);
  EXPECT_LE(g.num_edges(), 300u);
  EXPECT_GT(g.num_edges(), 280u);  // a few rewires may collide and drop
}

TEST(WattsStrogatz, RejectsBadParameters) {
  EXPECT_THROW(watts_strogatz(10, 3, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(4, 4, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(10, 2, 1.5, 1), std::invalid_argument);
}

TEST(Fixtures, PathCycleStarCompleteGrid) {
  EXPECT_EQ(path_graph(5).num_edges(), 4u);
  EXPECT_EQ(cycle_graph(5).num_edges(), 5u);
  EXPECT_EQ(star_graph(6).num_edges(), 6u);
  EXPECT_EQ(complete_graph(6).num_edges(), 15u);
  EXPECT_EQ(grid_graph(3, 4).num_edges(), 3u * 3u + 2u * 4u);  // 17
  EXPECT_THROW(cycle_graph(2), std::invalid_argument);
}

TEST(Fixtures, CavemanStructure) {
  const Graph g = caveman_graph(4, 5);
  EXPECT_EQ(g.num_vertices(), 20u);
  // 4 cliques of C(5,2)=10 edges + 3 bridges.
  EXPECT_EQ(g.num_edges(), 43u);
  EXPECT_EQ(largest_component_size(g), 20u);
}

}  // namespace
}  // namespace tlp::gen
