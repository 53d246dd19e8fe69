// Unit tests for the CSR Graph and GraphBuilder.
#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace tlp {
namespace {

TEST(Edge, CanonicalOrdersEndpoints) {
  EXPECT_EQ((Edge{5, 2}.canonical()), (Edge{2, 5}));
  EXPECT_EQ((Edge{2, 5}.canonical()), (Edge{2, 5}));
}

TEST(Edge, OtherReturnsOppositeEndpoint) {
  constexpr Edge e{3, 7};
  EXPECT_EQ(e.other(3), 7u);
  EXPECT_EQ(e.other(7), 3u);
}

TEST(Edge, SelfLoopDetection) {
  EXPECT_TRUE((Edge{4, 4}.is_self_loop()));
  EXPECT_FALSE((Edge{4, 5}.is_self_loop()));
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.empty());
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
}

TEST(Graph, TriangleBasics) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, NeighborsAreSortedWithEdgeIds) {
  // Insert edges in scrambled order; adjacency must come out sorted.
  const Graph g = Graph::from_edges(5, {{4, 0}, {0, 2}, {0, 1}, {3, 0}});
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0].vertex, 1u);
  EXPECT_EQ(nbrs[1].vertex, 2u);
  EXPECT_EQ(nbrs[2].vertex, 3u);
  EXPECT_EQ(nbrs[3].vertex, 4u);
  for (const Neighbor& nb : nbrs) {
    const Edge& e = g.edge(nb.edge);
    EXPECT_TRUE(e.u == 0 || e.v == 0);
    EXPECT_EQ(e.other(0), nb.vertex);
  }
}

TEST(Graph, EdgesAreCanonicalized) {
  const Graph g = Graph::from_edges(4, {{3, 1}, {2, 0}});
  for (const Edge& e : g.edges()) {
    EXPECT_LE(e.u, e.v);
  }
}

TEST(Graph, HasEdgeNegative) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
}

TEST(Graph, CommonNeighborCount) {
  //   0 - 1
  //   | X |     (0-1, 0-2, 0-3, 1-2, 1-3)
  //   2   3
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  EXPECT_EQ(g.common_neighbor_count(0, 1), 2u);  // {2, 3}
  EXPECT_EQ(g.common_neighbor_count(2, 3), 2u);  // {0, 1}
  EXPECT_EQ(g.common_neighbor_count(0, 2), 1u);  // {1}
}

TEST(Graph, CommonNeighborCountGallopPath) {
  // Star with a big hub exercises the galloping branch (skew well over 16x).
  EdgeList edges;
  const VertexId n = 200;
  for (VertexId v = 2; v < n; ++v) edges.push_back(Edge{0, v});
  edges.push_back(Edge{1, 2});
  edges.push_back(Edge{1, 3});
  edges.push_back(Edge{0, 1});
  const Graph g = Graph::from_edges(n, std::move(edges));
  EXPECT_EQ(g.common_neighbor_count(0, 1), 2u);  // {2, 3}
  EXPECT_EQ(g.common_neighbor_count(1, 0), 2u);  // symmetric
}

namespace {

/// Reference oracle: quadratic double loop over both adjacency lists.
std::size_t brute_common(const Graph& g, VertexId u, VertexId v) {
  std::size_t count = 0;
  for (const Neighbor& a : g.neighbors(u)) {
    for (const Neighbor& b : g.neighbors(v)) {
      if (a.vertex == b.vertex) ++count;
    }
  }
  return count;
}

/// Graph where deg(0) = small_deg, deg(1) = big_deg, and vertices 0 and 1
/// share exactly `overlap` neighbors.
Graph skewed_pair(std::size_t small_deg, std::size_t big_deg,
                  std::size_t overlap) {
  EdgeList edges;
  VertexId next = 2;
  std::vector<VertexId> shared;
  for (std::size_t i = 0; i < overlap; ++i) shared.push_back(next++);
  for (const VertexId s : shared) {
    edges.push_back(Edge{0, s});
    edges.push_back(Edge{1, s});
  }
  for (std::size_t i = overlap; i < small_deg; ++i) {
    edges.push_back(Edge{0, next++});
  }
  for (std::size_t i = overlap; i < big_deg; ++i) {
    edges.push_back(Edge{1, next++});
  }
  return Graph::from_edges(next, std::move(edges));
}

}  // namespace

TEST(Graph, CommonNeighborCountAtGallopThresholdBoundary) {
  // deg(0) = 4 against deg(1) = 60 / 64 / 68: skews of 15x (merge), 16x
  // (first gallop), and 17x (gallop). The count must be identical on both
  // sides of intersect::kGallopSkew.
  for (const std::size_t ratio : {15u, 16u, 17u}) {
    const std::size_t small_deg = 4;
    const std::size_t big_deg = small_deg * ratio;
    for (const std::size_t overlap : {0u, 1u, 3u, 4u}) {
      const Graph g = skewed_pair(small_deg, big_deg, overlap);
      EXPECT_EQ(g.common_neighbor_count(0, 1), overlap)
          << "ratio " << ratio << ", overlap " << overlap;
      EXPECT_EQ(g.common_neighbor_count(1, 0), overlap) << "symmetric";
      EXPECT_EQ(g.common_neighbor_count(0, 1), brute_common(g, 0, 1));
    }
  }
}

TEST(Graph, CommonNeighborCountEmptyAndDisjoint) {
  // Vertex 3 is isolated: intersecting with an empty list is always 0.
  const Graph g = Graph::from_edges(5, {{0, 1}, {0, 2}, {1, 2}, {2, 4}});
  EXPECT_EQ(g.common_neighbor_count(3, 0), 0u);
  EXPECT_EQ(g.common_neighbor_count(0, 3), 0u);
  EXPECT_EQ(g.common_neighbor_count(3, 3), 0u);

  // Fully disjoint neighborhoods at >= 16x skew: the gallop must walk off
  // the long list without finding anything.
  const Graph h = skewed_pair(4, 64, 0);
  EXPECT_EQ(h.common_neighbor_count(0, 1), 0u);
  EXPECT_EQ(h.common_neighbor_count(1, 0), 0u);

  // Short list entirely ABOVE the long list's range: first probe gallops
  // past the end immediately.
  EdgeList edges;
  for (VertexId v = 2; v < 66; ++v) edges.push_back(Edge{0, v});
  edges.push_back(Edge{1, 100});
  edges.push_back(Edge{1, 101});
  const Graph above = Graph::from_edges(102, std::move(edges));
  EXPECT_EQ(above.common_neighbor_count(0, 1), 0u);
}

TEST(Graph, FromEdgesRejectsOutOfRange) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), std::invalid_argument);
}

TEST(Graph, FromEdgesRejectsSelfLoop) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, FromEdgesRejectsDuplicates) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {0, 1}}), std::invalid_argument);
}

TEST(Graph, SummaryMentionsCounts) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  EXPECT_NE(g.summary().find("n=3"), std::string::npos);
  EXPECT_NE(g.summary().find("m=1"), std::string::npos);
}

TEST(GraphBuilder, DropsSelfLoopsAndDuplicates) {
  GraphBuilder builder(/*relabel=*/false);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);  // duplicate (reverse orientation)
  builder.add_edge(2, 2);  // self-loop
  builder.add_edge(1, 2);
  BuildReport report;
  const Graph g = builder.build(&report);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(report.input_edges, 4u);
  EXPECT_EQ(report.self_loops, 1u);
  EXPECT_EQ(report.duplicate_edges, 1u);
  EXPECT_EQ(report.kept_edges, 2u);
}

TEST(GraphBuilder, RelabelsSparseIds) {
  GraphBuilder builder(/*relabel=*/true);
  builder.add_edge(1000, 2000);
  builder.add_edge(2000, 3000);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilder, NoRelabelUsesMaxId) {
  GraphBuilder builder(/*relabel=*/false);
  builder.add_edge(0, 9);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_vertices(), 10u);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder builder;
  builder.add_edge(0, 1);
  (void)builder.build();
  EXPECT_EQ(builder.edges_offered(), 0u);
  builder.add_edge(5, 6);
  const Graph g = builder.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.num_vertices(), 2u);  // relabeled afresh
}

TEST(GraphBuilder, EmptyBuild) {
  GraphBuilder builder;
  const Graph g = builder.build();
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_vertices(), 0u);
}

}  // namespace
}  // namespace tlp
