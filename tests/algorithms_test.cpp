// Tests for BFS, connected components, subgraphs, and triangle counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "gen/generators.hpp"
#include "graph/algorithms.hpp"

namespace tlp {
namespace {

TEST(Bfs, OrderStartsAtSourceAndCoversComponent) {
  const Graph g = gen::path_graph(5);
  const auto order = bfs_order(g, 2);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 2u);
  // Distance-1 vertices come before distance-2.
  EXPECT_TRUE((order[1] == 1 && order[2] == 3) ||
              (order[1] == 3 && order[2] == 1));
}

TEST(Bfs, OnlyVisitsOwnComponent) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {2, 3}});
  EXPECT_EQ(bfs_order(g, 0).size(), 2u);
  EXPECT_EQ(bfs_order(g, 4).size(), 1u);
}

TEST(Bfs, DistancesOnCycle) {
  const Graph g = gen::cycle_graph(6);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[5], 1u);
  EXPECT_EQ(dist[3], 3u);  // antipode
}

TEST(Bfs, UnreachableIsMax) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], std::numeric_limits<std::size_t>::max());
}

TEST(Bfs, OutOfRangeSourceThrows) {
  const Graph g = gen::path_graph(3);
  EXPECT_THROW(bfs_order(g, 3), std::out_of_range);
  EXPECT_THROW(bfs_distances(g, 99), std::out_of_range);
}

TEST(ConnectedComponents, CountsAndLabels) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const ComponentLabels cc = connected_components(g);
  EXPECT_EQ(cc.count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(cc.label[0], cc.label[1]);
  EXPECT_EQ(cc.label[1], cc.label[2]);
  EXPECT_EQ(cc.label[3], cc.label[4]);
  EXPECT_NE(cc.label[0], cc.label[3]);
  EXPECT_NE(cc.label[0], cc.label[5]);
  EXPECT_NE(cc.label[3], cc.label[5]);
}

TEST(ConnectedComponents, LargestComponentSize) {
  const Graph g = Graph::from_edges(7, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  EXPECT_EQ(largest_component_size(g), 4u);
}

TEST(ConnectedComponents, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(connected_components(g).count, 0u);
  EXPECT_EQ(largest_component_size(g), 0u);
}

TEST(InducedSubgraph, ExtractsAndRelabels) {
  const Graph g = gen::complete_graph(5);
  const Graph sub = induced_subgraph(g, {0, 2, 4});
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 3u);  // triangle among {0,2,4}
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const Graph g = gen::path_graph(4);
  EXPECT_THROW(induced_subgraph(g, {0, 0}), std::invalid_argument);
}

TEST(InducedSubgraph, EmptySelection) {
  const Graph g = gen::path_graph(4);
  const Graph sub = induced_subgraph(g, {});
  EXPECT_TRUE(sub.empty());
}

TEST(TriangleCounts, CompleteGraphK4) {
  // K4: every vertex is in C(3,2) = 3 triangles.
  const Graph g = gen::complete_graph(4);
  const auto t = triangle_counts(g);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(t[v], 3u);
}

TEST(TriangleCounts, TriangleWithTail) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto t = triangle_counts(g);
  EXPECT_EQ(t[0], 1u);
  EXPECT_EQ(t[1], 1u);
  EXPECT_EQ(t[2], 1u);
  EXPECT_EQ(t[3], 0u);
}

TEST(TriangleCounts, BipartiteHasNone) {
  const Graph g = gen::grid_graph(3, 3);  // grids are bipartite
  const auto t = triangle_counts(g);
  EXPECT_TRUE(std::all_of(t.begin(), t.end(),
                          [](std::size_t c) { return c == 0; }));
}

TEST(TriangleCounts, MatchesPerEdgeCommonNeighbourCounts) {
  // Oracle: each triangle through edge (u, v) is one common neighbour, and
  // each vertex of a triangle sees it through two of its edges.
  for (const Graph& g : {gen::chung_lu_power_law(3000, 20000, 2.1, 3),
                         gen::erdos_renyi(500, 6000, 4),
                         gen::complete_graph(9)}) {
    std::vector<std::size_t> expected(g.num_vertices(), 0);
    for (const Edge& e : g.edges()) {
      const std::size_t t = g.common_neighbor_count(e.u, e.v);
      expected[e.u] += t;
      expected[e.v] += t;
    }
    for (std::size_t& c : expected) c /= 2;
    EXPECT_EQ(triangle_counts(g), expected);
  }
}

}  // namespace
}  // namespace tlp
