// Deeper behavioral tests for the extension baselines: FENNEL, 2PS.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/baselines.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"

namespace tlp::baselines {
namespace {

PartitionConfig config_for(PartitionId p, std::uint64_t seed = 42) {
  PartitionConfig config;
  config.num_partitions = p;
  config.seed = seed;
  return config;
}

TEST(Fennel, VertexPartitionRespectsCeiling) {
  const Graph g = gen::erdos_renyi(400, 1600, 141);
  const FennelPartitioner fennel;
  const auto parts = fennel.vertex_partition(g, config_for(5));
  std::vector<std::size_t> sizes(5, 0);
  for (const PartitionId p : parts) ++sizes[p];
  const std::size_t cap = static_cast<std::size_t>(1.1 * 400.0 / 5.0) + 1;
  for (const std::size_t size : sizes) {
    EXPECT_LE(size, cap);
  }
}

TEST(Fennel, CutBeatsHashedVertexSplit) {
  const Graph g = gen::sbm(600, 4800, 12, 0.9, 143);
  const FennelPartitioner fennel;
  const auto config = config_for(6);
  const auto parts = fennel.vertex_partition(g, config);
  // Hash split (NOT v % 6, which would accidentally align with the planted
  // v % 12 blocks and be near-optimal).
  std::vector<PartitionId> hashed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    hashed[v] = static_cast<PartitionId>((v * 2654435761u) % 6);
  }
  EXPECT_LT(edge_cut(g, parts), edge_cut(g, hashed));
}

TEST(Fennel, DeterministicAndDistinctFromLdg) {
  const Graph g = gen::barabasi_albert(500, 3, 147);
  const auto config = config_for(4);
  const auto a = FennelPartitioner{}.vertex_partition(g, config);
  const auto b = FennelPartitioner{}.vertex_partition(g, config);
  EXPECT_EQ(a, b);
  const auto ldg = LdgPartitioner{}.vertex_partition(g, config);
  EXPECT_NE(a, ldg);  // different objectives, different partitions
}

TEST(TwoPhaseStreaming, BeatsPlainStreamingOnCommunities) {
  const Graph g = gen::sbm(800, 6400, 16, 0.9, 153);
  const auto config = config_for(8);
  const double rf_2ps = replication_factor(
      g, TwoPhaseStreamingPartitioner{}.partition(g, config));
  const double rf_random = replication_factor(
      g, RandomPartitioner{}.partition(g, config));
  const double rf_greedy = replication_factor(
      g, GreedyPartitioner{}.partition(g, config));
  EXPECT_LT(rf_2ps, rf_random * 0.7);  // clustering pays
  EXPECT_LT(rf_2ps, rf_greedy);        // two passes beat one
}

TEST(TwoPhaseStreaming, LoadStaysBounded) {
  const Graph g = gen::chung_lu_power_law(2000, 14000, 2.1, 157);
  const auto config = config_for(7);
  const EdgePartition part =
      TwoPhaseStreamingPartitioner{}.partition(g, config);
  EXPECT_LT(balance_factor(part), 1.35);
}

TEST(TwoPhaseStreaming, HandlesEmptyAndTinyGraphs) {
  const auto config = config_for(3);
  const EdgePartition empty =
      TwoPhaseStreamingPartitioner{}.partition(Graph{}, config);
  EXPECT_EQ(empty.num_edges(), 0u);
  const Graph tiny = gen::path_graph(3);
  const EdgePartition part =
      TwoPhaseStreamingPartitioner{}.partition(tiny, config);
  EXPECT_EQ(part.unassigned_count(), 0u);
}

}  // namespace
}  // namespace tlp::baselines
