// Tests for the sliding-window streaming TLP (the paper's Section-V
// future-work direction).
#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/baselines.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/validator.hpp"
#include "stream/window_tlp.hpp"

namespace tlp::stream {
namespace {

PartitionConfig config_for(PartitionId p, std::uint64_t seed = 42) {
  PartitionConfig config;
  config.num_partitions = p;
  config.seed = seed;
  return config;
}

TEST(EdgeStreams, VectorStreamYieldsAllEdgesInOrder) {
  VectorEdgeStream s({{0, 1}, {1, 2}, {2, 3}}, 4);
  EXPECT_EQ(s.total_edges(), 3u);
  EXPECT_EQ(s.num_vertices(), 4u);
  auto a = s.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->id, 0u);
  EXPECT_EQ(a->edge, (Edge{0, 1}));
  EXPECT_TRUE(s.next().has_value());
  EXPECT_TRUE(s.next().has_value());
  EXPECT_FALSE(s.next().has_value());
}

TEST(EdgeStreams, GraphStreamIsSeededPermutationOfEdgeIds) {
  const Graph g = gen::erdos_renyi(50, 120, 3);
  GraphEdgeStream s(g, 9);
  std::vector<bool> seen(static_cast<std::size_t>(g.num_edges()), false);
  std::size_t count = 0;
  while (const auto e = s.next()) {
    ASSERT_LT(e->id, g.num_edges());
    EXPECT_FALSE(seen[static_cast<std::size_t>(e->id)]);
    seen[static_cast<std::size_t>(e->id)] = true;
    EXPECT_EQ(g.edge(e->id), e->edge.canonical());
    ++count;
  }
  EXPECT_EQ(count, g.num_edges());
}

TEST(WindowTlp, CompleteAndInRangeOnVariousGraphs) {
  const WindowTlpPartitioner window;
  for (const Graph& g :
       {gen::path_graph(40), gen::star_graph(40), gen::complete_graph(12),
        gen::caveman_graph(6, 6), gen::erdos_renyi(150, 600, 5),
        gen::barabasi_albert(150, 3, 6)}) {
    const auto config = config_for(4);
    const EdgePartition part = window.partition(g, config);
    EXPECT_TRUE(validate(g, part, config).ok()) << g.summary();
  }
}

TEST(WindowTlp, DeterministicForSeed) {
  const Graph g = gen::barabasi_albert(300, 3, 7);
  const WindowTlpPartitioner window;
  const EdgePartition a = window.partition(g, config_for(5, 11));
  const EdgePartition b = window.partition(g, config_for(5, 11));
  EXPECT_EQ(a.raw(), b.raw());
}

TEST(WindowTlp, RejectsZeroPartitions) {
  const Graph g = gen::path_graph(4);
  EXPECT_THROW((void)WindowTlpPartitioner{}.partition(g, config_for(0)),
               std::invalid_argument);
}

TEST(WindowTlp, DefaultWindowIsTwiceCapacity) {
  const Graph g = gen::erdos_renyi(100, 400, 8);
  GraphEdgeStream source(g, 1);
  WindowStats stats;
  const auto config = config_for(4);
  (void)WindowTlpPartitioner{}.partition_stream(source, config, &stats);
  EXPECT_EQ(stats.window_capacity, 2 * config.capacity(g.num_edges()));
}

TEST(WindowTlp, HandlesSelfLoopsInRawStreams) {
  // Raw streams (unlike Graph) may contain self-loops.
  VectorEdgeStream source({{0, 1}, {2, 2}, {1, 2}, {0, 0}}, 3);
  WindowStats stats;
  const auto assignment = WindowTlpPartitioner{}.partition_stream(
      source, config_for(2), &stats);
  ASSERT_EQ(assignment.size(), 4u);
  for (const PartitionId p : assignment) EXPECT_LT(p, 2u);
  EXPECT_EQ(stats.self_loops, 2u);
}

TEST(WindowTlp, TinyWindowStillCoversEverything) {
  const Graph g = gen::erdos_renyi(200, 800, 9);
  WindowTlpOptions options;
  options.window_capacity = 16;  // absurdly small
  const WindowTlpPartitioner window(options);
  const auto config = config_for(4);
  const EdgePartition part = window.partition(g, config);
  EXPECT_TRUE(validate(g, part, config).ok());
}

TEST(WindowTlp, RefillAtAMemberGrowsFromTheFrontier) {
  // A one-edge window over a path: after 0 and 1 join partition 0, the
  // window is empty and the refill brings (1, 2), which makes 2 a
  // candidate. The round must grow from 2, not reseed — a reseed picks a
  // live edge's endpoint, here member 1, which would join a second time
  // and count 2's connection twice.
  VectorEdgeStream source({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}},
                          7);
  WindowTlpOptions options;
  options.window_capacity = 1;
  WindowStats stats;
  const auto assignment = WindowTlpPartitioner{options}.partition_stream(
      source, config_for(2), &stats);
  EXPECT_EQ(stats.reseeds, 1u);
  const std::vector<PartitionId> expected = {0, 0, 0, 1, 1, 1};
  EXPECT_EQ(assignment, expected);
}

TEST(WindowTlp, LargeWindowApproachesTlpQuality) {
  const Graph g = gen::sbm(800, 6400, 16, 0.9, 10);
  const auto config = config_for(8);

  WindowTlpOptions big;
  big.window_capacity = g.num_edges();  // window == whole graph
  const double rf_window =
      replication_factor(g, WindowTlpPartitioner{big}.partition(g, config));
  const double rf_tlp =
      replication_factor(g, TlpPartitioner{}.partition(g, config));
  const double rf_random = replication_factor(
      g, baselines::RandomPartitioner{}.partition(g, config));

  // Whole-graph window must land in TLP territory, far below random.
  EXPECT_LT(rf_window, rf_random * 0.75);
  EXPECT_LT(rf_window, rf_tlp * 1.5);
}

TEST(WindowTlp, QualityDegradesGracefullyWithWindow) {
  const Graph g = gen::sbm(600, 4800, 12, 0.9, 13);
  const auto config = config_for(6);
  const auto rf_for = [&](EdgeId window) {
    WindowTlpOptions options;
    options.window_capacity = window;
    return replication_factor(
        g, WindowTlpPartitioner{options}.partition(g, config));
  };
  const double tiny = rf_for(64);
  const double huge = rf_for(g.num_edges());
  EXPECT_LT(huge, tiny);  // more memory, better partitions
}

TEST(WindowTlp, StatsAreReported) {
  const Graph g = gen::erdos_renyi(300, 1200, 14);
  GraphEdgeStream source(g, 2);
  WindowStats stats;
  const auto config = config_for(5);
  const auto assignment = WindowTlpPartitioner{}.partition_stream(
      source, config, &stats);
  EXPECT_GT(stats.refills, 0u);
  EXPECT_GT(stats.reseeds, 0u);
  EXPECT_GT(stats.stage1_joins + stats.stage2_joins, 0u);
  EXPECT_EQ(assignment.size(), static_cast<std::size_t>(g.num_edges()));
}

TEST(WindowTlp, LoadStaysBalancedEnough) {
  const Graph g = gen::barabasi_albert(1000, 4, 15);
  const auto config = config_for(8);
  const EdgePartition part = WindowTlpPartitioner{}.partition(g, config);
  EXPECT_LT(balance_factor(part), 1.6);
}

}  // namespace
}  // namespace tlp::stream
