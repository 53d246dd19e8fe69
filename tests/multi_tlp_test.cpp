// Tests for the concurrent multi-seed TLP extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_tlp.hpp"
#include "partition/run_context.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/validator.hpp"
#include "partition_hash.hpp"

namespace tlp {
namespace {

PartitionConfig config_for(PartitionId p, std::uint64_t seed = 42) {
  PartitionConfig config;
  config.num_partitions = p;
  config.seed = seed;
  return config;
}

TEST(MultiTlp, CompleteAndInRangeOnVariousGraphs) {
  const MultiTlpPartitioner multi;
  for (const Graph& g :
       {gen::path_graph(40), gen::star_graph(40), gen::complete_graph(12),
        gen::caveman_graph(6, 6), gen::erdos_renyi(200, 800, 5),
        gen::barabasi_albert(200, 3, 6), gen::sbm(240, 1400, 8, 0.85, 7)}) {
    const auto config = config_for(4);
    const EdgePartition part = multi.partition(g, config);
    EXPECT_TRUE(validate(g, part, config).ok()) << g.summary();
  }
}

// The round-robin schedule (ascending partition order, immediate commit,
// the virgin-territory seed preference) is part of multi_tlp's contract:
// any change to it changes these bytes or counters and must re-pin them on
// purpose. The generators draw from the standard library's distributions,
// so the pin is per toolchain.
TEST(MultiTlp, OutputBytesPinned) {
  struct Pin {
    Graph g;
    PartitionId p;
    std::uint64_t seed;
    bool allow_overshoot;
    std::uint64_t hash;
    double stage_switches;
    std::vector<double> round_edges;
  };
  const Pin pins[] = {
      {gen::sbm(600, 4200, 17, 0.88, 11), 9, 7, true, 0xe276bd1faa7ed60bULL, 9,
       {467, 467, 468, 466, 468, 458, 472, 467, 467}},
      {gen::dcsbm(4000, 24000, 2.2, 6, 0.6, 21), 8, 3, true,
       0x6c10574db2479785ULL, 8,
       {3000, 3000, 3000, 3000, 3000, 3000, 3000, 3000}},
      {gen::erdos_renyi(200, 1000, 17), 5, 42, false, 0xf54257c2967cd045ULL, 5,
       {200, 198, 200, 199, 200}},
  };
  for (const Pin& pin : pins) {
    MultiTlpOptions options;
    options.allow_overshoot = pin.allow_overshoot;
    const auto config = config_for(pin.p, pin.seed);
    RunContext ctx;
    const EdgePartition part =
        MultiTlpPartitioner{options}.partition(pin.g, config, ctx);
    const Telemetry& t = ctx.telemetry();
    SCOPED_TRACE(pin.g.summary());
    EXPECT_TRUE(validate(pin.g, part, config).ok());
    EXPECT_EQ(fnv1a(part), pin.hash);
    EXPECT_EQ(t.counter("stage_switches"), pin.stage_switches);
    const auto* edges = t.series("round_edges");
    ASSERT_NE(edges, nullptr);
    EXPECT_EQ(*edges, pin.round_edges);
  }
}

// Concurrent growth exists to level the rounds: sequential TLP's first
// round grows into the dense core cheaply and every later round grows in a
// sparser residual, so |V(P_k)| climbs round by round (Claim 1's lower
// M(P_k) at close). Round-robin growth keeps the partitions' vertex counts
// within 25% of each other on the same graph.
TEST(MultiTlp, RoundsStayLevel) {
  const Graph g = gen::dcsbm(4000, 24000, 2.2, 6, 0.6, 21);
  PartitionConfig config = config_for(8, 3);
  config.balance_slack = 1.0;
  const auto spread = [&g](const EdgePartition& part) {
    const std::vector<std::size_t> counts = vertex_counts(g, part);
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    return static_cast<double>(*hi) / static_cast<double>(*lo);
  };
  const EdgePartition multi = MultiTlpPartitioner{}.partition(g, config);
  ASSERT_TRUE(validate(g, multi, config).ok());
  EXPECT_LE(spread(multi), 1.25);
  EXPECT_GE(spread(TlpPartitioner{}.partition(g, config)), 5.0);
}

TEST(MultiTlp, DeterministicForSeed) {
  const Graph g = gen::barabasi_albert(250, 3, 9);
  const MultiTlpPartitioner multi;
  const EdgePartition a = multi.partition(g, config_for(5, 3));
  const EdgePartition b = multi.partition(g, config_for(5, 3));
  EXPECT_EQ(a.raw(), b.raw());
}

TEST(MultiTlp, RejectsZeroPartitions) {
  const Graph g = gen::path_graph(4);
  EXPECT_THROW((void)MultiTlpPartitioner{}.partition(g, config_for(0)),
               std::invalid_argument);
}

TEST(MultiTlp, SinglePartitionDegenerates) {
  const Graph g = gen::erdos_renyi(60, 200, 11);
  const EdgePartition part =
      MultiTlpPartitioner{}.partition(g, config_for(1));
  EXPECT_DOUBLE_EQ(replication_factor(g, part), 1.0);
}

TEST(MultiTlp, ConcurrentGrowthIsAtLeastAsBalancedAsSequential) {
  // The motivation for this variant: the sequential algorithm's last round
  // inherits scraps; concurrent growth competes fairly from the start.
  const Graph g = gen::sbm(900, 7200, 18, 0.9, 13);
  const auto config = config_for(9);
  const EdgePartition multi = MultiTlpPartitioner{}.partition(g, config);
  EXPECT_TRUE(validate(g, multi, config).ok());
  EXPECT_LT(balance_factor(multi), 1.35);
}

TEST(MultiTlp, QualityComparableToSequentialOnCommunities) {
  const Graph g = gen::caveman_graph(8, 8);
  const auto config = config_for(8);
  const double rf_multi = replication_factor(
      g, MultiTlpPartitioner{}.partition(g, config));
  const double rf_seq =
      replication_factor(g, TlpPartitioner{}.partition(g, config));
  // Same ballpark; neither should blow up on planted communities.
  EXPECT_LT(rf_multi, 1.6);
  EXPECT_LT(rf_multi, rf_seq + 0.5);
}

TEST(MultiTlp, TelemetryAggregatesAcrossPartitions) {
  const Graph g = gen::erdos_renyi(300, 1200, 15);
  const MultiTlpPartitioner multi;
  RunContext ctx;
  const auto config = config_for(6);
  const EdgePartition part = multi.partition(g, config, ctx);
  EXPECT_TRUE(validate(g, part, config).ok());
  const Telemetry& t = ctx.telemetry();
  const auto* edges = t.series("round_edges");
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->size(), 6u);
  EXPECT_GT(t.counter("stage1_joins") + t.counter("stage2_joins"), 0.0);
  double total = 0.0;
  for (const double e : *edges) total += e;
  EXPECT_EQ(total + t.counter("spilled_edges"),
            static_cast<double>(g.num_edges()));
  // stage_switches sums the p frontiers, under the key tlp uses.
  EXPECT_TRUE(t.counters().contains("stage_switches"));
  for (const char* key : {"super_steps", "claim_conflicts", "stale_claims",
                          "seed_collisions"}) {
    EXPECT_FALSE(t.counters().contains(key)) << key;
  }
  for (const char* key : {"worker_propose", "worker_update"}) {
    EXPECT_FALSE(t.timers().contains(key)) << key;
  }
}

TEST(MultiTlp, NoOvershootStaysWithinCapacityMostly) {
  MultiTlpOptions options;
  options.allow_overshoot = false;
  const MultiTlpPartitioner multi(options);
  const Graph g = gen::erdos_renyi(200, 1000, 17);
  const auto config = config_for(5);
  const EdgePartition part = multi.partition(g, config);
  EXPECT_TRUE(validate(g, part, config).ok());
  // With hard caps everywhere, only the spill can exceed C.
  const EdgeId capacity = config.capacity(g.num_edges());
  for (const EdgeId load : part.edge_counts()) {
    EXPECT_LE(load, capacity + capacity / 4);
  }
}

TEST(MultiTlp, DisconnectedGraphFullyCovered) {
  EdgeList edges;
  for (VertexId i = 0; i < 30; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(2 * i),
                         static_cast<VertexId>(2 * i + 1)});
  }
  const Graph g = Graph::from_edges(60, std::move(edges));
  const auto config = config_for(3);
  const EdgePartition part = MultiTlpPartitioner{}.partition(g, config);
  EXPECT_TRUE(validate(g, part, config).ok());
}

}  // namespace
}  // namespace tlp
