// End-to-end tests for the TLP partitioner and the TLP_R variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/tlp.hpp"
#include "core/stage1_scorer.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/validator.hpp"

namespace tlp {
namespace {

PartitionConfig config_for(PartitionId p, std::uint64_t seed = 42) {
  PartitionConfig config;
  config.num_partitions = p;
  config.seed = seed;
  return config;
}

TEST(Tlp, NameReflectsVariant) {
  EXPECT_EQ(TlpPartitioner{}.name(), "tlp");
  EXPECT_EQ(make_tlp_r(0.3).name(), "tlp_r0.3");
  EXPECT_EQ(make_tlp_r(1.0).name(), "tlp_r1");
}

TEST(Tlp, NameKeepsDistinctRatiosDistinct) {
  // %.1f used to collapse 0.25 into "tlp_r0.2"; the name must round-trip
  // enough precision that sweep tables never alias two variants.
  EXPECT_EQ(make_tlp_r(0.25).name(), "tlp_r0.25");
  EXPECT_EQ(make_tlp_r(0.2).name(), "tlp_r0.2");
  EXPECT_NE(make_tlp_r(0.25).name(), make_tlp_r(0.2).name());
}

TEST(Tlp, CompleteAndInRangeOnVariousGraphs) {
  const TlpPartitioner tlp;
  for (const Graph& g :
       {gen::path_graph(30), gen::cycle_graph(24), gen::star_graph(40),
        gen::complete_graph(12), gen::grid_graph(6, 8),
        gen::caveman_graph(6, 5), gen::erdos_renyi(100, 300, 1),
        gen::barabasi_albert(150, 3, 2)}) {
    const auto config = config_for(4);
    const EdgePartition part = tlp.partition(g, config);
    const ValidationResult r = validate(g, part, config);
    EXPECT_TRUE(r.ok()) << g.summary();
  }
}

TEST(Tlp, DeterministicForSeed) {
  const Graph g = gen::barabasi_albert(300, 3, /*seed=*/9);
  const TlpPartitioner tlp;
  const EdgePartition a = tlp.partition(g, config_for(5, 7));
  const EdgePartition b = tlp.partition(g, config_for(5, 7));
  EXPECT_EQ(a.raw(), b.raw());
}

TEST(Tlp, SeedChangesResult) {
  const Graph g = gen::barabasi_albert(300, 3, /*seed=*/9);
  const TlpPartitioner tlp;
  const EdgePartition a = tlp.partition(g, config_for(5, 1));
  const EdgePartition b = tlp.partition(g, config_for(5, 2));
  EXPECT_NE(a.raw(), b.raw());
}

TEST(Tlp, SinglePartitionTakesEverything) {
  const Graph g = gen::erdos_renyi(50, 120, 3);
  const TlpPartitioner tlp;
  const EdgePartition part = tlp.partition(g, config_for(1));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(part.partition_of(e), 0u);
  }
  EXPECT_DOUBLE_EQ(replication_factor(g, part), 1.0);
}

TEST(Tlp, MorePartitionsThanEdges) {
  const Graph g = gen::path_graph(4);  // 3 edges
  const TlpPartitioner tlp;
  const auto config = config_for(8);
  const EdgePartition part = tlp.partition(g, config);
  EXPECT_TRUE(validate(g, part, config).ok());
}

TEST(Tlp, EmptyGraph) {
  const Graph g;
  const TlpPartitioner tlp;
  const EdgePartition part = tlp.partition(g, config_for(3));
  EXPECT_EQ(part.num_edges(), 0u);
}

TEST(Tlp, GraphWithIsolatedVertices) {
  const Graph g = Graph::from_edges(10, {{0, 1}, {1, 2}, {3, 4}});
  const TlpPartitioner tlp;
  const auto config = config_for(2);
  EXPECT_TRUE(validate(g, tlp.partition(g, config), config).ok());
}

TEST(Tlp, RejectsZeroPartitions) {
  const Graph g = gen::path_graph(3);
  const TlpPartitioner tlp;
  EXPECT_THROW((void)tlp.partition(g, config_for(0)), std::invalid_argument);
}

TEST(Tlp, NearPerfectOnPlantedCommunities) {
  // 8 cliques of 8 joined by single bridges, p = 8: local growth should
  // recover the cliques almost exactly — RF close to 1.
  const Graph g = gen::caveman_graph(8, 8);
  const TlpPartitioner tlp;
  const EdgePartition part = tlp.partition(g, config_for(8));
  EXPECT_LT(replication_factor(g, part), 1.35);
}

TEST(Tlp, BeatsHashSplitOnCommunities) {
  const Graph g = gen::sbm(800, 6400, 16, 0.9, /*seed=*/12);
  const TlpPartitioner tlp;
  const EdgePartition part = tlp.partition(g, config_for(8));

  EdgePartition hash(8, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    hash.assign(e, static_cast<PartitionId>((e * 2654435761u) % 8));
  }
  EXPECT_LT(replication_factor(g, part), replication_factor(g, hash));
}

TEST(Tlp, BalanceStaysNearOneWithOvershoot) {
  const Graph g = gen::barabasi_albert(2000, 4, /*seed=*/5);
  const TlpPartitioner tlp;
  const EdgePartition part = tlp.partition(g, config_for(10));
  // Overshoot is bounded by one vertex's connections per round.
  EXPECT_LT(balance_factor(part), 1.5);
}

TEST(Tlp, NoOvershootRespectsCapacityOutsideLastRound) {
  TlpOptions options;
  options.allow_overshoot = false;
  const TlpPartitioner tlp(options);
  const Graph g = gen::erdos_renyi(200, 1000, 4);
  const auto config = config_for(5);
  const EdgePartition part = tlp.partition(g, config);
  const auto counts = part.edge_counts();
  const EdgeId capacity = config.capacity(g.num_edges());
  // All rounds but the (uncapped) last must respect C exactly.
  EdgeId over = 0;
  for (const EdgeId c : counts) {
    if (c > capacity) ++over;
  }
  EXPECT_LE(over, 1u);
  EXPECT_TRUE(validate(g, part, config).ok());
}

// The Stage-I scorer both growth engines use, checked directly: on a
// hub-heavy graph the byte oracles reach a hub's join only a few times per
// run, so a probe that missed a word of N(v) could still match them.
void expect_scorer_matches_common_neighbor_count(const Graph& g) {
  ScratchArena arena;
  Stage1Scorer scorer(g, arena);
  const auto all_zero = [&scorer] {
    const auto words = scorer.words();
    return std::all_of(words.begin(), words.end(),
                       [](std::uint64_t w) { return w == 0; });
  };
  ASSERT_TRUE(all_zero());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    {
      Stage1Scorer::Join scores(scorer, v);
      for (const VertexId u : g.neighbor_ids(v)) {
        const std::size_t expected = g.common_neighbor_count(u, v);
        ASSERT_EQ(scores.common(u), expected) << "v=" << v << " u=" << u;
        ASSERT_EQ(scores.term(u), static_cast<double>(expected) /
                                      static_cast<double>(g.degree(v)))
            << "v=" << v << " u=" << u;
      }
    }
    ASSERT_TRUE(all_zero()) << "v=" << v;
  }
}

TEST(Stage1Scorer, ProbeMatchesCommonNeighborCountOnHubs) {
  expect_scorer_matches_common_neighbor_count(
      gen::chung_lu_power_law(1000, 6000, 2.1, 7));
}

TEST(Stage1Scorer, ProbeMatchesCommonNeighborCountOnSparseGraph) {
  // Degree ~6 everywhere; the rewired edges make N(v) span distant words.
  expect_scorer_matches_common_neighbor_count(
      gen::watts_strogatz(5000, 6, 0.1, 3));
}

TEST(TlpTelemetry, StageOneSelectsHigherDegreeVertices) {
  // Table VI's headline property: avg degree in Stage I >> Stage II.
  const Graph g = gen::chung_lu_power_law(4000, 24000, 2.1, /*seed=*/13);
  const TlpPartitioner tlp;
  RunContext ctx;
  (void)tlp.partition(g, config_for(10), ctx);
  const Telemetry& t = ctx.telemetry();
  ASSERT_GT(t.counter("stage1_joins"), 0.0);
  ASSERT_GT(t.counter("stage2_joins"), 0.0);
  const double s1_avg = t.counter("stage1_degree_sum") / t.counter("stage1_joins");
  const double s2_avg = t.counter("stage2_degree_sum") / t.counter("stage2_joins");
  EXPECT_GT(s1_avg, s2_avg);
}

TEST(TlpTelemetry, RoundsAreRecorded) {
  const Graph g = gen::erdos_renyi(100, 400, 6);
  const TlpPartitioner tlp;
  RunContext ctx;
  (void)tlp.partition(g, config_for(4), ctx);
  const Telemetry& t = ctx.telemetry();
  const auto* joins = t.series("round_joins");
  const auto* s1 = t.series("round_stage1_joins");
  const auto* s2 = t.series("round_stage2_joins");
  const auto* restarts = t.series("round_restarts");
  const auto* edges = t.series("round_edges");
  ASSERT_NE(joins, nullptr);
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(joins->size(), 4u);
  double total = 0.0;
  for (std::size_t i = 0; i < joins->size(); ++i) {
    total += (*edges)[i];
    // Every join is a stage-I pick, a stage-II pick, a restart reseed, or
    // the round's initial seed.
    EXPECT_EQ((*joins)[i], (*s1)[i] + (*s2)[i] + (*restarts)[i] + 1.0);
  }
  EXPECT_EQ(total, static_cast<double>(g.num_edges()));
}

// One stage throughout means no switch; under the modularity rule every
// round starts in Stage I, so each round that reaches Stage II switches at
// least once.
TEST(TlpTelemetry, StageSwitchesCountChangesOfSelectingStage) {
  const Graph g = gen::erdos_renyi(200, 800, 8);
  for (const double ratio : {0.0, 1.0}) {
    RunContext ctx;
    (void)make_tlp_r(ratio).partition(g, config_for(4), ctx);
    const Telemetry& t = ctx.telemetry();
    ASSERT_EQ(t.counter(ratio == 0.0 ? "stage1_joins" : "stage2_joins"), 0.0);
    EXPECT_EQ(t.counter("stage_switches"), 0.0) << "R=" << ratio;
  }
  const Graph pl = gen::chung_lu_power_law(4000, 24000, 2.1, /*seed=*/13);
  RunContext ctx;
  (void)TlpPartitioner{}.partition(pl, config_for(10), ctx);
  const Telemetry& t = ctx.telemetry();
  const std::vector<double>* stage2 = t.series("round_stage2_joins");
  ASSERT_NE(stage2, nullptr);
  const auto reached = std::count_if(stage2->begin(), stage2->end(),
                                     [](double j) { return j > 0.0; });
  ASSERT_GT(reached, 0);
  EXPECT_GE(t.counter("stage_switches"), static_cast<double>(reached));
}

TEST(TlpR, ZeroRatioIsPureStageTwo) {
  const Graph g = gen::erdos_renyi(200, 800, 8);
  const TlpPartitioner tlp = make_tlp_r(0.0);
  RunContext ctx;
  (void)tlp.partition(g, config_for(4), ctx);
  EXPECT_EQ(ctx.telemetry().counter("stage1_joins"), 0.0);
  EXPECT_GT(ctx.telemetry().counter("stage2_joins"), 0.0);
}

TEST(TlpR, FullRatioIsPureStageOne) {
  const Graph g = gen::erdos_renyi(200, 800, 8);
  const TlpPartitioner tlp = make_tlp_r(1.0);
  RunContext ctx;
  (void)tlp.partition(g, config_for(4), ctx);
  EXPECT_EQ(ctx.telemetry().counter("stage2_joins"), 0.0);
  EXPECT_GT(ctx.telemetry().counter("stage1_joins"), 0.0);
}

TEST(TlpR, MidRatioUsesBothStages) {
  const Graph g = gen::erdos_renyi(400, 1600, 8);
  const TlpPartitioner tlp = make_tlp_r(0.5);
  RunContext ctx;
  (void)tlp.partition(g, config_for(4), ctx);
  EXPECT_GT(ctx.telemetry().counter("stage1_joins"), 0.0);
  EXPECT_GT(ctx.telemetry().counter("stage2_joins"), 0.0);
}

TEST(TlpR, RejectsOutOfRangeRatio) {
  const Graph g = gen::path_graph(4);
  EXPECT_THROW((void)make_tlp_r(1.5).partition(g, config_for(2)),
               std::invalid_argument);
  EXPECT_THROW((void)make_tlp_r(-0.1).partition(g, config_for(2)),
               std::invalid_argument);
}

TEST(TlpStrict, SpillsKeepResultComplete) {
  TlpOptions options;
  options.empty_frontier = EmptyFrontierPolicy::kStrict;
  const TlpPartitioner tlp(options);
  // Many small components force early frontier exhaustion under kStrict.
  EdgeList edges;
  for (VertexId i = 0; i < 40; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(2 * i),
                         static_cast<VertexId>(2 * i + 1)});
  }
  const Graph g = Graph::from_edges(80, std::move(edges));
  const auto config = config_for(4);
  RunContext ctx;
  const EdgePartition part = tlp.partition(g, config, ctx);
  EXPECT_TRUE(validate(g, part, config).ok());
  // 4 strict rounds claim one component each (1 edge per round << C=10),
  // so almost everything must have been spilled.
  EXPECT_GT(ctx.telemetry().counter("spilled_edges"), 30.0);
  // Every round ended through the paper-literal strict branch.
  EXPECT_EQ(ctx.telemetry().counter("strict_round_ends"), 4.0);
  // The spilled edges must still land spread over the lightest partitions.
  EXPECT_LE(balance_factor(part), 1.2);
}

TEST(TlpStrict, SpillTargetsLightestPartitions) {
  // One big clique plus isolated edges: round 1 eats the clique, strict
  // rounds 2..4 take one isolated edge each, and the spill path must then
  // top up partitions 2..4 (the light ones), never partition 1.
  EdgeList edges;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) edges.push_back(Edge{u, v});
  }
  for (VertexId i = 0; i < 20; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(8 + 2 * i),
                         static_cast<VertexId>(9 + 2 * i)});
  }
  TlpOptions options;
  options.empty_frontier = EmptyFrontierPolicy::kStrict;
  const TlpPartitioner tlp(options);
  const Graph g = Graph::from_edges(48, std::move(edges));
  const auto config = config_for(4);
  RunContext ctx;
  const EdgePartition part = tlp.partition(g, config, ctx);
  EXPECT_TRUE(validate(g, part, config).ok());
  EXPECT_GT(ctx.telemetry().counter("spilled_edges"), 0.0);
  const auto counts = part.edge_counts();
  const EdgeId heaviest = *std::max_element(counts.begin(), counts.end());
  const EdgeId lightest = *std::min_element(counts.begin(), counts.end());
  // Spill balances the tail: no partition may end up more than one edge
  // lighter than another once spilling has run.
  EXPECT_LE(heaviest - lightest, config.capacity(g.num_edges()));
}

TEST(TlpNoOvershoot, RoundCloseIsCounted) {
  TlpOptions options;
  options.allow_overshoot = false;
  const TlpPartitioner tlp(options);
  // A clique has high-connection frontier vertices, so some round must hit
  // the "joining v would blow the capacity" close at least once.
  const Graph g = gen::complete_graph(20);
  const auto config = config_for(6);
  RunContext ctx;
  const EdgePartition part = tlp.partition(g, config, ctx);
  EXPECT_TRUE(validate(g, part, config).ok());
  EXPECT_GT(ctx.telemetry().counter("capacity_closes"), 0.0);
  // Closed rounds stay within capacity (only the uncapped last round may
  // exceed it).
  const auto counts = part.edge_counts();
  const EdgeId capacity = config.capacity(g.num_edges());
  EdgeId over = 0;
  for (const EdgeId c : counts) {
    if (c > capacity) ++over;
  }
  EXPECT_LE(over, 1u);
}

TEST(TlpRestart, CoversDisconnectedGraphWithoutSpill) {
  const TlpPartitioner tlp;  // default restart policy
  EdgeList edges;
  for (VertexId i = 0; i < 40; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(2 * i),
                         static_cast<VertexId>(2 * i + 1)});
  }
  const Graph g = Graph::from_edges(80, std::move(edges));
  const auto config = config_for(4);
  RunContext ctx;
  const EdgePartition part = tlp.partition(g, config, ctx);
  EXPECT_TRUE(validate(g, part, config).ok());
  EXPECT_EQ(ctx.telemetry().counter("spilled_edges"), 0.0);
  EXPECT_GT(ctx.telemetry().counter("restarts"), 0.0);
  // Each round fills to capacity: perfect balance on this instance.
  EXPECT_DOUBLE_EQ(balance_factor(part), 1.0);
}

}  // namespace
}  // namespace tlp
