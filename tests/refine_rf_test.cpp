// Tests for the replication-factor refinement post-pass.
#include <gtest/gtest.h>

#include <chrono>

#include "core/refine_rf.hpp"
#include "core/tlp.hpp"
#include "baselines/baselines.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/validator.hpp"

namespace tlp {
namespace {

PartitionConfig config_for(PartitionId p) {
  PartitionConfig config;
  config.num_partitions = p;
  return config;
}

TEST(RefineRf, FixesObviousMisplacement) {
  // Path 0-1-2: edges (0,1)->P0, (1,2)->P1. Moving (1,2) to P0 removes
  // vertex 1's second replica without adding any (2 only lives on P1...
  // actually moving creates a replica for 2 on P0 and removes 1 from P1 and
  // 2 from P1: net -1). Refinement must find a strictly better layout.
  const Graph g = gen::path_graph(3);
  EdgePartition part(2, 2);
  part.assign(0, 0);
  part.assign(1, 1);
  const double before = replication_factor(g, part);
  RefineOptions options;
  options.balance_slack = 3.0;  // allow the 2/0 layout
  const RefineResult r = refine_replication(g, part, options);
  EXPECT_GT(r.moves, 0u);
  EXPECT_LT(replication_factor(g, part), before);
}

TEST(RefineRf, NeverIncreasesRf) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::chung_lu_power_law(500, 2500, 2.1, seed);
    const auto config = config_for(6);
    EdgePartition part =
        baselines::RandomPartitioner{}.partition(g, config);
    const double before = replication_factor(g, part);
    (void)refine_replication(g, part);
    EXPECT_LE(replication_factor(g, part), before) << "seed " << seed;
    EXPECT_TRUE(validate(g, part, config).ok());
  }
}

TEST(RefineRf, ImprovesRandomPartitionSubstantially) {
  const Graph g = gen::sbm(600, 4800, 12, 0.9, 7);
  const auto config = config_for(6);
  EdgePartition part = baselines::RandomPartitioner{}.partition(g, config);
  const double before = replication_factor(g, part);
  const RefineResult r = refine_replication(g, part);
  const double after = replication_factor(g, part);
  EXPECT_LT(after, before * 0.9);  // at least 10% better on communities
  EXPECT_GT(r.replicas_removed, 0u);
}

TEST(RefineRf, RespectsBalanceCeiling) {
  const Graph g = gen::caveman_graph(4, 10);
  const auto config = config_for(4);
  EdgePartition part = baselines::RandomPartitioner{}.partition(g, config);
  RefineOptions options;
  options.balance_slack = 1.05;
  (void)refine_replication(g, part, options);
  EXPECT_LE(balance_factor(part), 1.15);  // 1.05 cap + integer rounding
}

TEST(RefineRf, ReplicaAccountingMatchesMetrics) {
  const Graph g = gen::erdos_renyi(300, 1500, 9);
  const auto config = config_for(5);
  EdgePartition part = baselines::DbhPartitioner{}.partition(g, config);
  const auto before = replica_counts(g, part);
  std::size_t replicas_before = 0;
  for (const auto c : before) replicas_before += c;

  const RefineResult r = refine_replication(g, part);

  const auto after = replica_counts(g, part);
  std::size_t replicas_after = 0;
  for (const auto c : after) replicas_after += c;
  EXPECT_EQ(replicas_before - replicas_after, r.replicas_removed);
}

TEST(RefineRf, NoOpOnSinglePartitionOrEmpty) {
  const Graph g = gen::path_graph(5);
  EdgePartition one(1, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) one.assign(e, 0);
  EXPECT_EQ(refine_replication(g, one).moves, 0u);

  EdgePartition empty(3, EdgeId{0});
  const Graph none;
  EXPECT_EQ(refine_replication(none, empty).moves, 0u);
}

TEST(RefineRf, TlpGainsLittle) {
  // TLP partitions are already locally tight: refinement should find far
  // less improvement than it does on random partitions.
  const Graph g = gen::sbm(600, 4800, 12, 0.9, 7);
  const auto config = config_for(6);
  EdgePartition tlp_part = TlpPartitioner{}.partition(g, config);
  const double tlp_before = replication_factor(g, tlp_part);
  (void)refine_replication(g, tlp_part);
  const double tlp_delta = tlp_before - replication_factor(g, tlp_part);

  EdgePartition rnd = baselines::RandomPartitioner{}.partition(g, config);
  const double rnd_before = replication_factor(g, rnd);
  (void)refine_replication(g, rnd);
  const double rnd_delta = rnd_before - replication_factor(g, rnd);

  EXPECT_LT(tlp_delta, rnd_delta);
}

RefineOptions greedy_options() {
  RefineOptions options;
  options.engine = RefineEngine::kGreedy;
  return options;
}

TEST(RefineRf, CancelledRunThrowsAndLeavesValidPartition) {
  // A stop request and an expired deadline both fire at the first sweep;
  // every applied move is a reassignment, so the partition left behind is
  // still complete and in range.
  const Graph g = gen::chung_lu_power_law(500, 2500, 2.1, 3);
  const auto config = config_for(6);
  for (const bool deadline : {false, true}) {
    PartitionConfig seeded = config;
    seeded.seed = 3;
    EdgePartition part = baselines::RandomPartitioner{}.partition(g, seeded);
    const EdgePartition start = part;
    RunContext ctx;
    if (deadline) {
      ctx.cancel().set_timeout(std::chrono::nanoseconds{0});
    } else {
      ctx.cancel().request_stop();
    }
    EXPECT_THROW((void)refine_partition(g, part, greedy_options(), ctx),
                 RunCancelled)
        << (deadline ? "deadline" : "stop");
    EXPECT_EQ(part.raw(), start.raw()) << (deadline ? "deadline" : "stop");
    EXPECT_TRUE(validate(g, part, config).ok())
        << (deadline ? "deadline" : "stop");
  }
}

TEST(RefineRf, DeadlineDuringRunThrowsAndLeavesValidPartition) {
  // A random start on 200k edges keeps the sweeps busy far longer than the
  // 5 ms budget, so the deadline fires mid-run: at a sweep start or at one
  // of the polls every 4096 edges.
  const Graph g = gen::chung_lu_power_law(20000, 200000, 2.1, 5);
  PartitionConfig config = config_for(8);
  config.seed = 5;
  EdgePartition part = baselines::RandomPartitioner{}.partition(g, config);
  RunContext ctx;
  ctx.cancel().set_timeout(std::chrono::milliseconds{5});
  EXPECT_THROW((void)refine_partition(g, part, greedy_options(), ctx),
               RunCancelled);
  EXPECT_TRUE(validate(g, part, config).ok());
}

TEST(RefinedPartitioner, WrapsAndNames) {
  const Graph g = gen::erdos_renyi(200, 800, 11);
  const auto config = config_for(4);
  RefinedPartitioner refined(
      std::make_unique<baselines::RandomPartitioner>());
  EXPECT_EQ(refined.name(), "random+refine");
  const EdgePartition part = refined.partition(g, config);
  EXPECT_TRUE(validate(g, part, config).ok());
  EXPECT_LE(replication_factor(g, part),
            replication_factor(
                g, baselines::RandomPartitioner{}.partition(g, config)));
}

}  // namespace
}  // namespace tlp
