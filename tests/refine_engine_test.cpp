// Tests for the gain-heap refinement engine (src/refine/engine.hpp): the
// differential suite against the greedy oracle, cancellation, and the RF /
// balance invariants on randomized partitions.
#include <gtest/gtest.h>

#include <chrono>

#include "baselines/baselines.hpp"
#include "core/refine_rf.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/validator.hpp"
#include "refine/engine.hpp"
#include "refine/move_state.hpp"
#include "partition_hash.hpp"

namespace tlp {
namespace {

PartitionConfig config_for(PartitionId p) {
  PartitionConfig config;
  config.num_partitions = p;
  return config;
}

EdgePartition random_partition(const Graph& g, PartitionId p,
                               std::uint64_t seed) {
  PartitionConfig config = config_for(p);
  config.seed = seed;
  return baselines::RandomPartitioner{}.partition(g, config);
}

/// Gain-heap options at the 8-pass budget these tests were written against
/// (RefineOptions' default budget is 4).
RefineOptions eight_passes() {
  RefineOptions options;
  options.max_passes = 8;
  return options;
}

/// The greedy oracle finding ZERO moves is the fixed-point check: the
/// engine stops only when no strictly positive admissible move exists,
/// which is exactly greedy's termination condition (same gain model, same
/// cap).
std::size_t greedy_moves_left(const Graph& g, EdgePartition& part,
                              double slack) {
  RefineOptions oracle;
  oracle.engine = RefineEngine::kGreedy;
  oracle.max_passes = 1;
  oracle.balance_slack = slack;
  return refine_replication(g, part, oracle).moves;
}

TEST(RefineEngine, ConvergesToGreedyFixedPoint) {
  // Slack 1.01 keeps partitions at the cap, so cap-blocked moves (the
  // parking path) are common as well as at the default slack.
  for (const double slack : {1.05, 1.01}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Graph g = gen::chung_lu_power_law(400, 2000, 2.1, seed);
      EdgePartition part = random_partition(g, 6, seed);
      RefineOptions options;
      options.max_passes = 64;  // run to convergence, not a pass budget
      options.balance_slack = slack;
      (void)refine::refine_gain(g, part, options);
      EXPECT_EQ(greedy_moves_left(g, part, slack), 0u)
          << "slack " << slack << " seed " << seed;
    }
  }
}

TEST(RefineEngine, ParkedEdgeMovesOnceItsTargetDropsBelowTheCap) {
  // Two paths, partitions A = 0, B = 1, C = 2, cap = 5 (m = 10, p = 3,
  // slack 1.35). Edge 2 = (2, 3) sits alone in A; moving it to B frees
  // both endpoints' A replicas (+2), but B holds 5 edges, so the move is
  // blocked and edge 2 is parked on B. Edge 7 = (8, 9) in B moves to C
  // (+2) and takes B down to 4. Edge 2 shares no vertex with edge 7, so
  // only the parked list brings it back: it must move in the same pass,
  // with no escape moves to stumble on it.
  const Graph g = Graph::from_edges(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
           {6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 11}});
  EdgePartition part(3, g.num_edges());
  const PartitionId layout[] = {1, 1, 0, 1, 1, 2, 2, 1, 2, 2};
  for (EdgeId e = 0; e < g.num_edges(); ++e) part.assign(e, layout[e]);
  ASSERT_EQ(refine::MoveState::cap_for(g.num_edges(), 3, 1.35), 5u);

  RefineOptions options;
  options.max_passes = 1;
  options.balance_slack = 1.35;
  options.escape_budget = 0;
  const RefineResult stats = refine::refine_gain(g, part, options);
  EXPECT_EQ(part.partition_of(7), 2u);
  EXPECT_EQ(part.partition_of(2), 1u);
  EXPECT_EQ(stats.passes, 1);
  EXPECT_EQ(stats.moves, 2u);
  EXPECT_EQ(stats.replicas_removed, 4u);
  EXPECT_GE(stats.requeued, 1u);
  EXPECT_TRUE(validate(g, part, config_for(3)).ok());
}

TEST(RefineEngine, OutputBytesPinned) {
  // The move order is part of the engine's contract: any change to it
  // (the heap's recency, the delta-gain reindex, parking) changes these
  // bytes and must re-pin the hash on purpose. The generator draws from
  // the standard library's distributions, so the pin is per toolchain.
  // Slack 1.01 pins the parking path too: the default slack never fills a
  // partition on this fixture.
  const Graph g = gen::chung_lu_power_law(2000, 12000, 2.1, 7);
  for (const auto& [slack, hash] : {std::pair{1.05, 0xd06aabcfaccfcfe2ULL},
                                    std::pair{1.01, 0x7e86650c9d7aff30ULL}}) {
    EdgePartition part = random_partition(g, 8, 7);
    RefineOptions options = eight_passes();
    options.balance_slack = slack;
    (void)refine::refine_gain(g, part, options);
    EXPECT_TRUE(validate(g, part, config_for(8)).ok()) << "slack " << slack;
    EXPECT_EQ(fnv1a(part), hash) << "slack " << slack;
  }
  // A tlp-grown base on a hub-heavy graph (max degree 2,045 of 24k
  // edges) under the tlp+refine pipeline's options: hub rekeys dominate
  // the walk, and no partition reaches the cap.
  {
    const Graph hubs = gen::chung_lu_power_law(3000, 24000, 1.9, 5);
    PartitionConfig config = config_for(10);
    config.seed = 5;
    EdgePartition part = TlpPartitioner{}.partition(hubs, config);
    RefineOptions options;
    options.max_passes = 8;
    options.escape_budget = 64;
    options.balance_slack = 1.05;
    (void)refine::refine_gain(hubs, part, options);
    EXPECT_TRUE(validate(hubs, part, config).ok());
    EXPECT_EQ(fnv1a(part), 0x67445e99b9bdab6cULL) << "tlp base";
  }
  // p = 70: two replica words, and a random base at slack 1.01 keeps
  // partitions at the cap, so the cap mask is non-empty and edges park.
  {
    EdgePartition part = random_partition(g, 70, 7);
    RefineOptions options = eight_passes();
    options.balance_slack = 1.01;
    (void)refine::refine_gain(g, part, options);
    EXPECT_TRUE(validate(g, part, config_for(70)).ok());
    EXPECT_EQ(fnv1a(part), 0x455ebc5fec17a1ccULL) << "p = 70";
  }
}

TEST(RefineEngine, MatchesOrBeatsGreedyOracle) {
  // Same gain model + an ordering + escapes: the engine must never end up
  // worse than the oracle from the same start.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = gen::sbm(500, 4000, 10, 0.9, seed);
    EdgePartition greedy_part = random_partition(g, 6, seed);
    EdgePartition engine_part = greedy_part;

    RefineOptions oracle;
    oracle.engine = RefineEngine::kGreedy;
    oracle.max_passes = 64;
    (void)refine_replication(g, greedy_part, oracle);

    RefineOptions options;
    options.max_passes = 64;
    (void)refine::refine_gain(g, engine_part, options);

    EXPECT_LE(replication_factor(g, engine_part),
              replication_factor(g, greedy_part))
        << "seed " << seed;
  }
}

TEST(RefineEngine, EscapeMovesNeverWorsenASinglePass) {
  // Within one pass the pure hill-climb walk is a prefix of the escape
  // walk, and rollback keeps only the best prefix — so escapes can only
  // help (or tie).
  const Graph g = gen::chung_lu_power_law(500, 2500, 2.2, 11);
  EdgePartition pure = random_partition(g, 5, 11);
  EdgePartition escape = pure;

  RefineOptions options;
  options.max_passes = 1;
  options.escape_budget = 0;
  (void)refine::refine_gain(g, pure, options);

  options.escape_budget = 64;
  (void)refine::refine_gain(g, escape, options);

  EXPECT_LE(replication_factor(g, escape), replication_factor(g, pure));
}

TEST(RefineEngine, NeverWorsensRfAndStaysValid) {
  const auto config = config_for(6);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = gen::chung_lu_power_law(500, 2500, 2.1, seed);
    EdgePartition part = random_partition(g, 6, seed);
    const double before = replication_factor(g, part);
    const RefineResult stats = refine::refine_gain(g, part, eight_passes());
    EXPECT_LE(replication_factor(g, part), before) << "seed " << seed;
    EXPECT_TRUE(validate(g, part, config).ok()) << "seed " << seed;
    EXPECT_GE(stats.passes, 1);
  }
}

TEST(RefineEngine, RespectsBalanceCeiling) {
  const Graph g = gen::caveman_graph(4, 10);
  EdgePartition part = random_partition(g, 4, 3);
  RefineOptions options = eight_passes();
  options.balance_slack = 1.05;
  options.escape_budget = 64;  // escapes must respect the ceiling too
  (void)refine::refine_gain(g, part, options);
  EXPECT_LE(balance_factor(part), 1.15);  // 1.05 cap + integer rounding
}

TEST(RefineEngine, ReplicaAccountingMatchesMetrics) {
  const Graph g = gen::erdos_renyi(300, 1500, 9);
  EdgePartition part = random_partition(g, 5, 9);
  const auto count_replicas = [&] {
    std::size_t total = 0;
    for (const auto c : replica_counts(g, part)) total += c;
    return total;
  };
  const std::size_t before = count_replicas();
  const RefineResult stats = refine::refine_gain(g, part, eight_passes());
  EXPECT_EQ(before - count_replicas(), stats.replicas_removed);
}

TEST(RefineEngine, NoOpOnSinglePartitionOrEmpty) {
  const Graph g = gen::path_graph(5);
  EdgePartition one(1, g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) one.assign(e, 0);
  EXPECT_EQ(refine::refine_gain(g, one).moves, 0u);

  EdgePartition empty(3, EdgeId{0});
  const Graph none;
  EXPECT_EQ(refine::refine_gain(none, empty).moves, 0u);
}

TEST(RefineEngine, DeterministicAcrossRuns) {
  const Graph g = gen::sbm(400, 3200, 8, 0.85, 5);
  EdgePartition a = random_partition(g, 6, 5);
  EdgePartition b = a;
  const RefineResult sa = refine::refine_gain(g, a, eight_passes());
  const RefineResult sb = refine::refine_gain(g, b, eight_passes());
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_EQ(sa.moves, sb.moves);
  EXPECT_EQ(sa.escape_moves, sb.escape_moves);
}

TEST(RefineEngine, TelemetryKeysAlwaysPresent) {
  const Graph g = gen::erdos_renyi(200, 800, 7);
  const auto config = config_for(4);
  for (const RefineEngine engine :
       {RefineEngine::kGainHeap, RefineEngine::kGreedy}) {
    RefineOptions options;
    options.engine = engine;
    RefinedPartitioner refined(
        std::make_unique<baselines::RandomPartitioner>(), options);
    RunContext ctx;
    const EdgePartition part = refined.partition(g, config, ctx);
    EXPECT_TRUE(validate(g, part, config).ok());
    const auto& counters = ctx.telemetry().counters();
    for (const char* key :
         {"refine_moves", "refine_replicas_removed", "refine_passes",
          "refine_gain_applied", "refine_escape_moves", "refine_rollbacks",
          "refine_heap_rebuilds", "refine_reindexed", "refine_requeued",
          "refine_touches", "refine_start_rekeyed"}) {
      EXPECT_TRUE(counters.contains(key))
          << key << " missing for engine " << static_cast<int>(engine);
    }
    const auto& timers = ctx.telemetry().timers();
    EXPECT_GT(timers.at("refine_s"), 0.0);
    // The gain-heap engine's phase split; 0 on the greedy engine.
    for (const char* key : {"refine_rebuild_s", "refine_walk_s"}) {
      ASSERT_TRUE(timers.contains(key))
          << key << " missing for engine " << static_cast<int>(engine);
      if (engine == RefineEngine::kGreedy) {
        EXPECT_EQ(timers.at(key), 0.0) << key;
      } else {
        EXPECT_GT(timers.at(key), 0.0) << key;
      }
    }
    EXPECT_LE(timers.at("refine_rebuild_s") + timers.at("refine_walk_s"),
              timers.at("refine_s"));
  }
}

TEST(RefineEngine, CancelledRunThrowsAndLeavesValidPartition) {
  // A stop request and an expired deadline both fire at the first pass
  // boundary; every applied move is a reassignment, so whatever the engine
  // leaves behind is still a complete, in-range partition.
  const Graph g = gen::chung_lu_power_law(500, 2500, 2.1, 3);
  const auto config = config_for(6);
  for (const bool deadline : {false, true}) {
    EdgePartition part = random_partition(g, 6, 3);
    RunContext ctx;
    if (deadline) {
      ctx.cancel().set_timeout(std::chrono::nanoseconds{0});
    } else {
      ctx.cancel().request_stop();
    }
    EXPECT_THROW((void)refine_partition(g, part, RefineOptions{}, ctx),
                 RunCancelled)
        << (deadline ? "deadline" : "stop");
    EXPECT_TRUE(validate(g, part, config).ok())
        << (deadline ? "deadline" : "stop");
  }
}

TEST(RefineEngine, DeadlineDuringRunThrowsAndLeavesValidPartition) {
  // A random start on 200k edges keeps the engine busy far longer than the
  // 5 ms budget, so the deadline fires mid-run: at a pass start or, on an
  // optimized build, at the first 4096-pop poll with 4095 moves applied.
  const Graph g = gen::chung_lu_power_law(20000, 200000, 2.1, 5);
  const auto config = config_for(8);
  EdgePartition part = random_partition(g, 8, 5);
  RunContext ctx;
  ctx.cancel().set_timeout(std::chrono::milliseconds{5});
  EXPECT_THROW((void)refine_partition(g, part, RefineOptions{}, ctx),
               RunCancelled);
  EXPECT_TRUE(validate(g, part, config).ok());
}

}  // namespace
}  // namespace tlp
