// Tests for the concurrent multi-seed TLP extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
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

// Strips the telemetry keys that are allowed to vary with the schedule:
// the resolved worker count and the scheduler's wall-clock instrumentation
// (docs/THREADING.md). Every OTHER counter/series must be bit-identical
// across worker counts.
std::map<std::string, double, std::less<>> scheduler_invariant_counters(
    const RunContext& ctx) {
  auto c = ctx.telemetry().counters();
  for (const char* key : {"threads", "runs", "imbalance"}) c.erase(key);
  return c;
}

std::map<std::string, std::vector<double>, std::less<>>
scheduler_invariant_series(const RunContext& ctx) {
  auto s = ctx.telemetry().all_series();
  s.erase("worker_busy");  // wall-clock, W entries per super-step
  return s;
}

// p = 9 against W in {2, 3, 4, 8, 16}: W that divides p, W that doesn't,
// and W > p, where the pool is capped at p workers. This test and the
// Steal... test below keep their names from when a steal setting existed.
TEST(MultiTlp, BitIdenticalAcrossThreadCountsAndStealSettings) {
  const Graph g = gen::sbm(600, 4200, 17, 0.88, 11);
  const auto config = config_for(9, 7);
  RunContext ctx1;
  MultiTlpOptions opts;
  opts.num_threads = 1;
  const EdgePartition base =
      MultiTlpPartitioner{opts}.partition(g, config, ctx1);
  for (const std::size_t threads : {2u, 3u, 4u, 8u, 16u}) {
    RunContext ctx;
    MultiTlpOptions o;
    o.num_threads = threads;
    const EdgePartition part = MultiTlpPartitioner{o}.partition(g, config, ctx);
    EXPECT_EQ(part.raw(), base.raw()) << threads << " threads";
    EXPECT_EQ(scheduler_invariant_counters(ctx),
              scheduler_invariant_counters(ctx1))
        << threads << " threads";
    EXPECT_EQ(scheduler_invariant_series(ctx),
              scheduler_invariant_series(ctx1))
        << threads << " threads";
    EXPECT_EQ(ctx.telemetry().counter("threads"),
              static_cast<double>(std::min<std::size_t>(threads, 9)));
  }
}

TEST(MultiTlp, HardwareThreadsMatchInline) {
  const Graph g = gen::barabasi_albert(300, 4, 19);
  const auto config = config_for(6, 5);
  MultiTlpOptions inline_opts;  // num_threads = 1
  const EdgePartition a =
      MultiTlpPartitioner{inline_opts}.partition(g, config);
  MultiTlpOptions hw_opts;
  hw_opts.num_threads = 0;  // hardware_concurrency, capped at p
  const EdgePartition b = MultiTlpPartitioner{hw_opts}.partition(g, config);
  EXPECT_EQ(a.raw(), b.raw());
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

// On a skewed (power-law + communities) graph, where partition sizes and
// hence per-worker work differ most, the 4-thread static schedule must
// reproduce the inline bytes and report well-formed scheduler telemetry.
TEST(MultiTlp, StealKeepsBytesIdenticalAndReportsSchedulerTelemetry) {
  const Graph g = gen::dcsbm(4000, 24000, 2.2, 6, 0.6, 21);
  const auto config = config_for(8, 3);
  const EdgePartition base = MultiTlpPartitioner{}.partition(g, config);
  MultiTlpOptions o;
  o.num_threads = 4;
  RunContext ctx;
  const EdgePartition part = MultiTlpPartitioner{o}.partition(g, config, ctx);
  EXPECT_EQ(part.raw(), base.raw());
  const Telemetry& t = ctx.telemetry();
  EXPECT_GE(t.counter("imbalance"), 1.0);
  const auto* busy = t.series("worker_busy");
  ASSERT_NE(busy, nullptr);
  ASSERT_FALSE(busy->empty());
  // 4 entries (one per worker) per committed super-step; the final
  // no-progress step commits nothing, so the series may run one step
  // short of the super_steps counter.
  EXPECT_EQ(busy->size() % 4, 0u);
  EXPECT_LE(static_cast<double>(busy->size()),
            t.counter("super_steps") * 4.0);
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
