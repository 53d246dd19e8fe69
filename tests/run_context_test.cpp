// Unit tests for the RunContext building blocks: scratch arena reuse,
// telemetry sink, and cooperative cancellation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/multi_tlp.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/run_context.hpp"
#include "refine/engine.hpp"

namespace tlp {
namespace {

TEST(ScratchArena, FirstAcquireIsAMiss) {
  ScratchArena arena;
  const auto lease = arena.acquire<int>(100, 7);
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_EQ(arena.misses(), 1u);
  EXPECT_EQ(lease->size(), 100u);
  for (const int v : *lease) EXPECT_EQ(v, 7);
}

TEST(ScratchArena, ReacquireAfterReleaseIsAHit) {
  ScratchArena arena;
  {
    const auto lease = arena.acquire<int>(100);
  }  // released back to the pool
  const auto lease = arena.acquire<int>(50);  // fits in recycled capacity
  EXPECT_EQ(arena.hits(), 1u);
  EXPECT_EQ(arena.misses(), 1u);
  EXPECT_EQ(lease->size(), 50u);
}

TEST(ScratchArena, GrowingReuseCountsAsMiss) {
  ScratchArena arena;
  {
    const auto lease = arena.acquire<int>(10);
  }
  const auto lease = arena.acquire<int>(10000);  // pooled but must grow
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_EQ(arena.misses(), 2u);
}

TEST(ScratchArena, ContentsAreResetOnEveryAcquire) {
  ScratchArena arena;
  {
    auto lease = arena.acquire<int>(10, 0);
    for (int& v : *lease) v = 99;
  }
  const auto lease = arena.acquire<int>(10, 0);
  for (const int v : *lease) EXPECT_EQ(v, 0);  // determinism: no stale data
}

TEST(ScratchArena, TypesArePooledSeparately) {
  ScratchArena arena;
  {
    const auto a = arena.acquire<int>(64);
  }
  const auto b = arena.acquire<double>(8);  // different type: no reuse
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_EQ(arena.misses(), 2u);
}

TEST(ScratchArena, PeakBytesTracksHighWater) {
  ScratchArena arena;
  { const auto a = arena.acquire<std::uint64_t>(1000); }
  const std::size_t after_first = arena.peak_bytes();
  EXPECT_GE(after_first, 1000 * sizeof(std::uint64_t));
  // Reuse at a smaller size must not raise the peak.
  { const auto b = arena.acquire<std::uint64_t>(10); }
  EXPECT_EQ(arena.peak_bytes(), after_first);
  // Two concurrent leases force a second allocation: peak grows.
  const auto c = arena.acquire<std::uint64_t>(1000);
  const auto d = arena.acquire<std::uint64_t>(1000);
  EXPECT_GE(arena.peak_bytes(), 2000 * sizeof(std::uint64_t));
}

TEST(ScratchArena, MovedFromLeaseDoesNotDoubleRelease) {
  ScratchArena arena;
  auto a = arena.acquire<int>(16);
  auto b = std::move(a);
  EXPECT_EQ(b->size(), 16u);
  b = arena.acquire<int>(8);  // move-assign releases the old buffer once
  EXPECT_EQ(b->size(), 8u);
}

TEST(Telemetry, CountersAccumulate) {
  Telemetry t;
  EXPECT_EQ(t.counter("x"), 0.0);
  t.add("x");
  t.add("x", 2.5);
  EXPECT_EQ(t.counter("x"), 3.5);
  t.set("x", 1.0);
  EXPECT_EQ(t.counter("x"), 1.0);
}

TEST(Telemetry, SetMaxKeepsHighWater) {
  Telemetry t;
  t.set_max("peak", 5.0);
  t.set_max("peak", 3.0);
  EXPECT_EQ(t.counter("peak"), 5.0);
  t.set_max("peak", 9.0);
  EXPECT_EQ(t.counter("peak"), 9.0);
}

TEST(Telemetry, SeriesAppend) {
  Telemetry t;
  EXPECT_EQ(t.series("s"), nullptr);
  t.append("s", 1.0);
  t.append("s", 2.0);
  const auto* s = t.series("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, (std::vector<double>{1.0, 2.0}));
}

TEST(Telemetry, ScopedTimerAddsElapsed) {
  Telemetry t;
  {
    auto timer = t.time("phase_s");
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(t.timer_seconds("phase_s"), 0.0);
  const double after_first = t.timer_seconds("phase_s");
  { auto timer = t.time("phase_s"); }
  EXPECT_GE(t.timer_seconds("phase_s"), after_first);  // accumulates
}

TEST(Telemetry, ScopedTimerStopFlushesOnce) {
  Telemetry t;
  auto timer = t.time("x_s");
  timer.stop();
  const double first = t.timer_seconds("x_s");
  timer.stop();  // idempotent
  EXPECT_EQ(t.timer_seconds("x_s"), first);
}

TEST(Telemetry, ToJsonShapesIntegersAndNaN) {
  Telemetry t;
  t.add("count", 3.0);
  t.add("ratio", 0.5);
  t.add_seconds("x_s", 1.5);
  t.append("series_a", 2.0);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"count\":3."), std::string::npos);  // no decimal
  EXPECT_NE(json.find("\"ratio\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
  EXPECT_NE(json.find("\"series_a\":[2]"), std::string::npos);
}

TEST(Telemetry, ClearResetsEverything) {
  Telemetry t;
  t.add("c", 1.0);
  t.add_seconds("t_s", 1.0);
  t.append("s", 1.0);
  t.clear();
  EXPECT_EQ(t.counter("c"), 0.0);
  EXPECT_EQ(t.timer_seconds("t_s"), 0.0);
  EXPECT_EQ(t.series("s"), nullptr);
}

TEST(Telemetry, PhaseHookFiresOnEntryAndExit) {
  Telemetry t;
  std::vector<std::pair<std::string, double>> events;
  t.set_phase_hook([&events](std::string_view phase, double seconds) {
    events.emplace_back(std::string(phase), seconds);
  });
  { auto timer = t.time("grow_s"); }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, "grow_s");
  EXPECT_LT(events[0].second, 0.0);  // entry marker
  EXPECT_EQ(events[1].first, "grow_s");
  EXPECT_GE(events[1].second, 0.0);  // elapsed on exit
  t.set_phase_hook(nullptr);
  { auto timer = t.time("grow_s"); }
  EXPECT_EQ(events.size(), 2u);  // disabled hook stays silent
}

TEST(RunContext, ChildContextsAreCachedPerIndex) {
  RunContext ctx;
  EXPECT_EQ(ctx.num_children(), 0u);
  RunContext& a = ctx.child(0);
  RunContext& b = ctx.child(1);
  EXPECT_EQ(ctx.num_children(), 2u);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&ctx.child(0), &a);  // same object on re-request
  EXPECT_EQ(ctx.num_children(), 2u);
  // Child arenas are private: leases recycle within the child only.
  { const auto lease = a.arena().acquire<int>(32); }
  const auto reuse = a.arena().acquire<int>(16);
  EXPECT_EQ(a.arena().hits(), 1u);
  EXPECT_EQ(ctx.arena().hits(), 0u);
  EXPECT_EQ(b.arena().hits(), 0u);
}

TEST(CancelToken, StopFlagTrips) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.request_stop();
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, PastDeadlineTrips) {
  CancelToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::seconds(1));
  EXPECT_TRUE(token.cancelled());
}

TEST(RunContext, CheckCancelledThrowsAfterStop) {
  RunContext ctx;
  EXPECT_NO_THROW(ctx.check_cancelled());
  ctx.cancel().request_stop();
  EXPECT_THROW(ctx.check_cancelled(), RunCancelled);
}

TEST(RunContext, CancelledRunAbortsPartitioning) {
  const Graph g = gen::erdos_renyi(200, 800, 21);
  const TlpPartitioner tlp;
  PartitionConfig config;
  config.num_partitions = 4;
  RunContext ctx;
  ctx.cancel().request_stop();
  EXPECT_THROW((void)tlp.partition(g, config, ctx), RunCancelled);
  // The context stays usable after a reset, and the aborted call left the
  // run depth balanced: the next call is an outermost run again.
  ctx.cancel().reset();
  EXPECT_NO_THROW((void)tlp.partition(g, config, ctx));
  EXPECT_EQ(ctx.runs(), 2u);
  EXPECT_GT(ctx.telemetry().timer_seconds("total_s"), 0.0);
}

TEST(RunContext, ExpiredDeadlineAbortsPartitioning) {
  const Graph g = gen::erdos_renyi(200, 800, 23);
  const TlpPartitioner tlp;
  PartitionConfig config;
  config.num_partitions = 4;
  RunContext ctx;
  ctx.cancel().set_timeout(std::chrono::nanoseconds(0));
  EXPECT_THROW((void)tlp.partition(g, config, ctx), RunCancelled);
}

TEST(RunContext, DeadlineInsideOneTlpRoundAbortsPartitioning) {
  // p = 1 makes the whole run one round, far longer than 5 ms: only the
  // poll every 4096 growth steps can see the deadline. A first, unlimited
  // run warms the arena, so the timed run reaches its round in well under
  // 5 ms and the check at the round's start does not fire yet.
  const Graph g = gen::chung_lu_power_law(20000, 200000, 2.1, 5);
  const TlpPartitioner tlp;
  PartitionConfig config;
  config.num_partitions = 1;
  RunContext ctx;
  (void)tlp.partition(g, config, ctx);
  ctx.cancel().set_timeout(std::chrono::milliseconds{5});
  EXPECT_THROW((void)tlp.partition(g, config, ctx), RunCancelled);
}

/// The streaming baselines have no rounds: only their poll every
/// kCancelPollEdges placed edges can see a deadline that passes mid-run.
/// A first, unlimited run warms the arena and shows the run is far longer
/// than the 5 ms deadline; the timed run must then throw.
void expect_deadline_inside_stream_aborts(const Partitioner& partitioner) {
  const Graph g = gen::chung_lu_power_law(20000, 200000, 2.1, 7);
  PartitionConfig config;
  config.num_partitions = 32;
  RunContext ctx;
  const auto start = std::chrono::steady_clock::now();
  (void)partitioner.partition(g, config, ctx);
  ASSERT_GT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds{10});
  ctx.cancel().set_timeout(std::chrono::milliseconds{5});
  EXPECT_THROW((void)partitioner.partition(g, config, ctx), RunCancelled);
}

TEST(RunContext, DeadlineInsideHdrfStreamAbortsPartitioning) {
  expect_deadline_inside_stream_aborts(baselines::HdrfPartitioner{});
}

TEST(RunContext, DeadlineInsideGreedyStreamAbortsPartitioning) {
  expect_deadline_inside_stream_aborts(baselines::GreedyPartitioner{});
}

TEST(RunContext, ArenaHitsFromSecondRunOnward) {
  const Graph g = gen::erdos_renyi(300, 1200, 25);
  const TlpPartitioner tlp;
  PartitionConfig config;
  config.num_partitions = 4;
  RunContext ctx;
  (void)tlp.partition(g, config, ctx);
  // Frontier bucket heaps recycle pooled buffers even within run 1, so hits
  // may already be nonzero here; what matters is that run 2 allocates
  // nothing new.
  const std::uint64_t hits_after_first = ctx.arena().hits();
  const std::uint64_t misses_after_first = ctx.arena().misses();
  EXPECT_GT(misses_after_first, 0u);
  (void)tlp.partition(g, config, ctx);
  // Run 2 reuses every buffer run 1 allocated: all hits, no new misses.
  EXPECT_GT(ctx.arena().hits(), hits_after_first);
  EXPECT_EQ(ctx.arena().misses(), misses_after_first);
}

/// Arena misses of `ctx` plus those of every child it has created.
std::uint64_t total_misses(RunContext& ctx) {
  std::uint64_t misses = ctx.arena().misses();
  for (std::size_t i = 0; i < ctx.num_children(); ++i) {
    misses += ctx.child(i).arena().misses();
  }
  return misses;
}

// Zero steady-state allocation on a hub-heavy graph, for both growth
// engines: a warm rerun on the same context allocates no new scratch, in the
// parent arena or in any multi_tlp per-partition child.
TEST(RunContext, WarmRerunAddsNoArenaMissesOnPowerLaw) {
  const Graph g = gen::chung_lu_power_law(4000, 24000, 2.1, 7);
  PartitionConfig config;
  config.num_partitions = 8;
  const TlpPartitioner tlp;
  const TlpPartitioner tlp_r = make_tlp_r(0.5);
  const MultiTlpPartitioner multi;
  const std::pair<const char*, const Partitioner*> cases[] = {
      {"tlp", &tlp}, {"tlp_r0.5", &tlp_r}, {"multi_tlp", &multi}};
  for (const auto& [label, algo] : cases) {
    SCOPED_TRACE(label);
    RunContext ctx;
    (void)algo->partition(g, config, ctx);
    const std::uint64_t misses_after_first = total_misses(ctx);
    EXPECT_GT(misses_after_first, 0u);
    (void)algo->partition(g, config, ctx);
    EXPECT_EQ(total_misses(ctx), misses_after_first);
  }
}

// The gain-heap engine leases all of its scratch: the touch versions, the
// pass-start key snapshot and the moved-vertex marks included, so a warm
// rerun on the same context allocates none.
TEST(RunContext, WarmRefineRerunAddsNoArenaMisses) {
  const Graph g = gen::chung_lu_power_law(4000, 24000, 2.1, 7);
  PartitionConfig config;
  config.num_partitions = 8;
  const EdgePartition grown = TlpPartitioner{}.partition(g, config);
  RefineOptions options;
  options.max_passes = 8;
  options.escape_budget = 64;
  options.balance_slack = 1.05;
  RunContext ctx;
  EdgePartition part = grown;
  const RefineResult first = refine::refine_gain(g, part, options, ctx);
  ASSERT_GT(first.moves, 0u);
  ASSERT_GT(first.touches, 0u);
  const std::uint64_t misses_after_first = ctx.arena().misses();
  EXPECT_GT(misses_after_first, 0u);
  part = grown;
  (void)refine::refine_gain(g, part, options, ctx);
  EXPECT_EQ(ctx.arena().misses(), misses_after_first);
}

TEST(RunContext, TracksRunsAndAlgorithm) {
  const Graph g = gen::path_graph(10);
  PartitionConfig config;
  config.num_partitions = 2;
  RunContext ctx;
  EXPECT_EQ(ctx.runs(), 0u);
  EXPECT_EQ(ctx.last_algorithm(), "");
  (void)TlpPartitioner{}.partition(g, config, ctx);
  (void)make_tlp_r(0.5).partition(g, config, ctx);
  EXPECT_EQ(ctx.runs(), 2u);
  EXPECT_EQ(ctx.last_algorithm(), "tlp_r0.5");
  EXPECT_EQ(ctx.telemetry().counter("runs"), 2.0);
}

}  // namespace
}  // namespace tlp
