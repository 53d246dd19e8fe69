// Tests for the partitioner registry and builtin registration.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "bench_common/runner.hpp"
#include "gen/generators.hpp"
#include "partition/registry.hpp"

namespace tlp {
namespace {

TEST(Registry, BuiltinsAreRegistered) {
  bench::register_builtin_partitioners();
  for (const char* name :
       {"tlp", "metis", "ldg", "dbh", "random", "grid", "greedy", "hdrf",
        "ne", "fennel", "kl", "2ps", "window_tlp", "multi_tlp",
        "tlp+refine"}) {
    EXPECT_TRUE(is_registered(name)) << name;
    const PartitionerPtr p = make_partitioner(name);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), name);
  }
}

TEST(Registry, CompositeRunCountsOnceAndTimesOnlyItsWallClock) {
  // tlp+refine runs four partition() calls of its own (two refined legs,
  // each around its base); they nest inside the one outer run, so the
  // context sees one run and one total_s no longer than the call took.
  bench::register_builtin_partitioners();
  const Graph g = gen::chung_lu_power_law(2000, 9000, 2.1, 5);
  PartitionConfig config;
  config.num_partitions = 4;
  RunContext ctx;
  const auto start = std::chrono::steady_clock::now();
  (void)make_partitioner("tlp+refine")->partition(g, config, ctx);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  EXPECT_EQ(ctx.runs(), 1u);
  EXPECT_EQ(ctx.telemetry().counter("runs"), 1.0);
  EXPECT_EQ(ctx.last_algorithm(), "tlp+refine");
  EXPECT_GT(ctx.telemetry().timer_seconds("total_s"), 0.0);
  EXPECT_LE(ctx.telemetry().timer_seconds("total_s"), wall_s);
}

TEST(Registry, RegistrationIsIdempotent) {
  bench::register_builtin_partitioners();
  EXPECT_NO_THROW(bench::register_builtin_partitioners());
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
  bench::register_builtin_partitioners();
  try {
    (void)make_partitioner("definitely-not-registered");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tlp"), std::string::npos);
    EXPECT_NE(what.find("metis"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  bench::register_builtin_partitioners();
  EXPECT_THROW(register_partitioner("tlp", nullptr), std::logic_error);
}

TEST(Registry, ListIsSorted) {
  bench::register_builtin_partitioners();
  const auto names = registered_partitioners();
  EXPECT_GE(names.size(), 9u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

}  // namespace
}  // namespace tlp
