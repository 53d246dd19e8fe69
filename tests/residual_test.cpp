// Tests for ResidualState's bit-packed claim bitmap: word boundaries
// (bits 63/64, the last edge of a partial word) on both the serial
// mark_assigned path and the atomic try_claim + commit_claim path.
#include "core/residual.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "gen/generators.hpp"

namespace tlp {
namespace {

/// Sum of residual degrees; twice the unassigned count on a loop-free graph.
std::uint64_t residual_degree_sum(const Graph& g,
                                  const ResidualState& residual) {
  std::uint64_t sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    sum += residual.residual_degree(v);
  }
  return sum;
}

TEST(ResidualState, ClaimBitmapWordBoundaries) {
  for (const EdgeId m : {EdgeId{63}, EdgeId{64}, EdgeId{65}}) {
    const Graph g = gen::path_graph(static_cast<VertexId>(m + 1));
    ASSERT_EQ(g.num_edges(), m);
    std::set<EdgeId> probes = {m - 1};
    for (const EdgeId e : {EdgeId{62}, EdgeId{63}, EdgeId{64}}) {
      if (e < m) probes.insert(e);
    }
    for (const bool atomic_path : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << (atomic_path ? " try_claim" : " mark"));
      ScratchArena arena;
      ResidualState residual(g, arena);
      EXPECT_EQ(residual.unassigned_count(), m);
      EdgeId claimed = 0;
      for (const EdgeId e : probes) {
        EXPECT_FALSE(residual.is_assigned(e)) << "edge " << e;
        if (atomic_path) {
          EXPECT_TRUE(residual.try_claim(e)) << "edge " << e;
          residual.commit_claim(e);
        } else {
          residual.mark_assigned(e);
        }
        ++claimed;
        EXPECT_TRUE(residual.is_assigned(e)) << "edge " << e;
        EXPECT_FALSE(residual.try_claim(e)) << "second claim of " << e;
        EXPECT_EQ(residual.unassigned_count(), m - claimed);
      }
      // No neighbouring bit was touched, and degrees followed the claims.
      for (EdgeId e = 0; e < m; ++e) {
        EXPECT_EQ(residual.is_assigned(e), probes.contains(e))
            << "edge " << e;
      }
      EXPECT_EQ(residual_degree_sum(g, residual),
                2 * static_cast<std::uint64_t>(residual.unassigned_count()));
    }
  }
}

}  // namespace
}  // namespace tlp
