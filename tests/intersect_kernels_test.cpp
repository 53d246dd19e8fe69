// Tests for the sorted-set intersection layer: intersect::count must
// return EXACTLY the brute-force count on adversarial shapes (every
// length up to 65, gallop-boundary skews, empty/disjoint/identical lists,
// ids near VertexId max, a power-law hub) and under randomized fuzz, in
// both argument orders.

#include "graph/intersect_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace tlp {
namespace {

/// Brute-force oracle, structurally unrelated to any kernel.
std::size_t oracle_count(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b) {
  std::size_t c = 0;
  for (const VertexId x : a) {
    if (std::binary_search(b.begin(), b.end(), x)) ++c;
  }
  return c;
}

/// Sorted duplicate-free list of `n` values drawn from [0, universe).
std::vector<VertexId> random_sorted_list(std::mt19937_64& rng, std::size_t n,
                                         VertexId universe) {
  std::uniform_int_distribution<VertexId> dist(0, universe - 1);
  std::vector<VertexId> v;
  v.reserve(n);
  while (v.size() < n) v.push_back(dist(rng));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void expect_count_matches_oracle(const std::vector<VertexId>& a,
                                 const std::vector<VertexId>& b) {
  const std::size_t expected = oracle_count(a, b);
  EXPECT_EQ(intersect::count(a.data(), a.size(), b.data(), b.size()),
            expected)
      << "|a|=" << a.size() << " |b|=" << b.size();
  // Symmetric call exercises the internal swap.
  EXPECT_EQ(intersect::count(b.data(), b.size(), a.data(), a.size()),
            expected)
      << "(swapped)";
}

TEST(IntersectKernels, NamesRoundTrip) {
  // perfbench's host fingerprint reads these two names.
  EXPECT_EQ(intersect::active().kind, intersect::Kernel::kScalar);
  EXPECT_EQ(intersect::kernel_name(intersect::active().kind), "scalar");
}

TEST(IntersectKernels, EmptyAndTrivialLists) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{7};
  const std::vector<VertexId> some{1, 5, 9, 12, 40};
  expect_count_matches_oracle(empty, empty);
  expect_count_matches_oracle(empty, some);
  expect_count_matches_oracle(one, some);
  expect_count_matches_oracle(one, one);
}

TEST(IntersectKernels, DisjointAndIdenticalAcrossLaneRemainders) {
  // Lengths 0..65: every short list, and merges long enough that one
  // list runs out well before the other.
  for (std::size_t n = 0; n <= 65; ++n) {
    std::vector<VertexId> evens;
    std::vector<VertexId> odds;
    std::vector<VertexId> same;
    for (std::size_t i = 0; i < n; ++i) {
      evens.push_back(static_cast<VertexId>(2 * i));
      odds.push_back(static_cast<VertexId>(2 * i + 1));
      same.push_back(static_cast<VertexId>(3 * i));
    }
    expect_count_matches_oracle(evens, odds);  // fully disjoint, interleaved
    expect_count_matches_oracle(same, same);   // fully overlapping
  }
}

TEST(IntersectKernels, MismatchedLengthsEveryPairUpTo17) {
  std::mt19937_64 rng(7);
  for (std::size_t na = 0; na <= 17; ++na) {
    for (std::size_t nb = 0; nb <= 17; ++nb) {
      const auto a = random_sorted_list(rng, na + 1, 64);
      const auto b = random_sorted_list(rng, nb + 1, 64);
      expect_count_matches_oracle(a, b);
    }
  }
}

TEST(IntersectKernels, GallopBoundarySkews) {
  std::mt19937_64 rng(11);
  // Skews straddling kGallopSkew (16): 15x stays on the merge path, 16x
  // and 17x take the gallop path. Both paths must agree with the oracle
  // right at the dispatch boundary.
  for (const std::size_t na : {1, 3, 5, 8}) {
    for (const std::size_t skew : {15, 16, 17}) {
      const std::size_t nb = na * skew;
      ASSERT_EQ(intersect::chooses_gallop(na, nb),
                skew >= intersect::kGallopSkew);
      const auto a = random_sorted_list(
          rng, na + 1, static_cast<VertexId>(4 * nb + 4));
      const auto b = random_sorted_list(
          rng, nb + 1, static_cast<VertexId>(4 * nb + 4));
      expect_count_matches_oracle(a, b);
    }
  }
}

// The skews a real graph gives: Graph::common_neighbor_count between a
// power-law hub and 200 vertices of every degree, against the oracle. The
// suite name predates the single scalar path; it is kept so test results
// stay comparable across history.
TEST(KernelDifferential, CommonNeighborCountsKernelInvariantOnHubs) {
  const Graph g = gen::chung_lu_power_law(2000, 9000, 2.1, 97);
  VertexId hub = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  const auto list = [&g](VertexId v) {
    const auto ids = g.neighbor_ids(v);
    return std::vector<VertexId>(ids.begin(), ids.end());
  };
  const std::vector<VertexId> hub_list = list(hub);
  const VertexId probe_count = std::min<VertexId>(g.num_vertices(), 200);
  for (VertexId v = 0; v < probe_count; ++v) {
    const std::size_t expected = oracle_count(hub_list, list(v));
    ASSERT_EQ(g.common_neighbor_count(hub, v), expected) << "v=" << v;
    ASSERT_EQ(g.common_neighbor_count(v, hub), expected) << "v=" << v;
  }
}

TEST(IntersectKernels, ExtremeValuesNearVertexIdMax) {
  // Values with the high bit set: a signed comparison anywhere in the
  // merge or gallop would misorder them.
  const VertexId top = std::numeric_limits<VertexId>::max();
  std::vector<VertexId> a{0, top - 8, top - 2, top};
  std::vector<VertexId> b;
  for (VertexId i = 0; i < 128; ++i) b.push_back(top - 2 * i);
  std::sort(b.begin(), b.end());
  expect_count_matches_oracle(a, b);
}

TEST(IntersectKernels, RandomizedDifferentialFuzz) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::size_t> len(0, 300);
  std::uniform_int_distribution<int> universe_pick(0, 2);
  for (int iter = 0; iter < 400; ++iter) {
    // Three density regimes: dense overlap, moderate, sparse.
    const VertexId universe =
        universe_pick(rng) == 0 ? 64 : (universe_pick(rng) == 1 ? 1024 : 65536);
    const auto a = random_sorted_list(rng, len(rng) + 1, universe);
    const auto b = random_sorted_list(rng, len(rng) + 1, universe);
    expect_count_matches_oracle(a, b);
  }
}

}  // namespace
}  // namespace tlp
