// Differential tests for the intersect kernel layer: every vector kernel
// must return EXACTLY what the scalar reference returns — integer counts
// and bit-identical Stage-I score terms — on adversarial shapes (lane
// remainders, gallop-boundary skews, empty/disjoint/identical lists) and
// under randomized fuzz. Also pins the contract that makes the cost model
// honest: Graph::intersection_cost branches on the same predicate count()
// dispatches on.

#include "graph/intersect_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "util/simd.hpp"

namespace tlp {
namespace {

using intersect::Kernel;

/// Restores the process-default kernel when a test exits (set_active is
/// process-global state).
class KernelGuard {
 public:
  KernelGuard() : saved_(intersect::active_kind()) {}
  ~KernelGuard() { intersect::set_active(saved_); }

 private:
  Kernel saved_;
};

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> kernels;
  for (const Kernel k : {Kernel::kScalar, Kernel::kAvx2}) {
    if (intersect::supported(k)) kernels.push_back(k);
  }
  return kernels;
}

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

void expect_all_kernels_agree(const std::vector<VertexId>& a,
                              const std::vector<VertexId>& b) {
  const std::size_t expected = oracle_count(a, b);
  for (const Kernel k : supported_kernels()) {
    ASSERT_TRUE(intersect::set_active(k));
    EXPECT_EQ(intersect::count(a.data(), a.size(), b.data(), b.size()),
              expected)
        << "kernel=" << intersect::kernel_name(k) << " |a|=" << a.size()
        << " |b|=" << b.size();
    // Symmetric call exercises the internal swap.
    EXPECT_EQ(intersect::count(b.data(), b.size(), a.data(), a.size()),
              expected)
        << "kernel=" << intersect::kernel_name(k) << " (swapped)";
  }
}

TEST(IntersectKernels, ScalarAlwaysSupported) {
  KernelGuard guard;  // restore whatever the suite default is
  EXPECT_TRUE(intersect::supported(Kernel::kScalar));
  EXPECT_TRUE(intersect::set_active(Kernel::kScalar));
  EXPECT_EQ(intersect::active_kind(), Kernel::kScalar);
}

TEST(IntersectKernels, NamesRoundTrip) {
  EXPECT_EQ(intersect::kernel_name(Kernel::kScalar), "scalar");
  EXPECT_EQ(intersect::kernel_name(Kernel::kAvx2), "avx2");
}

TEST(IntersectKernels, ScalarOnlyBuildDispatchesScalar) {
  // CPUID alone picks the process default; nothing in the environment can
  // move it. A scalar-only build has no vector row to pick.
#if !TLP_SIMD_X86
  EXPECT_EQ(intersect::best_supported(), Kernel::kScalar);
  EXPECT_EQ(intersect::active_kind(), Kernel::kScalar);
#else
  EXPECT_EQ(intersect::active_kind(), intersect::best_supported());
#endif
}

TEST(IntersectKernels, SetActiveRejectsUnsupported) {
  KernelGuard guard;
  const Kernel before = intersect::active_kind();
  if (!intersect::supported(Kernel::kAvx2)) {
    EXPECT_FALSE(intersect::set_active(Kernel::kAvx2));
    EXPECT_EQ(intersect::active_kind(), before) << "table must not change";
  }
}

TEST(IntersectKernels, EmptyAndTrivialLists) {
  KernelGuard guard;
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{7};
  const std::vector<VertexId> some{1, 5, 9, 12, 40};
  expect_all_kernels_agree(empty, empty);
  expect_all_kernels_agree(empty, some);
  expect_all_kernels_agree(one, some);
  expect_all_kernels_agree(one, one);
}

TEST(IntersectKernels, DisjointAndIdenticalAcrossLaneRemainders) {
  KernelGuard guard;
  // Lengths 0..65 cross every remainder of the 8-lane blocks (and the
  // 64 -> 65 boundary of two full AVX2 sweeps plus a tail of 1).
  for (std::size_t n = 0; n <= 65; ++n) {
    std::vector<VertexId> evens;
    std::vector<VertexId> odds;
    std::vector<VertexId> same;
    for (std::size_t i = 0; i < n; ++i) {
      evens.push_back(static_cast<VertexId>(2 * i));
      odds.push_back(static_cast<VertexId>(2 * i + 1));
      same.push_back(static_cast<VertexId>(3 * i));
    }
    expect_all_kernels_agree(evens, odds);  // fully disjoint, interleaved
    expect_all_kernels_agree(same, same);   // fully overlapping
  }
}

TEST(IntersectKernels, MismatchedLengthsEveryPairUpTo17) {
  KernelGuard guard;
  std::mt19937_64 rng(7);
  for (std::size_t na = 0; na <= 17; ++na) {
    for (std::size_t nb = 0; nb <= 17; ++nb) {
      const auto a = random_sorted_list(rng, na + 1, 64);
      const auto b = random_sorted_list(rng, nb + 1, 64);
      expect_all_kernels_agree(a, b);
    }
  }
}

TEST(IntersectKernels, GallopBoundarySkews) {
  KernelGuard guard;
  std::mt19937_64 rng(11);
  // Skews straddling kGallopSkew (16): 15x stays on the merge path, 16x
  // and 17x take the gallop path. Both paths of every kernel must agree
  // with the oracle right at the dispatch boundary.
  for (const std::size_t na : {1, 3, 5, 8}) {
    for (const std::size_t skew : {15, 16, 17}) {
      const std::size_t nb = na * skew;
      ASSERT_EQ(intersect::chooses_gallop(na, nb),
                skew >= intersect::kGallopSkew);
      const auto a = random_sorted_list(
          rng, na + 1, static_cast<VertexId>(4 * nb + 4));
      const auto b = random_sorted_list(
          rng, nb + 1, static_cast<VertexId>(4 * nb + 4));
      expect_all_kernels_agree(a, b);
    }
  }
}

TEST(IntersectKernels, ExtremeValuesNearVertexIdMax) {
  KernelGuard guard;
  // The vectorized gallop window compares with a sign-flip; values with
  // the high bit set are where that goes wrong if mishandled.
  const VertexId top = std::numeric_limits<VertexId>::max();
  std::vector<VertexId> a{0, top - 8, top - 2, top};
  std::vector<VertexId> b;
  for (VertexId i = 0; i < 128; ++i) b.push_back(top - 2 * i);
  std::sort(b.begin(), b.end());
  expect_all_kernels_agree(a, b);
}

TEST(IntersectKernels, RandomizedDifferentialFuzz) {
  KernelGuard guard;
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::size_t> len(0, 300);
  std::uniform_int_distribution<int> universe_pick(0, 2);
  for (int iter = 0; iter < 400; ++iter) {
    // Three density regimes: dense overlap, moderate, sparse.
    const VertexId universe =
        universe_pick(rng) == 0 ? 64 : (universe_pick(rng) == 1 ? 1024 : 65536);
    const auto a = random_sorted_list(rng, len(rng) + 1, universe);
    const auto b = random_sorted_list(rng, len(rng) + 1, universe);
    expect_all_kernels_agree(a, b);
  }
}

TEST(IntersectKernels, Stage1TermsMatchScalarBitForBit) {
  KernelGuard guard;
  std::mt19937_64 rng(33);
  std::uniform_int_distribution<std::uint32_t> count_dist(0, 5000);
  const std::size_t table_size = 4096;
  std::vector<std::uint32_t> counts(table_size);
  for (auto& c : counts) c = count_dist(rng);

  std::uniform_int_distribution<VertexId> id_dist(
      0, static_cast<VertexId>(table_size - 1));
  for (const std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64,
                              65, 200}) {
    std::vector<VertexId> ids(n);
    for (auto& id : ids) id = id_dist(rng);
    for (const double divisor : {1.0, 3.0, 7.0, 1000.0, 12345.0}) {
      // Scalar reference terms.
      std::vector<double> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = static_cast<double>(counts[ids[i]]) / divisor;
      }
      for (const Kernel k : supported_kernels()) {
        ASSERT_TRUE(intersect::set_active(k));
        std::vector<double> out(n, -1.0);
        intersect::active().stage1_terms(counts.data(), ids.data(), n,
                                         divisor, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          // Exact equality is the contract: correctly-rounded IEEE divide
          // in every kernel, never a reciprocal multiply.
          EXPECT_EQ(out[i], expected[i])
              << "kernel=" << intersect::kernel_name(k) << " i=" << i
              << " n=" << n << " divisor=" << divisor;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cost-model agreement (the Graph::intersection_cost contract).

TEST(IntersectionCostModel, BranchesExactlyWhereTheKernelDispatches) {
  KernelGuard guard;
  ASSERT_TRUE(intersect::set_active(Kernel::kScalar));
  for (std::size_t small = 1; small <= 20; ++small) {
    for (std::size_t skew = 14; skew <= 18; ++skew) {
      const std::size_t big = small * skew;
      const bool gallop = intersect::chooses_gallop(small, big);
      EXPECT_EQ(gallop, big >= Graph::kGallopSkew * small);
      // The scalar-kernel merge cost is small + big; the gallop cost is
      // small * (bit_width(big/small) + 2). intersection_cost must produce
      // the formula of the branch chooses_gallop picks — this is the
      // regression pin that model and execution can never diverge.
      const std::size_t cost = Graph::intersection_cost(small, big);
      std::size_t expect = small + big;
      if (gallop) {
        std::size_t log2 = 0;
        for (std::size_t r = big / small; r > 0; r >>= 1) ++log2;
        expect = small * (log2 + 2);
      }
      EXPECT_EQ(cost, expect) << "small=" << small << " big=" << big;
    }
  }
}

TEST(IntersectionCostModel, QuantizesMergeCostToActiveLaneWidth) {
  KernelGuard guard;
  for (const Kernel k : supported_kernels()) {
    ASSERT_TRUE(intersect::set_active(k));
    const std::size_t lanes = intersect::active().lane_width;
    const std::size_t cost = Graph::intersection_cost(10, 30);
    if (lanes <= 1) {
      EXPECT_EQ(cost, 40u);
    } else {
      EXPECT_EQ(cost, 2 * ((40 + lanes - 1) / lanes))
          << "kernel=" << intersect::kernel_name(k);
    }
    // Degenerate degrees keep their floor cost regardless of kernel.
    EXPECT_EQ(Graph::intersection_cost(0, 100), 1u);
    EXPECT_EQ(Graph::intersection_cost(100, 0), 1u);
  }
}

}  // namespace
}  // namespace tlp
