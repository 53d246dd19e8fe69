#include "graph/intersect_kernels.hpp"

#include <atomic>
#include <bit>
#include <cassert>

#include "util/simd.hpp"

#if TLP_SIMD_X86
#include <immintrin.h>
#endif

namespace tlp::intersect {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels — byte-for-byte the pre-SIMD Graph code. Every
// vector kernel below is differential-tested against these.
// ---------------------------------------------------------------------------

std::size_t merge_scalar(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb) {
  std::size_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::size_t gallop_scalar(const VertexId* a, std::size_t na, const VertexId* b,
                          std::size_t nb) {
  // Galloping intersection: both lists are sorted, so for each element of
  // the short list, exponential-search forward in the long list from the
  // previous match position. Total O(na · log(nb / na)).
  std::size_t count = 0;
  std::size_t pos = 0;  // cursor into b; only ever advances
  for (std::size_t k = 0; k < na; ++k) {
    const VertexId target = a[k];
    std::size_t lo = pos;
    std::size_t hi = pos;
    std::size_t step = 1;
    while (hi < nb && b[hi] < target) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > nb) hi = nb;
    // Invariant: b[lo - 1] < target (or lo == pos) and b[hi] >= target
    // (or hi == nb); binary-search the gap.
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (b[mid] < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pos = lo;
    if (pos == nb) break;  // everything left in a is larger too
    if (b[pos] == target) {
      ++count;
      ++pos;
    }
  }
  return count;
}

void terms_scalar(const std::uint32_t* counts, const VertexId* ids,
                  std::size_t n, double divisor, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(counts[ids[i]]) / divisor;
  }
}

#if TLP_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernels (8 VertexId lanes). Compiled with a per-function target
// attribute so the translation unit itself needs no -mavx2; only taken
// after a runtime CPUID probe. All loads are the unaligned intrinsic forms
// (adjacency spans carry no alignment guarantee).
// ---------------------------------------------------------------------------

/// 8x8 block merge: compare an 8-lane block of `a` against every rotation
/// of an 8-lane block of `b` (cross-lane rotations via vpermd; equality is
/// sign-agnostic, so unsigned ids are fine), popcount the match mask, and
/// advance the block whose maximum is smaller — the classic shuffle-compare
/// intersection (Schlegel et al.; SNIPPETS.md). Each matching element is
/// counted exactly once because the block-pair staircase visits every
/// (A-block, B-block) pair that can hold a match, and the lists are
/// duplicate-free.
__attribute__((target("avx2"))) std::size_t merge_avx2(const VertexId* a,
                                                       std::size_t na,
                                                       const VertexId* b,
                                                       std::size_t nb) {
  std::size_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  if (na >= 8 && nb >= 8) {
    const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    for (;;) {
      __m256i probe = vb;
      __m256i eq = _mm256_cmpeq_epi32(va, probe);
      for (int r = 1; r < 8; ++r) {
        probe = _mm256_permutevar8x32_epi32(probe, rot1);
        eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, probe));
      }
      count += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(
              _mm256_movemask_ps(_mm256_castsi256_ps(eq)))));
      const VertexId amax = a[i + 7];
      const VertexId bmax = b[j + 7];
      if (amax <= bmax) i += 8;
      if (bmax <= amax) j += 8;
      if (i + 8 > na || j + 8 > nb) break;
      va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    }
  }
  // Scalar tail: no match pair straddles the processed/unprocessed split
  // (a block is only retired once every b element it could match has been
  // compared against it, and vice versa).
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Galloping path with a vectorized landing window: the exponential search
/// keeps its scalar probes (they are O(log) and branchy), the binary search
/// stops once the gap fits in one vector, and the final "first element
/// >= target" scan becomes one unsigned-compare + movemask + popcount.
/// Unsigned order uses the sign-flip trick (x <u y  ⇔  x^MSB <s y^MSB).
__attribute__((target("avx2"))) std::size_t gallop_avx2(const VertexId* a,
                                                        std::size_t na,
                                                        const VertexId* b,
                                                        std::size_t nb) {
  const __m256i flip = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  std::size_t count = 0;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < na; ++k) {
    const VertexId target = a[k];
    std::size_t lo = pos;
    std::size_t hi = pos;
    std::size_t step = 1;
    while (hi < nb && b[hi] < target) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > nb) hi = nb;
    while (hi - lo > 8) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (b[mid] < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (nb - lo >= 8) {
      const __m256i win = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + lo)), flip);
      const __m256i tgt = _mm256_xor_si256(
          _mm256_set1_epi32(static_cast<int>(target)), flip);
      unsigned lt = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(tgt, win))));
      lt &= (1u << (hi - lo)) - 1u;  // lanes past hi are >= target anyway
      lo += static_cast<std::size_t>(std::popcount(lt));
    } else {
      while (lo < hi && b[lo] < target) ++lo;
    }
    pos = lo;
    if (pos == nb) break;
    if (b[pos] == target) {
      ++count;
      ++pos;
    }
  }
  return count;
}

/// 4-wide batched Stage-I terms: hardware gather of the per-vertex counts,
/// exact int32→double convert, correctly-rounded divide. The divide stays
/// an IEEE double division (identical to the scalar expression) — never a
/// reciprocal multiply, which would break cross-kernel byte-identity.
__attribute__((target("avx2"))) void terms_avx2(const std::uint32_t* counts,
                                                const VertexId* ids,
                                                std::size_t n, double divisor,
                                                double* out) {
  const __m256d vdiv = _mm256_set1_pd(divisor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vids =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    const __m128i vc = _mm_i32gather_epi32(
        reinterpret_cast<const int*>(counts), vids, 4);
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_cvtepi32_pd(vc), vdiv));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<double>(counts[ids[i]]) / divisor;
  }
}

#endif  // TLP_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

constexpr KernelTable kScalarTable = {merge_scalar, gallop_scalar,
                                      terms_scalar, 1, Kernel::kScalar};
#if TLP_SIMD_X86
constexpr KernelTable kAvx2Table = {merge_avx2, gallop_avx2, terms_avx2, 8,
                                    Kernel::kAvx2};
#endif

const KernelTable* table_for(Kernel k) {
#if TLP_SIMD_X86
  if (k == Kernel::kAvx2) return &kAvx2Table;
#else
  (void)k;
#endif
  return &kScalarTable;
}

std::atomic<const KernelTable*>& active_slot() {
  static std::atomic<const KernelTable*> slot{table_for(best_supported())};
  return slot;
}

}  // namespace

std::string_view kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool supported(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return true;
    case Kernel::kAvx2:
      return simd::cpu_supports_avx2();
  }
  return false;
}

Kernel best_supported() {
  return supported(Kernel::kAvx2) ? Kernel::kAvx2 : Kernel::kScalar;
}

const KernelTable& active() {
  return *active_slot().load(std::memory_order_relaxed);
}

Kernel active_kind() { return active().kind; }

bool set_active(Kernel k) {
  if (!supported(k)) return false;
  active_slot().store(table_for(k), std::memory_order_relaxed);
  return true;
}

}  // namespace tlp::intersect
