// Vectorized sorted-set intersection kernels with runtime dispatch — the
// instruction-level layer under common_neighbor_count.
//
// Counting |N(u) ∩ N(v)| over the 4-byte-stride neighbor_ids mirror (see
// DESIGN.md, "Hot-path memory layout") is a pure data-parallel loop, so
// this layer provides two implementations of each intersection path —
// scalar (the portable reference, byte-for-byte the pre-SIMD code) and
// AVX2 (8 VertexId lanes) — behind a table of function pointers resolved
// once per process by a runtime CPUID probe (AVX2 when the CPU and build
// have it, scalar otherwise). Code may re-pin the table with set_active()
// (test hook — the differential suites sweep every supported kernel in one
// process).
//
// Correctness contract: every kernel returns EXACTLY the same count as the
// scalar reference (counts are integers), so partitions are byte-identical
// across kernels by construction, and the unit suite differential-fuzzes
// each vector kernel against the scalar oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "graph/types.hpp"

namespace tlp::intersect {

/// Instruction sets a kernel table may target. Values are stable (the
/// perfbench `host.kernel` id reports them) and ordered by capability.
enum class Kernel : std::uint8_t { kScalar = 0, kAvx2 = 2 };

/// Stable short name: "scalar", "avx2".
[[nodiscard]] std::string_view kernel_name(Kernel k);

/// One resolved implementation set. All function pointers are non-null.
struct KernelTable {
  /// Intersection count of two sorted duplicate-free lists with
  /// comparable sizes (block merge). Precondition: na <= nb, na > 0.
  using CountFn = std::size_t (*)(const VertexId* a, std::size_t na,
                                  const VertexId* b, std::size_t nb);

  CountFn merge;   ///< linear path (lane-parallel block compare)
  CountFn gallop;  ///< skewed path (exponential search + vector window)
  Kernel kind;
};

/// True iff the running CPU (and build configuration) can execute `k`.
/// kScalar is always supported.
[[nodiscard]] bool supported(Kernel k);

/// Highest supported kernel on this CPU/build.
[[nodiscard]] Kernel best_supported();

/// The active kernel table. First use resolves it to best_supported(); the
/// pointer is then stable until set_active().
[[nodiscard]] const KernelTable& active();

/// Convenience: active().kind.
[[nodiscard]] Kernel active_kind();

/// TEST HOOK: pins the active table to `k`. Returns false (and leaves the
/// table unchanged) when `k` is unsupported. Not safe to call while a
/// partition run is in flight on another thread — intended for the
/// differential suites and benches, which sweep kernels serially.
bool set_active(Kernel k);

/// Degree skew ratio at or above which count() abandons the linear merge
/// for a galloping scan of the longer list. Graph::kGallopSkew aliases
/// this value.
inline constexpr std::size_t kGallopSkew = 16;

/// The gallop-vs-merge predicate: true iff count(a, na, b, nb) takes the
/// galloping path. Pure in the sizes.
[[nodiscard]] inline bool chooses_gallop(std::size_t na, std::size_t nb) {
  const std::size_t small = na < nb ? na : nb;
  const std::size_t big = na < nb ? nb : na;
  return small > 0 && big >= kGallopSkew * small;
}

/// |a ∩ b| for sorted duplicate-free lists, through the active kernel.
/// Handles the swap/empty preconditions and the gallop dispatch.
[[nodiscard]] inline std::size_t count(const VertexId* a, std::size_t na,
                                       const VertexId* b, std::size_t nb) {
  if (na > nb) {
    const VertexId* t = a;
    a = b;
    b = t;
    const std::size_t tn = na;
    na = nb;
    nb = tn;
  }
  if (na == 0) return 0;
  const KernelTable& k = active();
  return chooses_gallop(na, nb) ? k.gallop(a, na, b, nb)
                                : k.merge(a, na, b, nb);
}

}  // namespace tlp::intersect
