// Vectorized sorted-set intersection and score kernels with runtime
// dispatch — the instruction-level layer under the TLP growth hot path.
//
// The partitioners spend almost all of their time in two loops over the
// 4-byte-stride neighbor_ids mirror (see DESIGN.md, "Hot-path memory
// layout"): counting |N(u) ∩ N(v)| and turning per-candidate counts into
// Stage-I score terms. Both are pure data-parallel kernels, so this layer
// provides two implementations of each — scalar (the portable reference,
// byte-for-byte the pre-SIMD code) and AVX2 (8 VertexId lanes) — behind a
// table of function pointers resolved once per process by a runtime CPUID
// probe (AVX2 when the CPU and build have it, scalar otherwise). Code may
// re-pin the table with set_active() (test hook — the differential suites
// sweep every supported kernel in one process).
//
// Correctness contract: every kernel returns EXACTLY the same values as
// the scalar reference — intersection counts are integers, and the
// stage1_terms kernels use the same correctly-rounded IEEE double divide
// the scalar expression uses (never a reciprocal multiply) — so partitions
// are byte-identical across kernels by construction, and the unit suite
// differential-fuzzes each vector kernel against the scalar oracle.
//
// The gallop-vs-merge decision (chooses_gallop) is shared between the
// dispatching count() entry and Graph::intersection_cost, so the cost
// model can never predict a different path than the kernel executes.
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
  /// Batched Stage-I terms: out[i] = double(counts[ids[i]]) / divisor for
  /// i in [0, n). `counts` is a dense per-vertex table; `divisor` > 0.
  using TermsFn = void (*)(const std::uint32_t* counts, const VertexId* ids,
                           std::size_t n, double divisor, double* out);

  CountFn merge;          ///< linear path (lane-parallel block compare)
  CountFn gallop;         ///< skewed path (exponential search + vector window)
  TermsFn stage1_terms;   ///< batched score-term kernel
  std::uint32_t lane_width;  ///< VertexId lanes per vector op (1 / 8)
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

/// The shared gallop-vs-merge predicate: true iff count(a, na, b, nb)
/// takes the galloping path. Pure in the sizes; also the branch
/// Graph::intersection_cost models (a regression test pins the agreement).
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
  return nb >= kGallopSkew * na ? k.gallop(a, na, b, nb)
                                : k.merge(a, na, b, nb);
}

}  // namespace tlp::intersect
