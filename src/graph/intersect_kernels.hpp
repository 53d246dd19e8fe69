// Sorted-set intersection — the layer under Graph::common_neighbor_count
// and the Stage-I scorer's hub case.
//
// count() takes |a ∩ b| over two sorted duplicate-free lists (the 4-byte
// neighbor_ids mirror, see DESIGN.md, "Hot-path memory layout") by one of
// two scalar paths: a linear merge when the sizes are comparable, or a
// galloping scan of the longer list when they are skewed by at least
// kGallopSkew×. Both return the exact integer count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "graph/types.hpp"

namespace tlp::intersect {

/// Id of the intersection path, as the perfbench `host.kernel` field
/// reports it. Scalar is the only path.
enum class Kernel : std::uint8_t { kScalar = 0 };

/// Stable short name: "scalar".
[[nodiscard]] constexpr std::string_view kernel_name(Kernel) {
  return "scalar";
}

/// The path count() takes: `kind` is always Kernel::kScalar.
struct ActiveKernel {
  Kernel kind;
};

[[nodiscard]] constexpr ActiveKernel active() { return {Kernel::kScalar}; }

/// Degree skew ratio at or above which count() abandons the linear merge
/// for a galloping scan of the longer list.
inline constexpr std::size_t kGallopSkew = 16;

/// The gallop-vs-merge predicate: true iff count(a, na, b, nb) takes the
/// galloping path. Pure in the sizes.
[[nodiscard]] inline bool chooses_gallop(std::size_t na, std::size_t nb) {
  const std::size_t small = na < nb ? na : nb;
  const std::size_t big = na < nb ? nb : na;
  return small > 0 && big >= kGallopSkew * small;
}

/// |a ∩ b| for sorted duplicate-free lists, in either argument order;
/// either list may be empty.
[[nodiscard]] std::size_t count(const VertexId* a, std::size_t na,
                                const VertexId* b, std::size_t nb);

}  // namespace tlp::intersect
