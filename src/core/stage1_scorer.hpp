// The Stage-I scorer shared by sequential (core/tlp.cpp) and round-robin
// (core/multi_tlp.cpp) growth. Eq. 7 scores candidate u via joining
// member v by |N(u) ∩ N(v)| / |N(v)|, and one join scores many u against
// the same v. So the scorer sets the bits of N(v) in an n-bit table once,
// on the first term the join needs, and counts each |N(u) ∩ N(v)| by
// probing that table along N(u): O(deg u) per term, with no merge over
// N(v). Only a hub u (deg u >= kGallopSkew · deg v) is counted by a
// galloping intersection instead. When the join ends, only the
// words of N(v) are cleared, so the table is all-zero between joins
// without an O(n) sweep.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "graph/intersect_kernels.hpp"
#include "partition/run_context.hpp"

namespace tlp {

class Stage1Scorer {
 public:
  /// The n-bit table is leased from `arena`, so a warm rerun reuses it.
  Stage1Scorer(const Graph& g, ScratchArena& arena)
      : g_(g),
        bits_(arena.acquire<std::uint64_t>(
            (static_cast<std::size_t>(g.num_vertices()) + 63) / 64, 0)) {}

  /// Scores candidates against one joining member v. The table holds N(v)
  /// from the first common()/term() call until the scope ends; at most one
  /// scope per scorer may be alive at a time.
  class Join {
   public:
    Join(Stage1Scorer& scorer, VertexId v)
        : scorer_(scorer), nv_(scorer.g_.neighbor_ids(v)) {}
    ~Join() {
      if (loaded_) scorer_.clear(nv_);
    }
    Join(const Join&) = delete;
    Join& operator=(const Join&) = delete;

    /// |N(u) ∩ N(v)|, exactly Graph::common_neighbor_count(u, v). A probe
    /// costs deg(u), so when u is the hub that intersect::count would
    /// gallop over (deg u >= kGallopSkew · deg v), the term comes from
    /// that galloping count on the two sorted lists instead.
    [[nodiscard]] std::size_t common(VertexId u) {
      const auto nu = scorer_.g_.neighbor_ids(u);
      if (nu.size() > nv_.size() &&
          intersect::chooses_gallop(nv_.size(), nu.size())) {
        return intersect::count(nv_.data(), nv_.size(), nu.data(), nu.size());
      }
      if (!loaded_) {
        scorer_.load(nv_);
        loaded_ = true;
      }
      return scorer_.probe(nu);
    }

    /// The Eq. 7 term |N(u) ∩ N(v)| / |N(v)|, as one IEEE double division.
    /// Precondition: deg(v) > 0.
    [[nodiscard]] double term(VertexId u) {
      return static_cast<double>(common(u)) /
             static_cast<double>(nv_.size());
    }

   private:
    Stage1Scorer& scorer_;
    std::span<const VertexId> nv_;
    bool loaded_ = false;
  };

  /// μs1(u) from scratch (Eq. 7): the max of |N(u) ∩ N(v)| / |N(v)| over
  /// the neighbours v of u whose incidence `reaches(nb)` accepts. A growth
  /// run accepts the members of its partition that reach u by a residual
  /// edge, so this is the running max an eager frontier would hold. N(u)
  /// is loaded once and probed along each N(v); a term whose Eq. 7 bound
  /// min(deg u, deg v) / deg v cannot beat the max so far is skipped, which
  /// never changes the max. Opens a Join scope on u, so no other scope of
  /// this scorer may be alive.
  template <typename Reaches>
  [[nodiscard]] double mu1(VertexId u, Reaches&& reaches) {
    Join scores(*this, u);
    const std::size_t du = g_.degree(u);
    double best = 0.0;
    for (const Neighbor& nb : g_.neighbors(u)) {
      if (!reaches(nb)) continue;
      const std::size_t dv = g_.degree(nb.vertex);
      const auto den = static_cast<double>(dv);
      if (static_cast<double>(std::min(du, dv)) / den <= best) continue;
      best = std::max(best,
                      static_cast<double>(scores.common(nb.vertex)) / den);
    }
    return best;
  }

  /// The table's words; all zero whenever no Join scope holds it.
  [[nodiscard]] std::span<const std::uint64_t> words() const { return *bits_; }

 private:
  void load(std::span<const VertexId> ids) {
    for (const VertexId w : ids) {
      bits_[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  }

  [[nodiscard]] std::size_t probe(std::span<const VertexId> ids) const {
    std::size_t count = 0;
    for (const VertexId w : ids) {
      count += (bits_[w >> 6] >> (w & 63)) & 1u;
    }
    return count;
  }

  void clear(std::span<const VertexId> ids) {
    for (const VertexId w : ids) bits_[w >> 6] = 0;
  }

  const Graph& g_;
  ScratchArena::Lease<std::uint64_t> bits_;
};

}  // namespace tlp
