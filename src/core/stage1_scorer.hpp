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
//
// The neighbourhoods are the static input ones, so each edge's count is a
// fixed integer, and a growth run counts it at most once. The count lives
// in the edge's own assignment word, which holds kNoPartition while the
// edge is residual: kNoPartition means "not counted yet", kCountTag | count
// means "counted, still residual", and a partition id k < kCountTag means
// claimed (the claim overwrites the count). So a run needs no m-entry side
// array: a separate arena-leased uint32 cache was as fast, but raised the
// perfbench `sparse-outofcore` peak RSS from 178.0 to 186.4 MB. Before the
// words become an EdgePartition, clear_counts() turns the codes left on
// residual edges back into kNoPartition, so the spill and the output see
// only partition ids and kNoPartition.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "graph/graph.hpp"
#include "graph/intersect_kernels.hpp"
#include "partition/run_context.hpp"

namespace tlp {

class Stage1Scorer {
 public:
  /// The tag bit of a counted residual edge's assignment word. Partition
  /// ids must stay below it (require_untagged_ids).
  static constexpr PartitionId kCountTag = PartitionId{1} << 31;

  /// Throws std::invalid_argument when num_partitions >= kCountTag, so a
  /// partition id never carries the tag bit. The growth engines call it
  /// before they allocate anything p-sized.
  static void require_untagged_ids(PartitionId num_partitions) {
    if (num_partitions >= kCountTag) {
      throw std::invalid_argument(
          "growth: num_partitions must be below 2^31");
    }
  }

  /// Turns every count code back into kNoPartition (claimed words and
  /// kNoPartition are left as they are).
  static void clear_counts(std::span<PartitionId> words) {
    for (PartitionId& w : words) {
      if (w >= kCountTag) w = kNoPartition;
    }
  }

  /// The n-bit table is leased from `arena`, so a warm rerun reuses it.
  /// `assignment` holds the run's m assignment words (kNoPartition, a count
  /// code or a partition id each); the cached counts are read and written
  /// there. Only common(u, e), term(u, e) and mu1 touch it.
  Stage1Scorer(const Graph& g, ScratchArena& arena,
               std::span<PartitionId> assignment)
      : g_(g),
        bits_(arena.acquire<std::uint64_t>(
            (static_cast<std::size_t>(g.num_vertices()) + 63) / 64, 0)),
        assignment_(assignment) {}

  /// Scores candidates against one joining member v. The table holds N(v)
  /// from the first intersection until the scope ends; at most one scope
  /// per scorer may be alive at a time.
  class Join {
   public:
    Join(Stage1Scorer& scorer, VertexId v)
        : scorer_(scorer), nv_(scorer.g_.neighbor_ids(v)) {}
    ~Join() {
      if (loaded_) scorer_.clear(nv_);
    }
    Join(const Join&) = delete;
    Join& operator=(const Join&) = delete;

    /// |N(u) ∩ N(v)|, exactly Graph::common_neighbor_count(u, v), counted
    /// afresh. A probe costs deg(u), so when u is the hub that
    /// intersect::count would gallop over (deg u >= kGallopSkew · deg v),
    /// the term comes from that galloping count on the two sorted lists
    /// instead.
    [[nodiscard]] std::size_t common(VertexId u) {
      ++scorer_.intersections_;
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

    /// common(u) for the residual edge e = {u, v}: read from e's word when
    /// the run has counted e before, else counted and stored there.
    /// Precondition: e is residual (its word is kNoPartition or a count).
    [[nodiscard]] std::size_t common(VertexId u, EdgeId e) {
      PartitionId& word = scorer_.assignment_[static_cast<std::size_t>(e)];
      assert(word >= kCountTag);
      if (word != kNoPartition) return word & ~kCountTag;
      const std::size_t count = common(u);
      // kCountTag | (kCountTag - 1) would read as kNoPartition.
      if (count < kCountTag - 1) {
        word = kCountTag | static_cast<PartitionId>(count);
      }
      return count;
    }

    /// The Eq. 7 term |N(u) ∩ N(v)| / |N(v)| of the residual edge
    /// e = {u, v}, as one IEEE double division. Precondition: deg(v) > 0.
    [[nodiscard]] double term(VertexId u, EdgeId e) {
      return static_cast<double>(common(u, e)) /
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
  /// edge, so this is the running max an eager frontier would hold. Each
  /// term's count comes from the edge's word when cached, else N(u) is
  /// loaded once and probed along N(v); a term whose Eq. 7 bound
  /// min(deg u, deg v) / deg v cannot beat the max so far is skipped, which
  /// never changes the max. Opens a Join scope on u, so no other scope of
  /// this scorer may be alive. Precondition: `reaches` accepts only
  /// residual edges.
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
      best = std::max(
          best, static_cast<double>(scores.common(nb.vertex, nb.edge)) / den);
    }
    return best;
  }

  /// Intersections actually run (probes plus gallops) since construction;
  /// cached counts are not included.
  [[nodiscard]] std::size_t intersections() const { return intersections_; }

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
  std::span<PartitionId> assignment_;
  std::size_t intersections_ = 0;
};

}  // namespace tlp
