// The Stage-I scorer shared by sequential (core/tlp.cpp) and super-step
// (core/multi_tlp.cpp) growth. Eq. 7 scores candidate u via joining
// member v by |N(u) ∩ N(v)| / |N(v)|, and one join scores many u against
// the same v. So the scorer sets the bits of N(v) in an n-bit table once,
// on the first term the join needs, and counts each |N(u) ∩ N(v)| by
// probing that table along N(u): O(deg u) per term, with no merge over
// N(v) and no choice of strategy per join. When the join ends, only the
// words of N(v) are cleared, so the table is all-zero between joins
// without an O(n) sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
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
    Join(Stage1Scorer& scorer, VertexId v) : scorer_(scorer), v_(v) {}
    ~Join() {
      if (loaded_) scorer_.clear(v_);
    }
    Join(const Join&) = delete;
    Join& operator=(const Join&) = delete;

    /// |N(u) ∩ N(v)|, exactly Graph::common_neighbor_count(u, v).
    [[nodiscard]] std::size_t common(VertexId u) {
      if (!loaded_) {
        scorer_.load(v_);
        loaded_ = true;
      }
      return scorer_.probe(u);
    }

    /// The Eq. 7 term |N(u) ∩ N(v)| / |N(v)|, as one IEEE double division.
    /// Precondition: deg(v) > 0.
    [[nodiscard]] double term(VertexId u) {
      return static_cast<double>(common(u)) /
             static_cast<double>(scorer_.g_.degree(v_));
    }

   private:
    Stage1Scorer& scorer_;
    VertexId v_;
    bool loaded_ = false;
  };

  /// The table's words; all zero whenever no Join scope holds it.
  [[nodiscard]] std::span<const std::uint64_t> words() const { return *bits_; }

 private:
  void load(VertexId v) {
    for (const VertexId w : g_.neighbor_ids(v)) {
      bits_[w >> 6] |= std::uint64_t{1} << (w & 63);
    }
  }

  [[nodiscard]] std::size_t probe(VertexId u) const {
    std::size_t count = 0;
    for (const VertexId w : g_.neighbor_ids(u)) {
      count += (bits_[w >> 6] >> (w & 63)) & 1u;
    }
    return count;
  }

  void clear(VertexId v) {
    for (const VertexId w : g_.neighbor_ids(v)) bits_[w >> 6] = 0;
  }

  const Graph& g_;
  ScratchArena::Lease<std::uint64_t> bits_;
};

}  // namespace tlp
