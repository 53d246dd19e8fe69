// Frontier: the candidate set N(P_k) with incremental scores for both of the
// paper's selection criteria. One implementation serves BOTH growth loops:
// the sequential TLP run (core/tlp.cpp, frozen residual degrees, lazy μs1
// upgrades via add_connection) and the concurrent multi-partition run
// (core/multi_tlp.cpp, where another partition can claim a candidate's edges
// so c/rdeg/μs1 are re-stated eagerly via upsert).
//
// Key performance facts exploited here (see DESIGN.md):
//  * While a vertex sits in the frontier of a sequential round, none of its
//    incident edges get assigned (edges are only claimed when their endpoint
//    joins), so its residual degree r is FROZEN for the round. Its connection
//    count c to P_k only grows.
//  * Stage I score μs1 (Eq. 7) is a max over per-member terms that never
//    change once computed, so a running max updated on each neighboring join
//    is exact. Selection uses a lazy max-heap.
//  * Stage II score μs2 (Eq. 9) is monotone in M' = (E_in + c)/(E_out + r - 2c).
//    For fixed (E_in, E_out), M' is increasing in c and decreasing in r, so
//    within a fixed c the best candidate is the one with minimal r, and the
//    global argmax is found by scanning one best candidate per distinct c
//    value — O(#distinct c) instead of O(|frontier|) per step. Buckets are
//    lazily-invalidated min-heaps: entries from superseded (c, rdeg) states
//    are dropped when they surface.
//
// Hot-path memory layout (this is the single hottest structure in the
// system, so none of it chases pointers):
//  * Candidates live in a DENSE per-vertex array (`Candidate cand_[n]`)
//    paired with an epoch stamp per slot: slot v is live iff
//    stamp_[v] == epoch_. contains()/connections()/add_connection() are an
//    O(1) stamp check plus an array index — no hashing, no node allocation.
//    clear() is an epoch bump (plus resetting the selection storage), not an
//    O(|frontier|) teardown.
//  * Stage-2 buckets form a FLAT LADDER indexed by c - 1 with a high-water
//    mark: c is small and dense (it grows by 1 per neighboring join), so a
//    vector of buckets replaces the former std::map<c, Bucket>. Drained
//    buckets keep their storage for the next round instead of being erased.
//  * The stage-1 heap, the bucket ladder's heaps, and both dense arrays are
//    leased from a ScratchArena, so a frontier constructed from a
//    RunContext's arena stops allocating after warm-up: the join/select path
//    is allocation-free from the second run onward.
// A default-constructed Frontier owns a private arena and grows its dense
// arrays on demand (tests, one-off use); pass the vertex count up front to
// pre-size them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "partition/run_context.hpp"

namespace tlp {

class Frontier {
 public:
  struct Candidate {
    std::uint32_t c = 0;     ///< residual connections to the partition
    std::uint32_t rdeg = 0;  ///< residual degree (frozen per sequential round)
    double mu1 = 0.0;        ///< running max of Stage-I terms (exact)
  };

  /// Self-contained frontier backed by a private arena (tests, one-off use).
  Frontier();
  /// Frontier whose storage is leased from `arena` — pass the RunContext's
  /// arena so repeated runs reuse capacity. `num_vertices` pre-sizes the
  /// dense candidate array (0 = grow on demand, used by callers that track
  /// only a sparse region per partition). The arena must outlive the
  /// frontier.
  explicit Frontier(ScratchArena& arena, VertexId num_vertices = 0);

  /// Removes all candidates (start of a new round). O(high-water c), not
  /// O(|frontier|): live slots are invalidated by bumping the epoch.
  void clear();

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(VertexId v) const {
    return v < stamp_->size() && (*stamp_)[v] == epoch_;
  }

  /// Current state of candidate v. Precondition: contains(v).
  [[nodiscard]] const Candidate& at(VertexId v) const {
    assert(contains(v));
    return (*cand_)[v];
  }

  /// Residual connections of candidate v to the current partition (c_v).
  /// Precondition: contains(v).
  [[nodiscard]] std::uint32_t connections(VertexId v) const { return at(v).c; }

  /// Records that candidate u gained a residual connection to the partition
  /// via a joining member. The Stage-I contribution (Eq. 7 term
  /// |N(u) ∩ N(member)| / |N(member)|) can be expensive, so callers pass a
  /// cheap upper bound plus a thunk computing the exact term; the thunk is
  /// only invoked when the bound can beat u's current running max. Inserts u
  /// (with frozen residual degree `residual_degree`) if new.
  template <typename ScoreFn>
  void add_connection(VertexId u, std::uint32_t residual_degree,
                      double score_bound, ScoreFn&& score_fn) {
    ensure_slot(u);
    Candidate& cand = (*cand_)[u];
    if ((*stamp_)[u] != epoch_) {
      (*stamp_)[u] = epoch_;
      ++size_;
      cand.c = 1;
      cand.rdeg = residual_degree;
      cand.mu1 = score_fn();
      bucket_push(cand.c, cand.rdeg, u);
      stage1_push(cand.mu1, u);
      return;
    }
    assert(cand.rdeg == residual_degree);  // frozen within a round
    ++cand.c;
    bucket_push(cand.c, cand.rdeg, u);  // old-c entry is dropped lazily
    if (score_bound > cand.mu1) {
      const double term = score_fn();
      if (term > cand.mu1) {
        cand.mu1 = term;
        stage1_push(cand.mu1, u);
      }
    }
  }

  /// Non-lazy convenience overload (window growth, tests, simple callers).
  /// Argument order matches the lazy overload: vertex, residual degree,
  /// then the score term.
  void add_connection(VertexId u, std::uint32_t residual_degree,
                      double score_term) {
    add_connection(u, residual_degree, score_term,
                   [score_term] { return score_term; });
  }

  /// Eager path (concurrent growth): inserts or re-states candidate v with
  /// exact values — unlike add_connection, c/rdeg/μs1 may all move in any
  /// direction here (another partition claimed some of v's edges). Heap
  /// entries are only pushed for keys that actually changed — an unchanged
  /// key already has a live entry.
  void upsert(VertexId v, std::uint32_t c, std::uint32_t rdeg, double mu1) {
    ensure_slot(v);
    Candidate& cand = (*cand_)[v];
    const bool fresh = (*stamp_)[v] != epoch_;
    if (fresh) {
      (*stamp_)[v] = epoch_;
      ++size_;
    }
    const bool push_stage1 = fresh || cand.mu1 != mu1;
    const bool push_bucket = fresh || cand.c != c || cand.rdeg != rdeg;
    cand = Candidate{c, rdeg, mu1};
    if (push_stage1) stage1_push(mu1, v);
    if (push_bucket) bucket_push(c, rdeg, v);
  }

  /// Removes v (it joined the partition, or lost its last connection).
  /// No-op when v is not a candidate.
  void remove(VertexId v) {
    if (!contains(v)) return;
    (*stamp_)[v] = 0;
    --size_;
    // Heap and bucket entries become stale and are skipped lazily.
  }

  /// Stage-I selection: argmax μs1, ties by smaller vertex id. Returns
  /// kInvalidVertex when empty.
  [[nodiscard]] VertexId select_stage1();

  /// Stage-II selection: argmax M' = (e_in + c)/(e_out + r - 2c); an empty
  /// post-join external set (denominator 0) ranks above everything. Ties by
  /// larger c, then smaller r, then smaller id. Returns kInvalidVertex when
  /// empty.
  [[nodiscard]] VertexId select_stage2(EdgeId e_in, EdgeId e_out);

 private:
  struct HeapEntry {
    double mu1;
    VertexId vertex;
    /// Max-heap order: the top is the highest μs1 with the smallest id.
    friend bool operator<(const HeapEntry& a, const HeapEntry& b) {
      if (a.mu1 != b.mu1) return a.mu1 < b.mu1;
      return a.vertex > b.vertex;
    }
  };

  /// Min-heap of (rdeg, vertex) used per stage-2 bucket; backing vector
  /// leased from the arena (std::push_heap/pop_heap, std::greater order).
  using Bucket = ScratchArena::Lease<std::pair<std::uint32_t, VertexId>>;

  // own_arena_ is declared before every lease-holding member so leases are
  // destroyed (returned) before the arena they came from.
  std::unique_ptr<ScratchArena> own_arena_;
  ScratchArena* arena_;

  /// Dense per-vertex candidate slots; slot v is live iff
  /// stamp_[v] == epoch_ (0 is never a valid epoch).
  ScratchArena::Lease<Candidate> cand_;
  ScratchArena::Lease<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;

  /// Lazy max-heap for Stage I; entries are validated against cand_.
  ScratchArena::Lease<HeapEntry> stage1_heap_;
  /// Flat Stage-II bucket ladder: ladder_[c - 1] holds connection count c.
  /// Slots up to hwm_c_ may hold entries this round; drained buckets keep
  /// their lease (and capacity) instead of being erased.
  std::vector<Bucket> ladder_;
  std::uint32_t hwm_c_ = 0;

  /// Grows the dense arrays to cover vertex v (amortized doubling; no-op on
  /// the pre-sized fast path).
  void ensure_slot(VertexId v) {
    if (static_cast<std::size_t>(v) < stamp_->size()) return;
    grow_to(static_cast<std::size_t>(v) + 1);
  }
  void grow_to(std::size_t n);

  void stage1_push(double mu1, VertexId v) {
    stage1_heap_->push_back({mu1, v});
    std::push_heap(stage1_heap_->begin(), stage1_heap_->end());
  }
  void bucket_push(std::uint32_t c, std::uint32_t rdeg, VertexId v);

  /// True iff (c, rdeg, v) is the candidate's live bucket entry.
  [[nodiscard]] bool bucket_entry_live(
      std::uint32_t c, const std::pair<std::uint32_t, VertexId>& entry) const {
    if (!contains(entry.second)) return false;
    const Candidate& cand = (*cand_)[entry.second];
    return cand.c == c && cand.rdeg == entry.first;
  }
};

}  // namespace tlp
