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
//  * Only ONE index is live: the one of the stage the caller last selected
//    from. A round runs long stretches in one stage (it leaves Stage II for
//    Stage I only a handful of times per run), so while Stage I selects,
//    a connection skips the Stage-II ladder push, and while Stage II
//    selects, it skips the Stage-I heap push and the lazy overload never
//    calls its μs1 thunk. After clear() both indexes are maintained until
//    the round's first select picks one.
//  * A switch rebuilds the other index from a TOUCHED LIST of (v, c)
//    records, one per connection since the last switch; only the record
//    whose c equals v's current c acts, which dedups without a per-vertex
//    flag. Switching to Stage II pushes one ladder entry per touched
//    candidate. Switching back to Stage I re-states each touched
//    candidate's μs1 through the caller's rescore function (the lazy
//    overload left it stale) and pushes it onto the heap. Candidates not
//    touched since the last switch keep their entries, which are still
//    live. A switch therefore costs O(candidates touched since the last
//    switch), never O(|frontier|). Both indexes end up holding exactly the
//    (c, rdeg, μs1) an eager frontier would hold, so every selection — and
//    every output byte — is the same.
//
// Hot-path memory layout (this is the single hottest structure in the
// system, so none of it chases pointers):
//  * Every vertex has ONE 24-byte hot record (`Slot slots_[n]`): two epoch
//    tags, then the candidate state (c, rdeg, μs1). v is a candidate iff
//    its `stamp` equals round_, and a member of the round's partition iff
//    its `member` tag does. A growth join asks both questions of every
//    neighbour and then updates the same neighbour's candidate state, so
//    one slot (one or two cache lines, which a caller can prefetch ahead
//    of the join's loop) answers everything the frontier knows about it.
//    The tags lead the slot, so the 8 bytes is_member()/contains() read
//    never straddle a cache line. Neither question hashes or allocates,
//    and clear() is an epoch bump (plus resetting the selection storage)
//    that ends every candidacy and every membership at once, not an
//    O(|frontier|) teardown.
//  * Stage-2 buckets form a FLAT LADDER indexed by c - 1 with a high-water
//    mark: c is small and dense (it grows by 1 per neighboring join), so a
//    vector of buckets replaces the former std::map<c, Bucket>. Drained
//    buckets keep their storage for the next round instead of being erased.
//  * The stage-1 heap, the bucket ladder's heaps, the touched list and the
//    slot array are leased from a ScratchArena, so a frontier constructed
//    from a RunContext's arena stops allocating after warm-up: the
//    join/select path is allocation-free from the second run onward.
// A default-constructed Frontier owns a private arena and grows its slot
// array on demand (tests, one-off use); pass the vertex count up front to
// pre-size it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "partition/run_context.hpp"
#include "util/simd.hpp"

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
  /// slot array (0 = grow on demand, used by callers that track only a
  /// sparse region per partition). The arena must outlive the frontier.
  explicit Frontier(ScratchArena& arena, VertexId num_vertices = 0);

  /// Removes all candidates and ends every membership (start of a new
  /// round). O(high-water c), not O(|frontier|): both tags of every slot
  /// are invalidated by bumping the epoch.
  void clear();

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool contains(VertexId v) const {
    return v < slots_->size() && (*slots_)[v].stamp == round_;
  }

  /// True iff v joined the partition since the last clear().
  [[nodiscard]] bool is_member(VertexId v) const {
    return v < slots_->size() && (*slots_)[v].member == round_;
  }

  /// Makes v a member of the partition (it joins): drops it as a candidate
  /// if it is one. A member is never a candidate again until clear().
  void add_member(VertexId v) {
    ensure_slot(v);
    Slot& slot = (*slots_)[v];
    if (slot.stamp == round_) {
      slot.stamp = 0;
      --size_;
    }
    slot.member = round_;
  }

  /// Hints that v's slot is about to be read: a join can issue this for
  /// every neighbour before its loop, so their cache misses overlap. Both
  /// ends of the 24-byte slot are hinted, since one slot in four spans two
  /// cache lines. A vertex past the slot array is ignored.
  void prefetch(VertexId v) const {
    if (v >= slots_->size()) return;
    const char* const slot = reinterpret_cast<const char*>(slots_->data() + v);
    simd::prefetch_read(slot);
    simd::prefetch_read(slot + sizeof(Slot) - 1);
  }

  /// Current state of candidate v. Precondition: contains(v).
  [[nodiscard]] const Candidate& at(VertexId v) const {
    assert(contains(v));
    return (*slots_)[v].cand;
  }

  /// Residual connections of candidate v to the current partition (c_v).
  /// Precondition: contains(v).
  [[nodiscard]] std::uint32_t connections(VertexId v) const { return at(v).c; }

  /// Records that candidate u gained a residual connection to the partition
  /// via a joining member. The Stage-I contribution (Eq. 7 term
  /// |N(u) ∩ N(member)| / |N(member)|) can be expensive, so callers pass a
  /// cheap upper bound plus a thunk computing the exact term; the thunk is
  /// only invoked when Stage I is live and the bound can beat u's current
  /// running max. While Stage II is live u's μs1 is left stale, so a caller
  /// of this overload selects Stage I through the rescoring
  /// select_stage1(rescore). Inserts u (with frozen residual degree
  /// `residual_degree`) if new. Precondition: !is_member(u).
  template <typename ScoreFn>
  void add_connection(VertexId u, std::uint32_t residual_degree,
                      double score_bound, ScoreFn&& score_fn) {
    const bool fresh = connect(u, residual_degree);
    if (live_ == Live::kStage2) return;  // μs1 is rescored on the switch
    Candidate& cand = (*slots_)[u].cand;
    if (fresh) {
      cand.mu1 = score_fn();
      stage1_push(cand.mu1, u);
    } else if (score_bound > cand.mu1) {
      const double term = score_fn();
      if (term > cand.mu1) {
        cand.mu1 = term;
        stage1_push(cand.mu1, u);
      }
    }
  }

  /// Non-lazy overload (window growth, tests, simple callers): the term is
  /// already known, so μs1 stays exact in both stages and the plain
  /// select_stage1() suffices. Argument order matches the lazy overload:
  /// vertex, residual degree, then the score term.
  void add_connection(VertexId u, std::uint32_t residual_degree,
                      double score_term) {
    const bool fresh = connect(u, residual_degree);
    Candidate& cand = (*slots_)[u].cand;
    if (!fresh && score_term <= cand.mu1) return;
    cand.mu1 = score_term;
    if (live_ != Live::kStage2) stage1_push(score_term, u);
  }

  /// Eager path (concurrent growth): inserts or re-states candidate v with
  /// exact values — unlike add_connection, c/rdeg/μs1 may all move in any
  /// direction here (another partition claimed some of v's edges). Heap
  /// entries are only pushed for keys that actually changed — an unchanged
  /// key already has a live entry. Precondition: !is_member(v).
  void upsert(VertexId v, std::uint32_t c, std::uint32_t rdeg, double mu1) {
    ensure_slot(v);
    Slot& slot = (*slots_)[v];
    assert(slot.member != round_);
    Candidate& cand = slot.cand;
    const bool fresh = slot.stamp != round_;
    if (fresh) {
      slot.stamp = round_;
      ++size_;
    }
    const bool push_stage1 = fresh || cand.mu1 != mu1;
    const bool push_bucket = fresh || cand.c != c || cand.rdeg != rdeg;
    cand = Candidate{c, rdeg, mu1};
    if (live_ == Live::kBoth) {
      if (push_stage1) stage1_push(mu1, v);
      if (push_bucket) bucket_push(c, rdeg, v);
      return;
    }
    // Every change is recorded, so v's latest record carries its current
    // c. μs1 is stored exactly: the switch just re-pushes stored values.
    if (!push_stage1 && !push_bucket) return;
    touched_->push_back({v, c});
    if (live_ == Live::kStage1 && push_stage1) stage1_push(mu1, v);
    if (live_ == Live::kStage2 && push_bucket) bucket_push(c, rdeg, v);
  }

  /// Removes v (it joined the partition, or lost its last connection).
  /// No-op when v is not a candidate.
  void remove(VertexId v) {
    if (!contains(v)) return;
    (*slots_)[v].stamp = 0;
    --size_;
    // Heap and bucket entries become stale and are skipped lazily.
  }

  /// Stage-I selection: argmax μs1, ties by smaller vertex id. Returns
  /// kInvalidVertex when empty. When Stage II was live, each candidate
  /// touched since then gets μs1 = rescore(v) first; `rescore` must return
  /// the exact running max the eager path would hold (the caller's Eq. 7
  /// max over the members v is connected to).
  template <typename RescoreFn>
  [[nodiscard]] VertexId select_stage1(RescoreFn&& rescore) {
    if (live_ == Live::kStage2) {
      for (const Touch& t : *touched_) {
        if (!touch_live(t)) continue;
        Candidate& cand = (*slots_)[t.vertex].cand;
        cand.mu1 = rescore(t.vertex);
        stage1_push(cand.mu1, t.vertex);
      }
      switched();
    }
    live_ = Live::kStage1;
    return stage1_top();
  }

  /// Stage-I selection for callers whose stored μs1 is always exact (the
  /// value overload of add_connection, upsert).
  [[nodiscard]] VertexId select_stage1() {
    return select_stage1(
        [this](VertexId v) { return (*slots_)[v].cand.mu1; });
  }

  /// Stage-II selection: argmax M' = (e_in + c)/(e_out + r - 2c); an empty
  /// post-join external set (denominator 0) ranks above everything. Ties by
  /// larger c, then smaller r, then smaller id. Returns kInvalidVertex when
  /// empty.
  [[nodiscard]] VertexId select_stage2(EdgeId e_in, EdgeId e_out);

  /// Selections that found the other stage's index live (both directions,
  /// summed over the frontier's lifetime). The first select after clear()
  /// is not a switch.
  [[nodiscard]] std::size_t stage_switches() const { return switches_; }

 private:
  /// Tests drive the epoch to its wrap without 2^32 clears.
  friend struct FrontierTestPeer;

  struct HeapEntry {
    double mu1;
    VertexId vertex;
    /// Max-heap order: the top is the highest μs1 with the smallest id.
    friend bool operator<(const HeapEntry& a, const HeapEntry& b) {
      if (a.mu1 != b.mu1) return a.mu1 < b.mu1;
      return a.vertex > b.vertex;
    }
  };

  /// Which selection index add_connection/upsert keep up to date.
  enum class Live : std::uint8_t { kBoth, kStage1, kStage2 };

  /// A connection recorded while one index was dormant: vertex and its c
  /// right after the connection.
  struct Touch {
    VertexId vertex;
    std::uint32_t c;
  };

  /// Min-heap of (rdeg, vertex) used per stage-2 bucket; backing vector
  /// leased from the arena (std::push_heap/pop_heap, std::greater order).
  using Bucket = ScratchArena::Lease<std::pair<std::uint32_t, VertexId>>;

  // own_arena_ is declared before every lease-holding member so leases are
  // destroyed (returned) before the arena they came from.
  std::unique_ptr<ScratchArena> own_arena_;
  ScratchArena* arena_;

  /// A vertex's hot record. The tags come first, so the bytes both
  /// membership questions read share one cache line.
  struct Slot {
    std::uint32_t stamp = 0;   ///< a candidate iff == round_
    std::uint32_t member = 0;  ///< a member iff == round_
    Candidate cand;
  };
  static_assert(sizeof(Slot) == 24);

  /// Dense per-vertex slots (0 is never a valid epoch).
  ScratchArena::Lease<Slot> slots_;
  std::uint32_t round_ = 1;  ///< the epoch tag of the current round
  std::size_t size_ = 0;

  /// Lazy max-heap for Stage I; entries are validated against the slots.
  ScratchArena::Lease<HeapEntry> stage1_heap_;
  /// Flat Stage-II bucket ladder: ladder_[c - 1] holds connection count c.
  /// Slots up to hwm_c_ may hold entries this round; drained buckets keep
  /// their lease (and capacity) instead of being erased.
  std::vector<Bucket> ladder_;
  std::uint32_t hwm_c_ = 0;

  Live live_ = Live::kBoth;
  /// Connections since the last switch (empty while both indexes are live).
  ScratchArena::Lease<Touch> touched_;
  std::size_t switches_ = 0;

  /// Grows the slot array to cover vertex v (amortized doubling; no-op on
  /// the pre-sized fast path).
  void ensure_slot(VertexId v) {
    if (static_cast<std::size_t>(v) < slots_->size()) return;
    grow_to(static_cast<std::size_t>(v) + 1);
  }
  void grow_to(std::size_t n);

  /// Inserts u or counts one more connection of it, then pushes its new
  /// ladder entry (Stage II live) or records the touch (Stage I live).
  /// Returns true iff u is new this round.
  bool connect(VertexId u, std::uint32_t residual_degree) {
    ensure_slot(u);
    Slot& slot = (*slots_)[u];
    assert(slot.member != round_);
    Candidate& cand = slot.cand;
    const bool fresh = slot.stamp != round_;
    if (fresh) {
      slot.stamp = round_;
      ++size_;
      cand.c = 1;
      cand.rdeg = residual_degree;
    } else {
      assert(cand.rdeg == residual_degree);  // frozen within a round
      ++cand.c;  // an old-c ladder entry is dropped lazily
    }
    if (live_ == Live::kStage1) {
      touched_->push_back({u, cand.c});
    } else {
      bucket_push(cand.c, cand.rdeg, u);
      if (live_ == Live::kStage2) touched_->push_back({u, cand.c});
    }
    return fresh;
  }

  /// True iff t is its candidate's latest record: still a candidate, and
  /// no connection since.
  [[nodiscard]] bool touch_live(const Touch& t) const {
    return contains(t.vertex) && (*slots_)[t.vertex].cand.c == t.c;
  }

  /// Ends a switch: the dormant index is now current.
  void switched() {
    touched_->clear();
    ++switches_;
  }

  [[nodiscard]] VertexId stage1_top();

  void stage1_push(double mu1, VertexId v) {
    stage1_heap_->push_back({mu1, v});
    std::push_heap(stage1_heap_->begin(), stage1_heap_->end());
  }
  void bucket_push(std::uint32_t c, std::uint32_t rdeg, VertexId v);

  /// True iff (c, rdeg, v) is the candidate's live bucket entry.
  [[nodiscard]] bool bucket_entry_live(
      std::uint32_t c, const std::pair<std::uint32_t, VertexId>& entry) const {
    if (!contains(entry.second)) return false;
    const Candidate& cand = (*slots_)[entry.second].cand;
    return cand.c == c && cand.rdeg == entry.first;
  }
};

}  // namespace tlp
