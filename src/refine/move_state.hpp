// MoveState: the bookkeeping every refinement engine shares — per-(vertex,
// partition) incident-edge counts, a ReplicaSetPool membership mirror, and
// per-partition edge loads — kept exactly in sync by apply().
//
// The gain model (docs/REFINEMENT.md): moving edge e = (u, v) from
// partition `from` to partition `to` changes only the replicas of u and v:
//
//   freed(e, from) = [count(u, from) == 1] + [u != v][count(v, from) == 1]
//   created(e, to) = [count(u, to) == 0]   + [u != v][count(v, to) == 0]
//   gain = freed - created                  (in [-2, +2])
//
// Counts answer "freed" (is this the endpoint's LAST `from` edge?); the
// bitset mirror answers "created" (does `to` already host the endpoint?),
// a whole word of targets at a time: with wu, wv the endpoints' replica
// words, the targets creating no replica are wu & wv, those creating one
// are wu ^ wv, and a bitset of the partitions at the load cap splits
// each into admissible and blocked targets. Any move that creates fewer
// replicas than it frees targets a partition already hosting an endpoint,
// so candidates are exactly the set bits of words(u) | words(v).
//
// The counts live in one flat n x p slab width-packed to the graph's
// maximum degree (the PackedDegreeArray idiom from core/residual.hpp): a
// vertex's per-partition count never exceeds its degree, so most graphs
// get away with one or two bytes per cell.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "graph/graph.hpp"
#include "partition/edge_partition.hpp"
#include "partition/replica_set.hpp"
#include "partition/run_context.hpp"

namespace tlp::refine {

/// Per-(vertex, partition) incident-edge counts in one flat n x p slab,
/// width-packed to the narrowest unsigned type holding the graph's maximum
/// degree (cell (v, k) at index v * p + k). The width is fixed at
/// construction, so the switch is perfectly predicted on the hot path.
class IncidenceCounts {
 public:
  IncidenceCounts(ScratchArena& arena, std::size_t num_vertices,
                  PartitionId num_partitions, std::size_t max_count)
      : p_(num_partitions),
        width_(max_count <= 0xFF ? 1 : max_count <= 0xFFFF ? 2 : 4) {
    const std::size_t cells = num_vertices * p_;
    switch (width_) {
      case 1:
        c8_ = arena.acquire<std::uint8_t>(cells, 0);
        break;
      case 2:
        c16_ = arena.acquire<std::uint16_t>(cells, 0);
        break;
      default:
        c32_ = arena.acquire<std::uint32_t>(cells, 0);
        break;
    }
  }

  [[nodiscard]] std::uint32_t get(VertexId v, PartitionId k) const {
    const std::size_t i = cell(v, k);
    switch (width_) {
      case 1:
        return c8_[i];
      case 2:
        return c16_[i];
      default:
        return c32_[i];
    }
  }

  /// ++cell; returns true iff the count went 0 -> 1 (a replica appeared).
  bool increment(VertexId v, PartitionId k) {
    const std::size_t i = cell(v, k);
    switch (width_) {
      case 1:
        return ++c8_[i] == 1;
      case 2:
        return ++c16_[i] == 1;
      default:
        return ++c32_[i] == 1;
    }
  }

  /// --cell; returns true iff the count went 1 -> 0 (a replica vanished).
  /// Precondition: get(v, k) > 0.
  bool decrement(VertexId v, PartitionId k) {
    const std::size_t i = cell(v, k);
    switch (width_) {
      case 1:
        assert(c8_[i] > 0);
        return --c8_[i] == 0;
      case 2:
        assert(c16_[i] > 0);
        return --c16_[i] == 0;
      default:
        assert(c32_[i] > 0);
        return --c32_[i] == 0;
    }
  }

  /// Bytes per cell actually chosen (1, 2, or 4).
  [[nodiscard]] unsigned width() const { return width_; }

 private:
  [[nodiscard]] std::size_t cell(VertexId v, PartitionId k) const {
    assert(k < p_);
    return static_cast<std::size_t>(v) * p_ + k;
  }

  std::size_t p_;
  unsigned width_;
  ScratchArena::Lease<std::uint8_t> c8_;
  ScratchArena::Lease<std::uint16_t> c16_;
  ScratchArena::Lease<std::uint32_t> c32_;
};

class MoveState {
 public:
  /// Builds counts/replicas/loads from the current assignment in one O(m)
  /// scan. Unassigned edges (kNoPartition) contribute nothing and are never
  /// proposed for moves. `cap` is the load ceiling (cap_for): a partition
  /// holding cap edges or more accepts no move.
  MoveState(const Graph& g, const EdgePartition& partition, EdgeId cap,
            ScratchArena& arena)
      : g_(&g),
        p_(partition.num_partitions()),
        cap_(cap),
        counts_(arena, g.num_vertices(), partition.num_partitions(),
                max_degree(g)),
        replicas_(arena, g.num_vertices(), partition.num_partitions()),
        loads_(arena.acquire<EdgeId>(partition.num_partitions(), 0)),
        full_(arena.acquire<std::uint64_t>(replicas_.words_per_vertex(), 0)) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const PartitionId k = partition.partition_of(e);
      if (k == kNoPartition) continue;
      const Edge& edge = g.edge(e);
      if (counts_.increment(edge.u, k)) replicas_.insert(edge.u, k);
      if (edge.u != edge.v && counts_.increment(edge.v, k)) {
        replicas_.insert(edge.v, k);
      }
      ++loads_[k];
    }
    for (PartitionId k = 0; k < p_; ++k) mark_full(k);
  }

  /// The balance ceiling shared by every engine (and the greedy oracle):
  /// no partition may exceed slack * m / p edges (+1 for rounding).
  [[nodiscard]] static EdgeId cap_for(EdgeId num_edges, PartitionId p,
                                      double slack) {
    return static_cast<EdgeId>(slack * static_cast<double>(num_edges) /
                                   static_cast<double>(p) +
                               1.0);
  }

  /// The donor floor, the ceiling's mirror image: an ESCAPE move may not
  /// drain its source partition below (2 - slack) * m / p edges. Positive
  /// moves are exempt (they strictly improve RF and the greedy oracle
  /// allows them), so the floor only bounds how far a negative-gain walk
  /// can hollow out one partition.
  [[nodiscard]] static EdgeId floor_for(EdgeId num_edges, PartitionId p,
                                        double slack) {
    const double f = (2.0 - slack) * static_cast<double>(num_edges) /
                         static_cast<double>(p) -
                     1.0;
    return f <= 0.0 ? 0 : static_cast<EdgeId>(f);
  }

  [[nodiscard]] PartitionId num_partitions() const { return p_; }
  [[nodiscard]] EdgeId cap() const { return cap_; }
  [[nodiscard]] EdgeId load(PartitionId k) const { return loads_[k]; }
  [[nodiscard]] std::uint32_t count(VertexId v, PartitionId k) const {
    return counts_.get(v, k);
  }
  [[nodiscard]] const ReplicaSetPool& replicas() const { return replicas_; }
  /// True iff some partition is at or above the cap. While none is, a
  /// key (best_key) reads only the endpoints' counts and replica sets.
  [[nodiscard]] bool any_full() const {
    return std::any_of(full_->begin(), full_->end(),
                       [](std::uint64_t word) { return word != 0; });
  }

  /// Replicas freed if e left `from` (0..2).
  [[nodiscard]] int freed(const Edge& edge, PartitionId from) const {
    return (counts_.get(edge.u, from) == 1 ? 1 : 0) +
           (edge.u != edge.v && counts_.get(edge.v, from) == 1 ? 1 : 0);
  }

  /// Gain of moving e from `from` to `to` (no admissibility check).
  [[nodiscard]] int gain(const Edge& edge, PartitionId from,
                         PartitionId to) const {
    const int created = (replicas_.contains(edge.u, to) ? 0 : 1) +
                        (edge.u != edge.v && !replicas_.contains(edge.v, to)
                             ? 1
                             : 0);
    return freed(edge, from) - created;
  }

  struct Candidate {
    PartitionId to = kNoPartition;
    int gain = 0;
    /// The best target the cap blocks, when its gain beats the admissible
    /// one (or nothing is admissible), and that gain; kNoPartition
    /// otherwise. The engine parks the edge there until that partition
    /// drops below the cap.
    PartitionId blocked = kNoPartition;
    int blocked_gain = 0;
  };

  /// Best admissible move for e out of `from`: the highest-gain target
  /// under the cap, ties broken by lighter load then lower partition id —
  /// the greedy oracle's exact rule (core/refine_rf.cpp), which makes the
  /// differential suite meaningful. Candidates are the partitions already
  /// hosting an endpoint (every strictly-improving move lies there, since
  /// gain > 0 needs created <= 1); the returned gain may still be <= 0 —
  /// escape-move callers want those, hill-climb callers filter. The same
  /// rule picks `blocked` among the targets at the cap.
  [[nodiscard]] Candidate best_move(const Edge& edge, PartitionId from) const {
    Candidate best = best_key(edge, from);
    if (best.to != kNoPartition) best.to = target(edge, from, best.gain);
    return best;
  }

  /// best_move without the tie-break among admissible targets: the same
  /// gain, blocked and blocked_gain, but `to` is only the lowest-id
  /// admissible target at that gain (kNoPartition when none is). This is
  /// what keys an edge in the gain heap; target() picks the move itself.
  ///
  /// Targets come in four masks, word by word: created 0 (both endpoints
  /// already there) or created 1 (exactly one), each split by the cap into
  /// admissible and blocked. The gain is freed - created of the best
  /// non-empty admissible mask; a blocked target is reported only when it
  /// beats that, which takes a blocked created-0 target over an admissible
  /// created-1 one, or any blocked target when nothing is admissible.
  [[nodiscard]] Candidate best_key(const Edge& edge, PartitionId from) const {
    // Per created count (0, 1): the first word holding an admissible
    // target and its index, and the union of the blocked targets.
    std::uint64_t open[2] = {0, 0};
    std::size_t at[2] = {0, 0};
    std::uint64_t shut[2] = {0, 0};
    for (std::size_t w = 0; w < replicas_.words_per_vertex(); ++w) {
      const Targets t = targets(edge, from, w);
      if (open[0] == 0) {
        open[0] = t.both & ~full_[w];
        at[0] = w;
      }
      if (open[1] == 0) {
        open[1] = t.one & ~full_[w];
        at[1] = w;
      }
      shut[0] |= t.both & full_[w];
      shut[1] |= t.one & full_[w];
    }
    Candidate best;
    const int freed_here = freed(edge, from);
    const int created = open[0] != 0 ? 0 : 1;
    if (open[created] != 0) {
      best.to = lowest(at[created], open[created]);
      best.gain = freed_here - created;
    }
    if ((shut[0] | shut[1]) != 0) {
      const bool movable = best.to != kNoPartition;
      if (shut[0] != 0 && (!movable || created == 1)) {
        block(best, edge, from, freed_here, 0);
      } else if (shut[1] != 0 && !movable) {
        block(best, edge, from, freed_here, 1);
      }
    }
    return best;
  }

  /// The admissible target of e's move out of `from` at `gain` (a gain
  /// best_key reported): the lightest such partition, then the lowest id.
  [[nodiscard]] PartitionId target(const Edge& edge, PartitionId from,
                                   int gain) const {
    return pick(edge, from, freed(edge, from) - gain, /*blocked=*/false);
  }

  /// Migrates e from its current partition to `to`, updating counts,
  /// replica bits, loads, and the assignment. Returns the realized replica
  /// delta (freed - created == the move's gain). Precondition: e assigned.
  int apply(EdgeId e, PartitionId to, EdgePartition& partition) {
    const PartitionId from = partition.partition_of(e);
    assert(from != kNoPartition && to != from);
    const Edge& edge = g_->edge(e);
    int delta = 0;
    if (counts_.decrement(edge.u, from)) {
      replicas_.erase(edge.u, from);
      ++delta;
    }
    if (edge.u != edge.v && counts_.decrement(edge.v, from)) {
      replicas_.erase(edge.v, from);
      ++delta;
    }
    if (counts_.increment(edge.u, to)) {
      replicas_.insert(edge.u, to);
      --delta;
    }
    if (edge.u != edge.v && counts_.increment(edge.v, to)) {
      replicas_.insert(edge.v, to);
      --delta;
    }
    partition.assign(e, to);
    --loads_[from];
    ++loads_[to];
    mark_full(from);
    mark_full(to);
    return delta;
  }

 private:
  /// The candidate targets of e out of `from` in replica word w, by the
  /// replicas the move creates: none (both) or one (one). A self-loop
  /// needs no case of its own: wu == wv gives both = wu and one = 0.
  struct Targets {
    std::uint64_t both;
    std::uint64_t one;
  };

  [[nodiscard]] Targets targets(const Edge& edge, PartitionId from,
                                std::size_t w) const {
    const std::uint64_t wu = replicas_.words(edge.u)[w];
    const std::uint64_t wv = replicas_.words(edge.v)[w];
    const std::uint64_t away =
        w == from / 64 ? ~(std::uint64_t{1} << (from % 64)) : ~std::uint64_t{0};
    return Targets{wu & wv & away, (wu ^ wv) & away};
  }

  [[nodiscard]] static PartitionId lowest(std::size_t w, std::uint64_t bits) {
    return static_cast<PartitionId>(w * 64 +
                                    static_cast<std::size_t>(
                                        std::countr_zero(bits)));
  }

  /// The lightest (then lowest-id) target creating `created` replicas
  /// among the admissible or the blocked ones; kNoPartition if none.
  [[nodiscard]] PartitionId pick(const Edge& edge, PartitionId from,
                                 int created, bool blocked) const {
    PartitionId best = kNoPartition;
    for (std::size_t w = 0; w < replicas_.words_per_vertex(); ++w) {
      const Targets t = targets(edge, from, w);
      std::uint64_t bits = (created == 0 ? t.both : t.one) &
                           (blocked ? full_[w] : ~full_[w]);
      while (bits != 0) {
        const PartitionId to = lowest(w, bits);
        bits &= bits - 1;
        // Ascending scan: a strict compare keeps the lowest id on ties.
        if (best == kNoPartition || loads_[to] < loads_[best]) best = to;
      }
    }
    return best;
  }

  void block(Candidate& best, const Edge& edge, PartitionId from,
             int freed_here, int created) const {
    best.blocked = pick(edge, from, created, /*blocked=*/true);
    best.blocked_gain = freed_here - created;
  }

  /// Sets k's bit in full_ iff k is at or above the cap.
  void mark_full(PartitionId k) {
    const std::uint64_t bit = std::uint64_t{1} << (k % 64);
    if (loads_[k] >= cap_) {
      full_[k / 64] |= bit;
    } else {
      full_[k / 64] &= ~bit;
    }
  }

  [[nodiscard]] static std::size_t max_degree(const Graph& g) {
    std::size_t best = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      best = std::max(best, g.degree(v));
    }
    return best;
  }

  const Graph* g_;
  PartitionId p_;
  EdgeId cap_;
  IncidenceCounts counts_;
  ReplicaSetPool replicas_;
  ScratchArena::Lease<EdgeId> loads_;
  /// Bit k set iff load(k) >= cap: the partitions no move may enter.
  ScratchArena::Lease<std::uint64_t> full_;
};

}  // namespace tlp::refine
