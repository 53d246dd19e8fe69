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
// bitset mirror answers "created" (does `to` already host the endpoint?)
// and gives the candidate scan its word-parallel union walk: any move that
// creates fewer replicas than it frees must target a partition already
// hosting an endpoint, so candidates are exactly the set bits of
// words(u) | words(v).
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
  /// proposed for moves.
  MoveState(const Graph& g, const EdgePartition& partition,
            ScratchArena& arena)
      : g_(&g),
        p_(partition.num_partitions()),
        counts_(arena, g.num_vertices(), partition.num_partitions(),
                max_degree(g)),
        replicas_(arena, g.num_vertices(), partition.num_partitions()),
        loads_(arena.acquire<EdgeId>(partition.num_partitions(), 0)) {
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
  [[nodiscard]] EdgeId load(PartitionId k) const { return loads_[k]; }
  [[nodiscard]] std::uint32_t count(VertexId v, PartitionId k) const {
    return counts_.get(v, k);
  }
  [[nodiscard]] const ReplicaSetPool& replicas() const { return replicas_; }

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
  [[nodiscard]] Candidate best_move(const Edge& edge, PartitionId from,
                                    EdgeId cap) const {
    Candidate best;
    const int freed_here = freed(edge, from);
    const std::uint64_t* wu = replicas_.words(edge.u);
    const std::uint64_t* wv = replicas_.words(edge.v);
    const bool loop = edge.u == edge.v;
    const auto beats = [&](PartitionId to, int g, PartitionId incumbent,
                           int incumbent_gain) {
      // Ascending scan: the strict lexicographic compare keeps the
      // lowest id among full ties automatically.
      return incumbent == kNoPartition || g > incumbent_gain ||
             (g == incumbent_gain &&
              (loads_[to] < loads_[incumbent] ||
               (loads_[to] == loads_[incumbent] && to < incumbent)));
    };
    for (std::size_t w = 0; w < replicas_.words_per_vertex(); ++w) {
      std::uint64_t bits = wu[w] | wv[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        const auto to = static_cast<PartitionId>(w * 64 + b);
        if (to == from) continue;
        const int created = (((wu[w] >> b) & 1ULL) != 0 ? 0 : 1) +
                            (!loop && ((wv[w] >> b) & 1ULL) == 0 ? 1 : 0);
        const int g = freed_here - created;
        if (loads_[to] + 1 > cap) {
          if (beats(to, g, best.blocked, best.blocked_gain)) {
            best.blocked = to;
            best.blocked_gain = g;
          }
        } else if (beats(to, g, best.to, best.gain)) {
          best.to = to;
          best.gain = g;
        }
      }
    }
    if (best.to != kNoPartition && best.blocked_gain <= best.gain) {
      best.blocked = kNoPartition;
    }
    return best;
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
    return delta;
  }

 private:
  [[nodiscard]] static std::size_t max_degree(const Graph& g) {
    std::size_t best = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      best = std::max(best, g.degree(v));
    }
    return best;
  }

  const Graph* g_;
  PartitionId p_;
  IncidenceCounts counts_;
  ReplicaSetPool replicas_;
  ScratchArena::Lease<EdgeId> loads_;
};

}  // namespace tlp::refine
