// Replica membership for every vertex at once: which partitions each
// vertex already has a replica on, stored as one flat bitset slab of
// n x ceil(p/64) words (HEP-style) instead of n separate heap vectors.
// The flat layout cuts per-vertex allocator overhead (16-24 bytes of
// vector header plus a malloc per vertex) to zero and makes the whole
// structure one arena lease, so repeated runs reuse the slab.
//
// Sized for p <= a few hundred (the paper uses p <= 20), n up to the
// graph's vertex count.
#pragma once

#include <cassert>
#include <cstdint>

#include "graph/types.hpp"
#include "partition/run_context.hpp"

namespace tlp {

class ReplicaSetPool {
 public:
  /// Arena-leased slab: one acquire() for the whole table, so a reused
  /// RunContext hands back the same capacity on the next run.
  ReplicaSetPool(ScratchArena& arena, std::size_t num_vertices,
                 PartitionId num_partitions)
      : words_per_vertex_(words_for(num_partitions)),
        num_vertices_(num_vertices),
        lease_(arena.acquire<std::uint64_t>(num_vertices * words_per_vertex_,
                                            0)),
        slab_(lease_->data()) {}

  [[nodiscard]] bool contains(VertexId v, PartitionId p) const {
    return (word(v)[p / 64] >> (p % 64)) & 1ULL;
  }

  void insert(VertexId v, PartitionId p) {
    word(v)[p / 64] |= 1ULL << (p % 64);
  }

  /// Clears v's replica bit for p (no-op if absent). Growth never needs
  /// this — memberships are monotone — but the refinement engines do: an
  /// edge migration can remove an endpoint's LAST incident edge on the
  /// source partition (src/refine/move_state.hpp).
  void erase(VertexId v, PartitionId p) {
    word(v)[p / 64] &= ~(1ULL << (p % 64));
  }

  /// Read-only view of v's packed membership words (words_per_vertex() of
  /// them, partition k at word k/64 bit k%64). Lets callers scan set unions
  /// with bit tricks instead of p contains() calls — the refinement
  /// engines' candidate scan walks word(u) | word(v).
  [[nodiscard]] const std::uint64_t* words(VertexId v) const {
    return word(v);
  }

  /// True iff vertex v has no replica anywhere.
  [[nodiscard]] bool empty(VertexId v) const {
    const std::uint64_t* w = word(v);
    for (std::size_t i = 0; i < words_per_vertex_; ++i) {
      if (w[i] != 0) return false;
    }
    return true;
  }

  /// True iff vertices a and b share at least one partition.
  [[nodiscard]] bool intersects(VertexId a, VertexId b) const {
    const std::uint64_t* wa = word(a);
    const std::uint64_t* wb = word(b);
    for (std::size_t i = 0; i < words_per_vertex_; ++i) {
      if ((wa[i] & wb[i]) != 0) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] std::size_t words_per_vertex() const {
    return words_per_vertex_;
  }
  /// Bytes of the flat slab (the whole structure's footprint).
  [[nodiscard]] std::size_t slab_bytes() const {
    return num_vertices_ * words_per_vertex_ * sizeof(std::uint64_t);
  }

 private:
  static std::size_t words_for(PartitionId num_partitions) {
    return (static_cast<std::size_t>(num_partitions) + 63) / 64;
  }
  [[nodiscard]] std::uint64_t* word(VertexId v) {
    assert(v < num_vertices_);
    return slab_ + static_cast<std::size_t>(v) * words_per_vertex_;
  }
  [[nodiscard]] const std::uint64_t* word(VertexId v) const {
    assert(v < num_vertices_);
    return slab_ + static_cast<std::size_t>(v) * words_per_vertex_;
  }

  std::size_t words_per_vertex_;
  std::size_t num_vertices_;
  ScratchArena::Lease<std::uint64_t> lease_;
  /// lease_'s buffer. Stable across moves (the lease holds a vector, whose
  /// heap buffer moves with it).
  std::uint64_t* slab_;
};

}  // namespace tlp
