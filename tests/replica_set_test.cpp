// ReplicaSetPool: the flat n x ceil(p/64) membership slab. The word-
// boundary cases (p = 63/64/65) are where a per-vertex stride bug would
// bleed one vertex's bits into its neighbour's set, so they get explicit
// coverage, as does arena-lease reuse across runs (stale bits from run 1
// must never leak into run 2).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "partition/replica_set.hpp"

namespace tlp {
namespace {

class ReplicaSetPoolWidth : public ::testing::TestWithParam<PartitionId> {};

TEST_P(ReplicaSetPoolWidth, InsertContainsRoundTripEveryPartition) {
  const PartitionId p = GetParam();
  constexpr std::size_t kVertices = 5;
  ScratchArena arena;
  ReplicaSetPool pool(arena, kVertices, p);
  EXPECT_EQ(pool.words_per_vertex(), (static_cast<std::size_t>(p) + 63) / 64);
  for (VertexId v = 0; v < kVertices; ++v) {
    EXPECT_TRUE(pool.empty(v));
    for (PartitionId k = 0; k < p; ++k) {
      EXPECT_FALSE(pool.contains(v, k));
    }
  }
  // Vertex v gets partitions {v, v+1, ...} mod p stepping by kVertices: a
  // distinct pattern per vertex, covering first/last bit of every word.
  for (VertexId v = 0; v < kVertices; ++v) {
    for (PartitionId k = static_cast<PartitionId>(v); k < p;
         k += static_cast<PartitionId>(kVertices)) {
      pool.insert(v, k);
    }
  }
  for (VertexId v = 0; v < kVertices; ++v) {
    // Vertex v inserted anything only if its first candidate id v < p.
    EXPECT_EQ(!pool.empty(v), static_cast<PartitionId>(v) < p);
    for (PartitionId k = 0; k < p; ++k) {
      const bool expected = k % kVertices == v;
      EXPECT_EQ(pool.contains(v, k), expected)
          << "p=" << p << " v=" << v << " k=" << k;
    }
  }
}

TEST_P(ReplicaSetPoolWidth, BoundaryBitsDoNotBleedAcrossVertices) {
  const PartitionId p = GetParam();
  ScratchArena arena;
  ReplicaSetPool pool(arena, 3, p);
  // Highest valid partition id on vertex 1 only: its neighbours' words are
  // adjacent in the slab, so an off-by-one stride would set a bit there.
  pool.insert(1, p - 1);
  EXPECT_TRUE(pool.contains(1, p - 1));
  EXPECT_TRUE(pool.empty(0));
  EXPECT_TRUE(pool.empty(2));
  EXPECT_FALSE(pool.contains(0, p - 1));
  EXPECT_FALSE(pool.contains(2, p - 1));
  pool.insert(0, 0);
  EXPECT_TRUE(pool.contains(0, 0));
  EXPECT_FALSE(pool.contains(1, 0));
}

TEST_P(ReplicaSetPoolWidth, IntersectsRequiresSharedPartition) {
  const PartitionId p = GetParam();
  ScratchArena arena;
  ReplicaSetPool pool(arena, 2, p);
  EXPECT_FALSE(pool.intersects(0, 1));
  pool.insert(0, 0);
  pool.insert(1, p - 1);
  // Disjoint: 0 holds the first bit, 1 holds the last (different words
  // whenever p > 64).
  EXPECT_FALSE(pool.intersects(0, 1));
  pool.insert(0, p - 1);
  EXPECT_TRUE(pool.intersects(0, 1));
  EXPECT_TRUE(pool.intersects(1, 0));
  EXPECT_TRUE(pool.intersects(0, 0));  // self-intersection of non-empty set
}

// p >= 2 throughout: the suite distinguishes first from last partition id.
INSTANTIATE_TEST_SUITE_P(WordBoundaries, ReplicaSetPoolWidth,
                         ::testing::Values(PartitionId{2}, PartitionId{63},
                                           PartitionId{64}, PartitionId{65},
                                           PartitionId{130}));

TEST_P(ReplicaSetPoolWidth, EraseClearsExactlyOneBit) {
  const PartitionId p = GetParam();
  ScratchArena arena;
  ReplicaSetPool pool(arena, 2, p);
  pool.insert(0, 0);
  pool.insert(0, p - 1);
  pool.insert(1, p - 1);
  pool.erase(0, p - 1);
  EXPECT_FALSE(pool.contains(0, p - 1));
  EXPECT_TRUE(pool.contains(0, 0));      // other bits untouched
  EXPECT_TRUE(pool.contains(1, p - 1));  // other vertices untouched
  pool.erase(0, p - 1);  // double-erase is a no-op
  EXPECT_FALSE(pool.contains(0, p - 1));
  pool.erase(0, 0);
  EXPECT_TRUE(pool.empty(0));
}

TEST_P(ReplicaSetPoolWidth, WordsExposesPackedMembership) {
  const PartitionId p = GetParam();
  ScratchArena arena;
  ReplicaSetPool pool(arena, 2, p);
  pool.insert(1, 0);
  pool.insert(1, p - 1);
  const std::uint64_t* words = pool.words(1);
  // Partition k lives at word k/64, bit k%64 — the layout the refinement
  // candidate scan walks word-parallel.
  EXPECT_EQ((words[0] >> 0) & 1ULL, 1ULL);
  EXPECT_EQ((words[(p - 1) / 64] >> ((p - 1) % 64)) & 1ULL, 1ULL);
  std::size_t set_bits = 0;
  for (std::size_t w = 0; w < pool.words_per_vertex(); ++w) {
    set_bits += static_cast<std::size_t>(std::popcount(words[w]));
  }
  EXPECT_EQ(set_bits, p == 1 ? 1u : 2u);
  // Vertex 0 inserted nothing: all of its words must be zero.
  const std::uint64_t* empty_words = pool.words(0);
  for (std::size_t w = 0; w < pool.words_per_vertex(); ++w) {
    EXPECT_EQ(empty_words[w], 0ULL);
  }
}

TEST(ReplicaSetPool, ArenaReuseAcrossRunsStartsClean) {
  ScratchArena arena;
  {
    ReplicaSetPool first(arena, 4, 65);
    for (VertexId v = 0; v < 4; ++v) {
      first.insert(v, 0);
      first.insert(v, 64);
    }
  }
  // Same arena, same shape: the lease hands back the dirtied buffer, and
  // acquire() must have scrubbed it.
  const std::uint64_t hits_before = arena.hits();
  ReplicaSetPool second(arena, 4, 65);
  EXPECT_GT(arena.hits(), hits_before);  // proof the slab was recycled
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_TRUE(second.empty(v));
    EXPECT_FALSE(second.contains(v, 0));
    EXPECT_FALSE(second.contains(v, 64));
  }
}

TEST(ReplicaSetPool, NewLeaseReshapesAndClears) {
  ScratchArena arena;
  {
    ReplicaSetPool pool(arena, 3, 10);
    pool.insert(2, 9);
    EXPECT_TRUE(pool.contains(2, 9));
  }
  ReplicaSetPool pool(arena, 6, 128);
  EXPECT_EQ(pool.num_vertices(), 6u);
  EXPECT_EQ(pool.words_per_vertex(), 2u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_TRUE(pool.empty(v));
  EXPECT_EQ(pool.slab_bytes(), 6u * 2u * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace tlp
