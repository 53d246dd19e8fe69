// Differential tests for MoveState's mask-based gain (src/refine/
// move_state.hpp): best_move, best_key and target against the per-target
// scan the engine used before, kept here as the reference. Random states
// cover one-word and multi-word replica sets (p = 65, 130), self-loops,
// partitions at the cap, and equal loads (where only the id breaks ties).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <vector>

#include "gen/generators.hpp"
#include "refine/move_state.hpp"

namespace tlp::refine {
namespace {

/// The per-target scan: every set bit of words(u) | words(v) but `from`,
/// scored freed - created, admissible iff load + 1 <= cap, best by gain
/// desc, load asc, id asc; the best blocked target is kept only when it
/// beats the admissible one.
MoveState::Candidate reference_best_move(const MoveState& state,
                                         const Edge& edge, PartitionId from,
                                         EdgeId cap) {
  MoveState::Candidate best;
  const int freed_here = state.freed(edge, from);
  const std::uint64_t* wu = state.replicas().words(edge.u);
  const std::uint64_t* wv = state.replicas().words(edge.v);
  const bool loop = edge.u == edge.v;
  const auto beats = [&](PartitionId to, int g, PartitionId incumbent,
                         int incumbent_gain) {
    return incumbent == kNoPartition || g > incumbent_gain ||
           (g == incumbent_gain &&
            (state.load(to) < state.load(incumbent) ||
             (state.load(to) == state.load(incumbent) && to < incumbent)));
  };
  for (std::size_t w = 0; w < state.replicas().words_per_vertex(); ++w) {
    std::uint64_t bits = wu[w] | wv[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto to = static_cast<PartitionId>(w * 64 + b);
      if (to == from) continue;
      const int created = (((wu[w] >> b) & 1ULL) != 0 ? 0 : 1) +
                          (!loop && ((wv[w] >> b) & 1ULL) == 0 ? 1 : 0);
      const int g = freed_here - created;
      if (state.load(to) + 1 > cap) {
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

enum class Layout { kRandom, kRoundRobin };

EdgePartition make_partition(const Graph& g, PartitionId p, Layout layout,
                             std::mt19937_64& rng) {
  EdgePartition part(p, g.num_edges());
  std::uniform_int_distribution<PartitionId> pick(0, p - 1);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    part.assign(e, layout == Layout::kRoundRobin
                       ? static_cast<PartitionId>(e % p)
                       : pick(rng));
  }
  return part;
}

/// Load ceilings that put some partitions at or over the cap: the
/// lightest, median and heaviest loads, one past the heaviest (nothing
/// full), and the engine's formula at slack 1.05.
std::vector<EdgeId> caps_for(const EdgePartition& part, EdgeId m) {
  std::vector<EdgeId> loads(part.num_partitions(), 0);
  for (const PartitionId k : part.raw()) ++loads[k];
  std::sort(loads.begin(), loads.end());
  return {loads.front(), loads[loads.size() / 2], loads.back(),
          loads.back() + 1,
          MoveState::cap_for(m, part.num_partitions(), 1.05)};
}

/// Compares best_move, best_key and target with the reference on random
/// (u, v, from) probes, self-loops included; returns the probes made.
int expect_matches_reference(const Graph& g, const MoveState& state,
                             std::mt19937_64& rng, int probes) {
  const PartitionId p = state.num_partitions();
  std::uniform_int_distribution<VertexId> vertex(0, g.num_vertices() - 1);
  std::uniform_int_distribution<PartitionId> partition(0, p - 1);
  std::uniform_int_distribution<EdgeId> edge_id(0, g.num_edges() - 1);
  for (int i = 0; i < probes; ++i) {
    Edge edge = g.edge(edge_id(rng));
    if (i % 4 == 1) edge.v = edge.u;  // self-loop
    if (i % 4 == 2) edge = Edge{vertex(rng), vertex(rng)};  // any pair
    const PartitionId from = partition(rng);
    const MoveState::Candidate want =
        reference_best_move(state, edge, from, state.cap());
    const MoveState::Candidate got = state.best_move(edge, from);
    SCOPED_TRACE(::testing::Message()
                 << "p " << p << " cap " << state.cap() << " edge (" << edge.u
                 << ", " << edge.v << ") from " << from);
    EXPECT_EQ(got.to, want.to);
    EXPECT_EQ(got.blocked, want.blocked);
    if (want.to != kNoPartition) {
      EXPECT_EQ(got.gain, want.gain);
    }
    if (want.blocked != kNoPartition) {
      EXPECT_EQ(got.blocked_gain, want.blocked_gain);
    }
    // best_key: same key, and an admissible target at that gain.
    const MoveState::Candidate key = state.best_key(edge, from);
    EXPECT_EQ(key.to == kNoPartition, want.to == kNoPartition);
    EXPECT_EQ(key.blocked, want.blocked);
    if (want.to != kNoPartition) {
      EXPECT_EQ(key.gain, want.gain);
      EXPECT_NE(key.to, from);
      EXPECT_LT(state.load(key.to), state.cap());
      EXPECT_EQ(state.target(edge, from, key.gain), want.to);
    }
    if (want.blocked != kNoPartition) {
      EXPECT_EQ(key.blocked_gain, want.blocked_gain);
    }
  }
  return probes;
}

TEST(MoveStateBestMove, MatchesPerTargetScan) {
  std::mt19937_64 rng(2024);
  int probes = 0;
  for (const PartitionId p : {2u, 10u, 64u, 65u, 130u}) {
    // Dense enough that vertices hold replicas in several words at p = 130.
    const Graph g = gen::chung_lu_power_law(300, 3000, 2.1, p);
    for (const Layout layout : {Layout::kRandom, Layout::kRoundRobin}) {
      const EdgePartition part = make_partition(g, p, layout, rng);
      for (const EdgeId cap : caps_for(part, g.num_edges())) {
        ScratchArena arena;
        const MoveState state(g, part, cap, arena);
        probes += expect_matches_reference(g, state, rng, 200);
      }
    }
  }
  EXPECT_EQ(probes, 5 * 2 * 5 * 200);
}

TEST(MoveStateBestMove, MatchesPerTargetScanAfterMoves) {
  // apply() keeps the at-cap mask in step with the loads: moves fill and
  // drain partitions across the cap between probes.
  std::mt19937_64 rng(77);
  for (const PartitionId p : {2u, 10u, 65u, 130u}) {
    const Graph g = gen::erdos_renyi(120, 1500, p);
    EdgePartition part = make_partition(g, p, Layout::kRoundRobin, rng);
    const EdgeId cap = MoveState::cap_for(g.num_edges(), p, 1.0);
    ScratchArena arena;
    MoveState state(g, part, cap, arena);
    std::uniform_int_distribution<EdgeId> edge_id(0, g.num_edges() - 1);
    std::uniform_int_distribution<PartitionId> partition(0, p - 1);
    for (int round = 0; round < 20; ++round) {
      for (int move = 0; move < 40; ++move) {
        const EdgeId e = edge_id(rng);
        const PartitionId to = partition(rng);
        if (to != part.partition_of(e)) state.apply(e, to, part);
      }
      expect_matches_reference(g, state, rng, 50);
    }
  }
}

TEST(MoveStateBestMove, EqualLoadsBreakTiesByLowestId) {
  // A 4-cycle with one edge per partition: every load is 1, so the id
  // alone decides among targets of equal gain.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EdgePartition part(4, g.num_edges());
  for (EdgeId e = 0; e < 4; ++e) part.assign(e, static_cast<PartitionId>(e));
  ScratchArena arena;
  const MoveState state(g, part, /*cap=*/2, arena);
  // Edge 1 = (1, 2) in partition 1: leaving frees both endpoints' replica
  // there, and partitions 0 (hosts 1) and 2 (hosts 2) each create one.
  const MoveState::Candidate cand = state.best_move(g.edge(1), 1);
  EXPECT_EQ(cand.to, 0u);
  EXPECT_EQ(cand.gain, 1);
  EXPECT_EQ(cand.blocked, kNoPartition);
}

}  // namespace
}  // namespace tlp::refine
