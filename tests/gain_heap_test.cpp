// Unit tests for the lazy-invalidation bucket-ladder GainHeap
// (src/refine/gain_heap.hpp): ordering, LIFO tie-breaking, lazy staleness,
// consumption semantics, the compaction threshold, the base layer against
// the same heap keyed through update(), and touches against per-edge
// update() calls in N(x) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "gen/generators.hpp"
#include "refine/gain_heap.hpp"

namespace tlp::refine {

/// Replays a version wrap without 2^32 updates: winds an id's version
/// (or a vertex's touch version) back by `by`, so its next update (or
/// touch) takes the version of an older entry that may still sit in the
/// ladder, as it would once the 32-bit counter came around.
struct GainHeapTestPeer {
  static void rewind_id(GainHeap& heap, std::uint64_t id, std::uint32_t by) {
    heap.version_[id] -= by;
  }
  static void rewind_vertex(GainHeap& heap, VertexId x, std::uint32_t by) {
    heap.touched_[x] -= by;
  }
};

namespace {

TEST(GainHeap, PopsHighestGainFirst) {
  ScratchArena arena;
  GainHeap heap(arena, 8);
  heap.update(0, -1);
  heap.update(1, 2);
  heap.update(2, 0);
  heap.update(3, 1);
  const int expected[] = {2, 1, 0, -1};
  for (const int gain : expected) {
    const GainHeap::Top top = heap.pop_best();
    ASSERT_NE(top.id, kInvalidEdge);
    EXPECT_EQ(top.gain, gain);
  }
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
}

TEST(GainHeap, UpdateInvalidatesOldEntryLazily) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  heap.update(0, 2);
  heap.update(0, -2);  // the +2 entry is now stale
  heap.update(1, 1);
  GainHeap::Top top = heap.pop_best();
  EXPECT_EQ(top.id, 1u);  // the stale +2 must be skipped
  EXPECT_EQ(top.gain, 1);
  top = heap.pop_best();
  EXPECT_EQ(top.id, 0u);
  EXPECT_EQ(top.gain, -2);
  EXPECT_GE(heap.stale_pops(), 1u);
}

TEST(GainHeap, RemoveDropsId) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  heap.update(0, 2);
  heap.update(1, 1);
  EXPECT_TRUE(heap.contains(0));
  heap.remove(0);
  EXPECT_FALSE(heap.contains(0));
  EXPECT_EQ(heap.live(), 1u);
  const GainHeap::Top top = heap.pop_best();
  EXPECT_EQ(top.id, 1u);
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
  heap.remove(3);  // never inserted: no-op
  EXPECT_EQ(heap.live(), 0u);
}

TEST(GainHeap, TieBreaksMostRecentlyPushedFirst) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  heap.update(0, 1);
  heap.update(1, 1);
  heap.update(2, 1);
  EXPECT_EQ(heap.pop_best().id, 2u);  // LIFO within a bucket
  EXPECT_EQ(heap.pop_best().id, 1u);
  EXPECT_EQ(heap.pop_best().id, 0u);
}

TEST(GainHeap, RekeyMovesIdToBackOfItsBucket) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  heap.update(0, 1);
  heap.update(1, 1);
  heap.update(0, 1);  // rekey to the same gain: 0 is now most recent
  EXPECT_EQ(heap.pop_best().id, 0u);
  EXPECT_EQ(heap.pop_best().id, 1u);
}

TEST(GainHeap, PopConsumes) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  heap.update(0, 2);
  const GainHeap::Top top = heap.pop_best();
  EXPECT_EQ(top.id, 0u);
  EXPECT_FALSE(heap.contains(0));
  EXPECT_EQ(heap.live(), 0u);
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
  heap.update(0, 1);  // caller re-inserts explicitly
  EXPECT_EQ(heap.pop_best().id, 0u);
}

TEST(GainHeap, GainOfReflectsLatestUpdate) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  heap.update(0, 2);
  EXPECT_EQ(heap.gain_of(0), 2);
  heap.update(0, -1);
  EXPECT_EQ(heap.gain_of(0), -1);
}

TEST(GainHeap, CompactsWhenStaleEntriesDominate) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  // Rekey a handful of ids far past the kCompactFactor * live + kCompactMin
  // threshold; compaction must trigger and live entries must survive it.
  for (int i = 0; i < 1000; ++i) {
    heap.update(0, (i % 5) - 2);
    heap.update(1, ((i + 2) % 5) - 2);
  }
  EXPECT_GE(heap.rebuilds(), 1u);
  EXPECT_LE(heap.entries(),
            GainHeap::kCompactFactor * heap.live() + GainHeap::kCompactMin);
  EXPECT_EQ(heap.live(), 2u);
  EXPECT_NE(heap.pop_best().id, kInvalidEdge);
  EXPECT_NE(heap.pop_best().id, kInvalidEdge);
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
}

TEST(GainHeap, ClearForgetsEverythingButStaysUsable) {
  ScratchArena arena;
  GainHeap heap(arena, 4);
  heap.update(0, 2);
  heap.update(1, -2);
  heap.clear();
  EXPECT_EQ(heap.live(), 0u);
  EXPECT_EQ(heap.entries(), 0u);
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
  heap.update(1, 0);  // reuse after clear: old entries must never resurface
  const GainHeap::Top top = heap.pop_best();
  EXPECT_EQ(top.id, 1u);
  EXPECT_EQ(top.gain, 0);
}

TEST(GainHeap, CapacityMustFitA32BitId) {
  ScratchArena arena;
  // Rejected before anything is allocated.
  EXPECT_THROW(GainHeap(arena, std::size_t{1} << 32), std::length_error);
  EXPECT_NO_THROW(GainHeap(arena, 16));
}

TEST(GainHeap, BaseEntriesPopLikeAscendingPushes) {
  ScratchArena arena;
  GainHeap heap(arena, 8);
  heap.set_base(5, 1);
  heap.set_base(1, 1);
  heap.set_base(3, 2);
  heap.set_base(6, 1);
  EXPECT_EQ(heap.live(), 4u);
  EXPECT_EQ(heap.entries(), 4u);
  heap.update(2, 1);  // pushed after the base: on top of its bucket
  heap.update(5, 1);  // rekeyed: its base entry goes stale
  const std::uint64_t expected[] = {3, 5, 2, 6, 1};
  for (const std::uint64_t id : expected) EXPECT_EQ(heap.pop_best().id, id);
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
  EXPECT_EQ(heap.stale_pops(), 1u);  // 5's base entry
  EXPECT_EQ(heap.entries(), 0u);
}

/// The heap under test and its reference, driven by the same script.
struct Twin {
  GainHeap base;    // pass start through set_base()
  GainHeap pushed;  // pass start through update(), ascending ids

  void expect_same(const char* where, int step) const {
    SCOPED_TRACE(::testing::Message() << where << " step " << step);
    EXPECT_EQ(base.live(), pushed.live());
    EXPECT_EQ(base.entries(), pushed.entries());
    EXPECT_EQ(base.stale_pops(), pushed.stale_pops());
    EXPECT_EQ(base.rebuilds(), pushed.rebuilds());
  }
};

/// Random scripts of clear, pass-start keying, update, remove and
/// pop_best. `churn_percent` is the share of steps that rekey one of a few
/// hot ids, which piles up stale entries until the heaps compact; the
/// compactions made are added to `rebuilds`.
void run_scripts(std::size_t capacity, int churn_percent, std::uint64_t seed,
                 std::uint64_t& rebuilds) {
  ScratchArena arena_a;
  ScratchArena arena_b;
  Twin twin{GainHeap(arena_a, capacity), GainHeap(arena_b, capacity)};
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> any_id(0, capacity - 1);
  std::uniform_int_distribution<std::uint64_t> hot_id(0, 3);
  std::uniform_int_distribution<int> any_gain(GainHeap::kMinGain,
                                              GainHeap::kMaxGain);
  std::uniform_int_distribution<int> percent(0, 99);
  std::vector<std::uint64_t> order(capacity);
  for (int pass = 0; pass < 6; ++pass) {
    twin.base.clear();
    twin.pushed.clear();
    // Key a random subset; set_base in shuffled order, update ascending.
    std::vector<int> gain(capacity, GainHeap::kMinGain - 1);
    for (std::size_t id = 0; id < capacity; ++id) {
      if (percent(rng) < 80) gain[id] = any_gain(rng);
    }
    std::iota(order.begin(), order.end(), std::uint64_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::uint64_t id : order) {
      if (gain[id] >= GainHeap::kMinGain) twin.base.set_base(id, gain[id]);
    }
    for (std::uint64_t id = 0; id < capacity; ++id) {
      if (gain[id] >= GainHeap::kMinGain) twin.pushed.update(id, gain[id]);
    }
    twin.expect_same("keyed", pass);
    for (int step = 0; step < 40 * static_cast<int>(capacity); ++step) {
      const int roll = percent(rng);
      if (roll < churn_percent) {
        const std::uint64_t id = hot_id(rng);
        const int g = any_gain(rng);
        twin.base.update(id, g);
        twin.pushed.update(id, g);
      } else if (roll < churn_percent + (100 - churn_percent) / 3) {
        const std::uint64_t id = any_id(rng);
        const int g = any_gain(rng);
        twin.base.update(id, g);
        twin.pushed.update(id, g);
      } else if (roll < churn_percent + (100 - churn_percent) / 2) {
        const std::uint64_t id = any_id(rng);
        twin.base.remove(id);
        twin.pushed.remove(id);
      } else {
        const GainHeap::Top a = twin.base.pop_best();
        const GainHeap::Top b = twin.pushed.pop_best();
        ASSERT_EQ(a.id, b.id) << "pass " << pass << " step " << step;
        ASSERT_EQ(a.gain, b.gain) << "pass " << pass << " step " << step;
      }
      twin.expect_same("script", step);
      for (const std::uint64_t id : {any_id(rng), hot_id(rng)}) {
        ASSERT_EQ(twin.base.contains(id), twin.pushed.contains(id));
        if (twin.base.contains(id)) {
          ASSERT_EQ(twin.base.gain_of(id), twin.pushed.gain_of(id));
        }
      }
    }
    // Drain: the remaining pop order must agree too.
    for (;;) {
      const GainHeap::Top a = twin.base.pop_best();
      const GainHeap::Top b = twin.pushed.pop_best();
      ASSERT_EQ(a.id, b.id);
      ASSERT_EQ(a.gain, b.gain);
      if (a.id == kInvalidEdge) break;
    }
    twin.expect_same("drained", pass);
  }
  rebuilds += twin.pushed.rebuilds();
}

TEST(GainHeap, BaseLayerScriptsMatchUpdateScripts) {
  std::uint64_t rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_scripts(/*capacity=*/40, /*churn_percent=*/0, seed, rebuilds);
    run_scripts(/*capacity=*/300, /*churn_percent=*/10, seed, rebuilds);
  }
}

TEST(GainHeap, BaseLayerScriptsMatchThroughCompaction) {
  std::uint64_t rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_scripts(/*capacity=*/60, /*churn_percent=*/70, seed, rebuilds);
  }
  EXPECT_GE(rebuilds, 4u);  // the scripts did compact
}

TEST(GainHeap, TouchRepushesLiveEdgesInNeighbourOrder) {
  // A graph at 0 plus (1, 2): N(0) = 0-1, 0-2, 0-3 (edges 0, 1, 2).
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  ScratchArena arena;
  GainHeap heap(arena, g);
  heap.set_base(0, 1);
  heap.set_base(1, 1);
  heap.set_base(2, 0);
  heap.set_base(3, 1);
  heap.update(3, 1);  // own push: above every base entry
  heap.touch(0, [&](const Neighbor& nb) {
    if (nb.edge == 2) heap.rekey(2, 1);  // joins gain 1, no push
  });
  // As if 0, 1, 2 were re-pushed in that order after edge 3.
  const std::uint64_t expected[] = {2, 1, 0, 3};
  for (const std::uint64_t id : expected) {
    const GainHeap::Top top = heap.pop_best();
    EXPECT_EQ(top.id, id);
    EXPECT_EQ(top.gain, 1);
  }
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
}

TEST(GainHeap, LaterEventsTakeEdgesFromATouch) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  ScratchArena arena;
  GainHeap heap(arena, g);
  heap.update(0, 0);
  heap.update(1, 0);
  heap.update(2, 0);
  heap.update(3, 0);
  heap.touch(0, [](const Neighbor&) {});  // 0, 1, 2 on top, 2 first
  heap.update(0, 0);                      // own push: 0 now tops them
  heap.touch(2, [&](const Neighbor& nb) {
    if (nb.edge == 3) heap.remove(3);  // N(2) = 0-2, 1-2: edge 1 moves up
  });
  const std::uint64_t expected[] = {1, 0, 2};
  for (const std::uint64_t id : expected) EXPECT_EQ(heap.pop_best().id, id);
  EXPECT_EQ(heap.pop_best().id, kInvalidEdge);
  EXPECT_EQ(heap.live(), 0u);
}

/// The touch heap and its reference, which applies each touch as
/// per-edge update(f, gain_of(f)) calls in N(x) order.
struct TouchTwin {
  GainHeap touched;
  GainHeap reference;
};

/// One visit action per neighbour, drawn before the touch so both heaps
/// see the same one: 0 keep, 1 remove, else rekey to action - 4.
int draw_action(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> roll(0, 11);
  const int r = roll(rng);
  if (r < 6) return 0;
  if (r < 7) return 1;
  return r - 5;  // 2..6: rekey to gain -2..2
}

/// Random scripts of clear, base writes, update, remove, touch and
/// pop_best over a small hub-heavy graph. `hub_percent` is the share of
/// touches at the hub and `churn_percent` the share of steps that rekey
/// one of a few hot edges; both pile up stale entries until the touch
/// heap compacts (counted in `rebuilds`). With `wrap`, each update and
/// touch of the touch heap first rewinds the version it bumps by 0-3
/// (GainHeapTestPeer), so older entries come back to life as they would
/// after a wrap.
void run_touch_scripts(int hub_percent, int churn_percent, std::uint64_t seed,
                       bool wrap, std::uint64_t& rebuilds) {
  const Graph graph = gen::chung_lu_power_law(40, 160, 1.8, seed);
  const std::size_t m = graph.num_edges();
  VertexId hub = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.degree(v) > graph.degree(hub)) hub = v;
  }
  ScratchArena arena_a;
  ScratchArena arena_b;
  TouchTwin twin{GainHeap(arena_a, graph), GainHeap(arena_b, m)};
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> any_id(0, m - 1);
  std::uniform_int_distribution<std::uint64_t> hot_id(0, 3);
  std::uniform_int_distribution<VertexId> any_vertex(
      0, graph.num_vertices() - 1);
  std::uniform_int_distribution<int> any_gain(GainHeap::kMinGain,
                                              GainHeap::kMaxGain);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<std::uint32_t> rewind(0, wrap ? 3 : 0);
  std::vector<int> actions;
  for (int pass = 0; pass < 6; ++pass) {
    twin.touched.clear();
    twin.reference.clear();
    for (std::uint64_t id = 0; id < m; ++id) {
      if (percent(rng) < 80) {
        const int g = any_gain(rng);
        twin.touched.set_base(id, g);
        twin.reference.set_base(id, g);
      }
    }
    for (int step = 0; step < 40 * static_cast<int>(m); ++step) {
      SCOPED_TRACE(::testing::Message() << "pass " << pass << " step "
                                        << step);
      const int roll = percent(rng);
      if (roll < churn_percent + (100 - churn_percent) / 5) {
        const std::uint64_t id =
            roll < churn_percent ? hot_id(rng) : any_id(rng);
        const int g = any_gain(rng);
        GainHeapTestPeer::rewind_id(twin.touched, id, rewind(rng));
        twin.touched.update(id, g);
        twin.reference.update(id, g);
      } else if (roll < churn_percent + (100 - churn_percent) / 4) {
        const std::uint64_t id = any_id(rng);
        twin.touched.remove(id);
        twin.reference.remove(id);
      } else if (roll < churn_percent + (100 - churn_percent) / 2) {
        const VertexId x = percent(rng) < hub_percent ? hub : any_vertex(rng);
        actions.clear();
        for (std::size_t i = 0; i < graph.degree(x); ++i) {
          actions.push_back(draw_action(rng));
        }
        std::size_t at = 0;
        GainHeapTestPeer::rewind_vertex(twin.touched, x, rewind(rng));
        twin.touched.touch(x, [&](const Neighbor& nb) {
          const int action = actions[at++];
          if (action == 1) twin.touched.remove(nb.edge);
          if (action >= 2) twin.touched.rekey(nb.edge, action - 4);
        });
        at = 0;
        for (const Neighbor& nb : graph.neighbors(x)) {
          const int action = actions[at++];
          if (action == 1) twin.reference.remove(nb.edge);
          if (action >= 2) twin.reference.update(nb.edge, action - 4);
          if (twin.reference.contains(nb.edge)) {
            twin.reference.update(nb.edge, twin.reference.gain_of(nb.edge));
          }
        }
      } else {
        const GainHeap::Top a = twin.touched.pop_best();
        const GainHeap::Top b = twin.reference.pop_best();
        ASSERT_EQ(a.id, b.id);
        ASSERT_EQ(a.gain, b.gain);
      }
      ASSERT_EQ(twin.touched.live(), twin.reference.live());
      for (const std::uint64_t id : {any_id(rng), hot_id(rng)}) {
        ASSERT_EQ(twin.touched.contains(id), twin.reference.contains(id));
        if (twin.touched.contains(id)) {
          ASSERT_EQ(twin.touched.gain_of(id), twin.reference.gain_of(id));
        }
      }
    }
    // Drain: the remaining pop order must agree too.
    for (;;) {
      const GainHeap::Top a = twin.touched.pop_best();
      const GainHeap::Top b = twin.reference.pop_best();
      ASSERT_EQ(a.id, b.id) << "pass " << pass;
      ASSERT_EQ(a.gain, b.gain) << "pass " << pass;
      if (a.id == kInvalidEdge) break;
    }
    EXPECT_EQ(twin.touched.live(), 0u);
  }
  rebuilds += twin.touched.rebuilds();
}

TEST(GainHeap, TouchScriptsMatchPerEdgeUpdates) {
  std::uint64_t rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_touch_scripts(/*hub_percent=*/20, /*churn_percent=*/0, seed,
                      /*wrap=*/false, rebuilds);
    run_touch_scripts(/*hub_percent=*/50, /*churn_percent=*/10, seed,
                      /*wrap=*/false, rebuilds);
  }
}

TEST(GainHeap, TouchScriptsMatchThroughCompaction) {
  std::uint64_t rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_touch_scripts(/*hub_percent=*/90, /*churn_percent=*/60, seed,
                      /*wrap=*/false, rebuilds);
  }
  EXPECT_GE(rebuilds, 4u);  // the scripts did compact
}

TEST(GainHeap, TouchScriptsMatchAcrossVersionWrap) {
  // A wrapped version revives an older entry of the same id or vertex; it
  // sits below the latest one, so it must never pop anything first.
  std::uint64_t rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_touch_scripts(/*hub_percent=*/50, /*churn_percent=*/30, seed,
                      /*wrap=*/true, rebuilds);
    run_touch_scripts(/*hub_percent=*/90, /*churn_percent=*/60, seed,
                      /*wrap=*/true, rebuilds);
  }
}

}  // namespace
}  // namespace tlp::refine
