// Unit tests for the lazy-invalidation bucket-ladder GainHeap
// (src/refine/gain_heap.hpp): ordering, LIFO tie-breaking, lazy staleness,
// consumption semantics, the compaction threshold, and the base layer
// against the same heap keyed through update().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "refine/gain_heap.hpp"

namespace tlp::refine {
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

}  // namespace
}  // namespace tlp::refine
