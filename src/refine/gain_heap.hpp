// GainHeap: a bucket-ladder max-"heap" over per-edge move gains with lazy
// invalidation — core/frontier.cpp's flat-ladder idiom applied to gains.
//
// A single edge move changes at most the two endpoint replicas, so every
// gain lives in the tiny integer range [-2, +2]: the heap is one bucket
// per gain value with a high-water mark, not a comparison structure.
// Rekeying never searches: update() bumps the id's version and pushes a
// fresh (id, version) *own entry*; entries whose version no longer
// matches are STALE and are discarded the moment they surface in
// pop_best() (counted in stale_pops()). When stale entries outnumber live
// ones by kCompactFactor the ladder compacts in place (counted in
// rebuilds()) so a pathological rekey storm cannot grow the buckets
// unboundedly.
//
// Determinism contract: pop_best() returns the highest current gain;
// within a gain bucket the MOST RECENTLY pushed live entry wins (LIFO).
// The engine relies on this being a pure function of the update/pop
// history, never of wall-clock or thread schedule.
//
// The base layer: right after clear(), set_base(id, gain) keys many ids
// at the cost of one byte each, with the heap behaving exactly as if
// update(id, gain) had been called for them in ascending id order. Each
// bucket keeps its base entries implicitly — every id whose base byte
// names the bucket — below its pushed entries, and pop_best() walks a
// per-bucket cursor down the ids once the pushed entries are drained: the
// LIFO order of ascending pushes. A base entry is live while its id has
// not been updated, rekeyed, removed or popped since; one that went stale
// stays counted in entries() until the cursor passes it (a stale pop) or
// a compaction drops it, as a pushed entry would.
//
// Touches (a heap built over a Graph): touch(x, visit) leaves the heap
// exactly as if, for each neighbour of x in N(x) order, visit ran and the
// edge, if live, was then re-pushed at its gain — without a push per
// edge. It bumps x's touch version t and pushes one *touch entry* (x, t)
// into each bucket holding one of x's live edges; visit may rekey() (no
// push) or remove() the edge it is shown. An edge f = (u, v) then pops by
// its recency τ(f), the latest of f's own last push, (u's last touch,
// f's position in N(u)) and (v's last touch, its position in N(v)),
// compared as pairs. A touch entry is live while x's version is still t,
// and walks a cursor down N(x), yielding the edges whose gain is its
// bucket's. That needs no per-edge check of who touched f last: the entry
// for f's latest event sits in f's bucket above every older entry that
// could yield f (own, touch or base), and f's first pop consumes it, so
// an older entry never reaches f first. docs/REFINEMENT.md §2 has the
// argument.
//
// Ids are caller-defined indices in [0, capacity) — EdgeIds for the
// engine — and capacity is below 2^32, so an entry is 12 bytes. All
// storage is arena-leased.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "partition/run_context.hpp"

namespace tlp::refine {

class GainHeap {
 public:
  static constexpr int kMinGain = -2;
  static constexpr int kMaxGain = 2;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxGain - kMinGain + 1);
  /// Compaction threshold: compact when total entries exceed
  /// kCompactFactor * live + kCompactMin.
  static constexpr std::size_t kCompactFactor = 4;
  static constexpr std::size_t kCompactMin = 64;

  /// The ladder index of a gain in [kMinGain, kMaxGain].
  [[nodiscard]] static std::size_t bucket_of(int gain) {
    return static_cast<std::size_t>(gain - kMinGain);
  }

  /// A heap over ids [0, capacity), without touch(). Throws
  /// std::length_error when capacity does not fit a 32-bit id.
  GainHeap(ScratchArena& arena, std::size_t capacity)
      : GainHeap(arena, nullptr, capacity) {}

  /// A heap over g's edge ids, with touch().
  GainHeap(ScratchArena& arena, const Graph& g)
      : GainHeap(arena, &g, g.num_edges()) {}

  /// Keys id to `gain` in the base layer. The set_base calls since clear()
  /// leave the heap update() calls for the same ids in ascending id order
  /// would, whatever order they came in. Precondition: no update, touch,
  /// remove or pop_best since clear() (or construction), and id not keyed
  /// yet.
  void set_base(std::uint64_t id, int gain) {
    assert(gain >= kMinGain && gain <= kMaxGain);
    const std::size_t b = bucket_of(gain);
    assert(gain_[id] == kNoGain && id < cursor_[b]);
    assert(entries_ == live_ && live_ == base_live_);
    gain_[id] = static_cast<std::int8_t>(gain);
    base_[id] = static_cast<std::uint8_t>(b);
    ++live_;
    ++entries_;
    ++base_live_;
    if (static_cast<int>(b) > hwm_) hwm_ = static_cast<int>(b);
  }

  /// (Re)keys id to `gain`: the previous entry (if any) goes stale, a
  /// fresh one is pushed. gain must be in [kMinGain, kMaxGain].
  void update(std::uint64_t id, int gain) {
    rekey(id, gain);
    push(bucket_of(gain),
         Entry{static_cast<std::uint32_t>(id), version_[id], kOwn});
  }

  /// Keys id to `gain` without pushing an entry (its entries go stale).
  /// Only inside touch(x, visit)'s visit of id, whose touch entry then
  /// carries it.
  void rekey(std::uint64_t id, int gain) {
    assert(gain >= kMinGain && gain <= kMaxGain);
    if (gain_[id] == kNoGain) ++live_;
    retire_base(id);
    gain_[id] = static_cast<std::int8_t>(gain);
    ++version_[id];
    if (static_cast<int>(bucket_of(gain)) > hwm_) {
      hwm_ = static_cast<int>(bucket_of(gain));
    }
  }

  /// Drops id from the heap (its entries go stale). No-op if not live.
  void remove(std::uint64_t id) {
    if (gain_[id] == kNoGain) return;
    consume(id);
  }

  /// Calls visit(nb) for each neighbour nb of x in N(x) order, then gives
  /// x's live edges the recency of a re-push in that order: the heap is
  /// left as if each visit had been followed by update(nb.edge, gain)
  /// when the edge is live. visit may rekey() or remove() nb.edge only.
  /// Requires a heap built over a Graph.
  template <class Visit>
  void touch(VertexId x, Visit&& visit) {
    assert(graph_ != nullptr);
    const auto nbrs = graph_->neighbors(x);
    assert(nbrs.size() < kOwn);
    unsigned buckets = 0;  // bit b: x has a live edge of gain bucket b
    for (const Neighbor& nb : nbrs) {
      visit(nb);
      const std::int8_t gain = gain_[nb.edge];
      if (gain != kNoGain) buckets |= 1u << bucket_of(gain);
    }
    const std::uint32_t version = ++touched_[x];
    const auto cursor = static_cast<std::uint32_t>(nbrs.size());
    for (std::size_t b = 0; buckets != 0; ++b, buckets >>= 1) {
      if ((buckets & 1u) != 0) push(b, Entry{x, version, cursor});
    }
  }

  /// True iff id currently has a live gain.
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return gain_[id] != kNoGain;
  }

  /// Current gain of a live id (precondition: contains(id)).
  [[nodiscard]] int gain_of(std::uint64_t id) const {
    assert(contains(id));
    return gain_[id];
  }

  struct Top {
    std::uint64_t id = kInvalidEdge;
    int gain = 0;
  };

  /// Pops and CONSUMES the live entry with the highest gain (LIFO within a
  /// bucket); stale entries encountered on the way are discarded. Returns
  /// id == kInvalidEdge when empty. The popped id is no longer live — the
  /// caller re-inserts it with update() if it should stay movable.
  [[nodiscard]] Top pop_best() {
    while (hwm_ >= 0) {
      const auto b = static_cast<std::size_t>(hwm_);
      const int gain = hwm_ + kMinGain;
      auto& bucket = *buckets_[b];
      while (!bucket.empty()) {
        Entry& entry = bucket.back();
        if (entry.cursor == kOwn) {
          const std::uint32_t id = entry.id;
          const bool live = own_live(entry, b);
          bucket.pop_back();
          --entries_;
          if (!live) {
            ++stale_pops_;
            continue;
          }
          consume(id);
          return Top{id, gain};
        }
        if (touched_[entry.id] != entry.version) {
          bucket.pop_back();
          --entries_;
          ++stale_pops_;
          continue;
        }
        if (advance(entry, b)) {
          const EdgeId id =
              graph_->neighbors(entry.id)[--entry.cursor].edge;
          consume(id);
          return Top{id, gain};
        }
        bucket.pop_back();  // spent: every edge it carried is gone
        --entries_;
      }
      // The pushed entries are drained: walk the base entries below them,
      // highest id first.
      std::size_t& cursor = cursor_[b];
      while (cursor > 0) {
        const std::size_t id = --cursor;
        const std::uint8_t base = base_[id];
        if ((base & kBucketMask) != b) continue;  // kNoBase matches none
        base_[id] = kNoBase;
        --entries_;
        if ((base & kStaleBit) != 0) {
          ++stale_pops_;
          continue;
        }
        --base_live_;
        consume(id);
        return Top{id, gain};
      }
      --hwm_;
    }
    return Top{};
  }

  /// Forgets every entry and live gain; versions stay monotone so pooled
  /// reuse can never resurrect an old entry. O(capacity).
  void clear() {
    for (auto& bucket : buckets_) bucket->clear();
    std::fill(gain_->begin(), gain_->end(), kNoGain);
    std::fill(base_->begin(), base_->end(), kNoBase);
    cursor_.fill(base_->size());
    stale_base_->clear();
    entries_ = 0;
    live_ = 0;
    base_live_ = 0;
    hwm_ = -1;
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  /// Entries currently sitting in buckets, stale included.
  [[nodiscard]] std::size_t entries() const { return entries_; }
  /// Cumulative stale entries discarded by pop_best().
  [[nodiscard]] std::uint64_t stale_pops() const { return stale_pops_; }
  /// Cumulative in-place compactions (the rebuild-threshold events).
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  /// Tests rewind versions to replay a wrap without 2^32 updates.
  friend struct GainHeapTestPeer;

  static constexpr std::int8_t kNoGain = std::int8_t{-128};
  /// base_[id]: the bucket of id's base entry, kStaleBit once the entry
  /// went stale, kNoBase when id has none (never set, popped, passed by
  /// the cursor or compacted away).
  static constexpr std::uint8_t kBucketMask = 0x07;
  static constexpr std::uint8_t kStaleBit = 0x08;
  static constexpr std::uint8_t kNoBase = 0xFF;
  /// Entry::cursor of an own entry.
  static constexpr std::uint32_t kOwn = 0xFFFFFFFF;

  /// An own entry (cursor == kOwn): id's push at its `version`. A touch
  /// entry: vertex id's touch at its touch `version`, whose positions in
  /// N(id) below `cursor` are still to be walked.
  struct Entry {
    std::uint32_t id;
    std::uint32_t version;
    std::uint32_t cursor;
  };
  static_assert(sizeof(Entry) == 12);

  GainHeap(ScratchArena& arena, const Graph* g, std::size_t capacity)
      : graph_(g),
        gain_(arena.acquire<std::int8_t>(checked(capacity), kNoGain)),
        version_(arena.acquire<std::uint32_t>(capacity, 0)),
        touched_(arena.acquire<std::uint32_t>(
            g != nullptr ? g->num_vertices() : 0, 0)),
        base_(arena.acquire<std::uint8_t>(capacity, kNoBase)),
        stale_base_(arena.acquire<std::uint32_t>(0)) {
    for (auto& bucket : buckets_) bucket = arena.acquire<Entry>(0);
    cursor_.fill(capacity);
  }

  static std::size_t checked(std::size_t capacity) {
    if (capacity > std::size_t{0xFFFFFFFF}) {
      throw std::length_error("GainHeap: capacity must be below 2^32");
    }
    return capacity;
  }

  void push(std::size_t b, const Entry& entry) {
    buckets_[b]->push_back(entry);
    ++entries_;
    if (entries_ > kCompactFactor * live_ + kCompactMin) compact();
  }

  /// The gain_ byte of bucket b's gain.
  [[nodiscard]] static std::int8_t gain_byte(std::size_t b) {
    return static_cast<std::int8_t>(static_cast<int>(b) + kMinGain);
  }

  /// Whether an own entry in bucket b is live: its id's last push, at the
  /// id's gain. The gain check makes a version that wrapped around to an
  /// old entry's harmless: that entry sits below the id's latest one.
  [[nodiscard]] bool own_live(const Entry& entry, std::size_t b) const {
    return version_[entry.id] == entry.version &&
           gain_[entry.id] == gain_byte(b);
  }

  /// Moves a touch entry's cursor down to the next edge of bucket b's
  /// gain (left at position cursor - 1); false when none is left.
  bool advance(Entry& entry, std::size_t b) const {
    const auto nbrs = graph_->neighbors(entry.id);
    for (; entry.cursor > 0; --entry.cursor) {
      if (gain_[nbrs[entry.cursor - 1].edge] == gain_byte(b)) return true;
    }
    return false;
  }

  /// Makes id's live base entry (if any) stale: id is being rekeyed,
  /// removed or popped.
  void retire_base(std::uint64_t id) {
    if (base_[id] >= kNumBuckets) return;
    base_[id] |= kStaleBit;
    --base_live_;
    stale_base_->push_back(static_cast<std::uint32_t>(id));
  }

  /// Drops live id (popped or removed): it leaves the heap and every
  /// entry of it goes stale.
  void consume(std::uint64_t id) {
    retire_base(id);
    gain_[id] = kNoGain;
    ++version_[id];
    --live_;
  }

  /// Erases stale and spent entries in place, preserving the relative
  /// (LIFO) order of the rest, and moves each kept touch entry's cursor
  /// to the next edge it carries; stale base entries still ahead of their
  /// cursor are dropped too.
  void compact() {
    entries_ = base_live_;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      auto& bucket = *buckets_[b];
      std::size_t kept = 0;
      for (Entry& entry : bucket) {
        const bool keep = entry.cursor == kOwn
                              ? own_live(entry, b)
                              : touched_[entry.id] == entry.version &&
                                    advance(entry, b);
        if (keep) bucket[kept++] = entry;
      }
      bucket.resize(kept);
      entries_ += kept;
    }
    for (const std::uint32_t id : *stale_base_) base_[id] = kNoBase;
    stale_base_->clear();
    ++rebuilds_;
  }

  const Graph* graph_;
  ScratchArena::Lease<std::int8_t> gain_;
  /// Per id, bumped by every update, rekey, remove and pop.
  ScratchArena::Lease<std::uint32_t> version_;
  /// Per vertex, bumped by every touch.
  ScratchArena::Lease<std::uint32_t> touched_;
  ScratchArena::Lease<std::uint8_t> base_;
  /// Ids whose base entry went stale since the last clear() or compaction.
  ScratchArena::Lease<std::uint32_t> stale_base_;
  std::array<ScratchArena::Lease<Entry>, kNumBuckets> buckets_;
  /// Per bucket, the base entries left to walk sit at ids below it.
  std::array<std::size_t, kNumBuckets> cursor_{};
  std::size_t entries_ = 0;
  std::size_t live_ = 0;
  std::size_t base_live_ = 0;
  int hwm_ = -1;
  std::uint64_t stale_pops_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace tlp::refine
