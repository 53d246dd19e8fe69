// GainHeap: a bucket-ladder max-"heap" over per-edge move gains with lazy
// invalidation — core/frontier.cpp's flat-ladder idiom applied to gains.
//
// A single edge move changes at most the two endpoint replicas, so every
// gain lives in the tiny integer range [-2, +2]: the heap is one bucket
// per gain value with a high-water mark, not a comparison structure.
// Rekeying never searches: update() bumps the id's version and pushes a
// fresh (id, version) entry; entries whose version no longer matches are
// STALE and are discarded the moment they surface in pop_best() (counted
// in stale_pops()). When stale entries outnumber live ones by
// kCompactFactor the ladder compacts in place (counted in rebuilds()) so
// a pathological rekey storm cannot grow the buckets unboundedly.
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
// not been updated, removed or popped since; one that went stale stays
// counted in entries() until the cursor passes it (a stale pop) or a
// compaction drops it, as a pushed entry would.
//
// Ids are caller-defined indices in [0, capacity) — EdgeIds for the
// engine — and capacity is below 2^32, so a pushed entry is 8 bytes. All
// storage is arena-leased.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

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

  /// Throws std::length_error when capacity does not fit a 32-bit id.
  GainHeap(ScratchArena& arena, std::size_t capacity)
      : gain_(arena.acquire<std::int8_t>(checked(capacity), kNoGain)),
        version_(arena.acquire<std::uint32_t>(capacity, 0)),
        base_(arena.acquire<std::uint8_t>(capacity, kNoBase)),
        stale_base_(arena.acquire<std::uint32_t>(0)) {
    for (auto& bucket : buckets_) bucket = arena.acquire<Entry>(0);
    cursor_.fill(capacity);
  }

  /// Keys id to `gain` in the base layer. The set_base calls since clear()
  /// leave the heap update() calls for the same ids in ascending id order
  /// would, whatever order they came in. Precondition: no update, remove
  /// or pop_best since clear() (or construction), and id not keyed yet.
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
    assert(gain >= kMinGain && gain <= kMaxGain);
    if (gain_[id] == kNoGain) ++live_;
    retire_base(id);
    gain_[id] = static_cast<std::int8_t>(gain);
    const std::uint32_t version = ++version_[id];
    const std::size_t b = bucket_of(gain);
    buckets_[b]->push_back(Entry{static_cast<std::uint32_t>(id), version});
    ++entries_;
    if (static_cast<int>(b) > hwm_) hwm_ = static_cast<int>(b);
    if (entries_ > kCompactFactor * live_ + kCompactMin) compact();
  }

  /// Drops id from the heap (its entries go stale). No-op if not live.
  void remove(std::uint64_t id) {
    if (gain_[id] == kNoGain) return;
    retire_base(id);
    gain_[id] = kNoGain;
    ++version_[id];
    --live_;
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
      auto& bucket = *buckets_[b];
      while (!bucket.empty()) {
        const Entry entry = bucket.back();
        bucket.pop_back();
        --entries_;
        if (version_[entry.id] != entry.version) {
          ++stale_pops_;
          continue;
        }
        consume(entry.id);
        return Top{entry.id, hwm_ + kMinGain};
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
        return Top{id, hwm_ + kMinGain};
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
  static constexpr std::int8_t kNoGain = std::int8_t{-128};
  /// base_[id]: the bucket of id's base entry, kStaleBit once the entry
  /// went stale, kNoBase when id has none (never set, popped, passed by
  /// the cursor or compacted away).
  static constexpr std::uint8_t kBucketMask = 0x07;
  static constexpr std::uint8_t kStaleBit = 0x08;
  static constexpr std::uint8_t kNoBase = 0xFF;

  struct Entry {
    std::uint32_t id;
    std::uint32_t version;
  };
  static_assert(sizeof(Entry) == 8);

  static std::size_t checked(std::size_t capacity) {
    if (capacity > std::size_t{0xFFFFFFFF}) {
      throw std::length_error("GainHeap: capacity must be below 2^32");
    }
    return capacity;
  }

  /// Makes id's live base entry (if any) stale: id is being rekeyed,
  /// removed or popped.
  void retire_base(std::uint64_t id) {
    if (base_[id] >= kNumBuckets) return;
    base_[id] |= kStaleBit;
    --base_live_;
    stale_base_->push_back(static_cast<std::uint32_t>(id));
  }

  /// Pops live id: it leaves the heap and every entry of it goes stale.
  void consume(std::uint64_t id) {
    gain_[id] = kNoGain;
    ++version_[id];
    --live_;
  }

  /// Erases stale entries in place, preserving relative (LIFO) order of
  /// the live ones; stale base entries still ahead of their cursor are
  /// dropped too.
  void compact() {
    entries_ = base_live_;
    for (auto& lease : buckets_) {
      auto& bucket = *lease;
      std::size_t kept = 0;
      for (const Entry& entry : bucket) {
        if (version_[entry.id] == entry.version) bucket[kept++] = entry;
      }
      bucket.resize(kept);
      entries_ += kept;
    }
    for (const std::uint32_t id : *stale_base_) base_[id] = kNoBase;
    stale_base_->clear();
    ++rebuilds_;
  }

  ScratchArena::Lease<std::int8_t> gain_;
  ScratchArena::Lease<std::uint32_t> version_;
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
