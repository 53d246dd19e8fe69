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
// Ids are caller-defined indices in [0, capacity) — EdgeIds for the
// engine. All storage is arena-leased.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

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

  GainHeap(ScratchArena& arena, std::size_t capacity)
      : gain_(arena.acquire<std::int8_t>(capacity, kNoGain)),
        version_(arena.acquire<std::uint32_t>(capacity, 0)) {
    for (auto& bucket : buckets_) bucket = arena.acquire<Entry>(0);
  }

  /// (Re)keys id to `gain`: the previous entry (if any) goes stale, a
  /// fresh one is pushed. gain must be in [kMinGain, kMaxGain].
  void update(std::uint64_t id, int gain) {
    assert(gain >= kMinGain && gain <= kMaxGain);
    if (gain_[id] == kNoGain) ++live_;
    gain_[id] = static_cast<std::int8_t>(gain);
    const std::uint32_t version = ++version_[id];
    const std::size_t b = bucket_of(gain);
    buckets_[b]->push_back(Entry{id, version});
    ++entries_;
    if (static_cast<int>(b) > hwm_) hwm_ = static_cast<int>(b);
    if (entries_ > kCompactFactor * live_ + kCompactMin) compact();
  }

  /// Drops id from the heap (its entries go stale). No-op if not live.
  void remove(std::uint64_t id) {
    if (gain_[id] == kNoGain) return;
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
      auto& bucket = *buckets_[static_cast<std::size_t>(hwm_)];
      while (!bucket.empty()) {
        const Entry entry = bucket.back();
        bucket.pop_back();
        --entries_;
        if (version_[entry.id] != entry.version) {
          ++stale_pops_;
          continue;
        }
        gain_[entry.id] = kNoGain;
        ++version_[entry.id];
        --live_;
        return Top{entry.id, hwm_ + kMinGain};
      }
      --hwm_;
    }
    return Top{};
  }

  /// Forgets every entry and live gain; versions stay monotone so pooled
  /// reuse can never resurrect an old entry. O(capacity).
  void clear() {
    for (auto& bucket : buckets_) bucket->clear();
    for (auto& g : *gain_) g = kNoGain;
    entries_ = 0;
    live_ = 0;
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

  struct Entry {
    std::uint64_t id;
    std::uint32_t version;
  };

  [[nodiscard]] static std::size_t bucket_of(int gain) {
    return static_cast<std::size_t>(gain - kMinGain);
  }

  /// Erases stale entries in place, preserving relative (LIFO) order of
  /// the live ones.
  void compact() {
    entries_ = 0;
    for (auto& lease : buckets_) {
      auto& bucket = *lease;
      std::size_t kept = 0;
      for (const Entry& entry : bucket) {
        if (version_[entry.id] == entry.version) bucket[kept++] = entry;
      }
      bucket.resize(kept);
      entries_ += kept;
    }
    ++rebuilds_;
  }

  ScratchArena::Lease<std::int8_t> gain_;
  ScratchArena::Lease<std::uint32_t> version_;
  std::array<ScratchArena::Lease<Entry>, kNumBuckets> buckets_;
  std::size_t entries_ = 0;
  std::size_t live_ = 0;
  int hwm_ = -1;
  std::uint64_t stale_pops_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace tlp::refine
