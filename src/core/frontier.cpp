#include "core/frontier.hpp"

#include <algorithm>
#include <functional>

#include "util/simd.hpp"

namespace tlp {
namespace {

/// Exact comparison of M' fractions a1/b1 vs a2/b2 (b >= 0; b == 0 means
/// +infinity). Returns true iff the first is strictly better. Products stay
/// within __int128 for any graph this library can represent.
bool better_fraction(std::uint64_t a1, std::uint64_t b1, std::uint64_t a2,
                     std::uint64_t b2) {
  if (b1 == 0 && b2 == 0) return a1 > a2;
  if (b1 == 0) return true;
  if (b2 == 0) return false;
  return static_cast<unsigned __int128>(a1) * b2 >
         static_cast<unsigned __int128>(a2) * b1;
}

}  // namespace

Frontier::Frontier()
    : own_arena_(std::make_unique<ScratchArena>()),
      arena_(own_arena_.get()),
      slots_(arena_->acquire<Slot>(0)),
      stage1_heap_(arena_->acquire<HeapEntry>(0)),
      touched_(arena_->acquire<Touch>(0)) {}

Frontier::Frontier(ScratchArena& arena, VertexId num_vertices)
    : arena_(&arena),
      slots_(arena_->acquire<Slot>(num_vertices)),
      stage1_heap_(arena_->acquire<HeapEntry>(0)),
      touched_(arena_->acquire<Touch>(0)) {}

void Frontier::clear() {
  size_ = 0;
  stage1_heap_->clear();  // keeps the lease (and its capacity)
  for (std::uint32_t c = 1; c <= hwm_c_; ++c) {
    ladder_[c - 1]->clear();  // ditto: drained buckets stay pooled
  }
  hwm_c_ = 0;
  live_ = Live::kBoth;
  touched_->clear();
  if (++round_ == 0) {
    // A wrapped epoch could resurrect prehistoric tags; re-zero both and
    // restart. Unreachable in practice (2^32 - 1 rounds on one frontier).
    std::fill(slots_->begin(), slots_->end(), Slot{});
    round_ = 1;
  }
}

void Frontier::grow_to(std::size_t n) {
  // Amortized doubling keeps on-demand growth O(1) per insert; the new
  // slots' tags are 0 (= never live).
  slots_->resize(std::max(n, slots_->size() * 2));
}

void Frontier::bucket_push(std::uint32_t c, std::uint32_t rdeg, VertexId v) {
  assert(c >= 1);
  while (ladder_.size() < c) {
    ladder_.push_back(
        arena_->acquire<std::pair<std::uint32_t, VertexId>>(0));
  }
  hwm_c_ = std::max(hwm_c_, c);
  Bucket& bucket = ladder_[c - 1];
  bucket->push_back({rdeg, v});
  std::push_heap(bucket->begin(), bucket->end(), std::greater<>{});
}

VertexId Frontier::stage1_top() {
  auto& heap = *stage1_heap_;
  while (!heap.empty()) {
    const HeapEntry top = heap.front();
    if (contains(top.vertex) && (*slots_)[top.vertex].cand.mu1 == top.mu1) {
      return top.vertex;
    }
    // Stale: vertex joined or its μs1 changed since push.
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
  }
  return kInvalidVertex;
}

VertexId Frontier::select_stage2(EdgeId e_in, EdgeId e_out) {
  if (live_ == Live::kStage1) {
    // Candidates untouched since the last switch still have their live
    // ladder entry; each touched one gets the entry of its current c.
    for (const Touch& t : *touched_) {
      if (touch_live(t)) {
        bucket_push(t.c, (*slots_)[t.vertex].cand.rdeg, t.vertex);
      }
    }
    switched();
  }
  live_ = Live::kStage2;
  VertexId best = kInvalidVertex;
  std::uint64_t best_num = 0;
  std::uint64_t best_den = 1;
  std::uint32_t best_c = 0;
  std::uint32_t best_r = 0;
  for (std::uint32_t c = 1; c <= hwm_c_; ++c) {
    // Pull the NEXT rung's heap head into cache while this rung is
    // scanned: the ladder walk touches one cold cache line per rung, and
    // the rungs are independent arena buffers with no hardware-prefetch
    // pattern between them. prefetch_read never faults (empty buckets may
    // hand it a null data pointer — still fine).
    if (c < hwm_c_) simd::prefetch_read(ladder_[c]->data());
    auto& bucket = *ladder_[c - 1];
    // Drop entries superseded by a newer (c, rdeg) state or removed
    // candidates.
    while (!bucket.empty() && !bucket_entry_live(c, bucket.front())) {
      std::pop_heap(bucket.begin(), bucket.end(), std::greater<>{});
      bucket.pop_back();
    }
    if (bucket.empty()) continue;
    // Within one c, M' is strictly decreasing in rdeg, so only the bucket's
    // (min rdeg, min id) entry can win.
    const auto [rdeg, v] = bucket.front();
    assert(rdeg >= c);
    const std::uint64_t num = e_in + c;
    // e_out counts every member->outside residual edge, c of which lead to
    // this candidate, so the subtraction cannot underflow.
    assert(e_out + rdeg >= 2ULL * c);
    const std::uint64_t den = e_out + rdeg - 2ULL * c;
    const bool wins =
        best == kInvalidVertex || better_fraction(num, den, best_num, best_den) ||
        (!better_fraction(best_num, best_den, num, den) &&
         (c > best_c || (c == best_c && (rdeg < best_r ||
                                         (rdeg == best_r && v < best)))));
    if (wins) {
      best = v;
      best_num = num;
      best_den = den;
      best_c = c;
      best_r = rdeg;
    }
  }
  return best;
}

}  // namespace tlp
