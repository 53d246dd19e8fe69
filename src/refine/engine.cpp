#include "refine/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <vector>

#include "refine/gain_heap.hpp"
#include "refine/move_state.hpp"

namespace tlp::refine {
namespace {

/// Heap pops between two cancel-token polls inside a pass (a poll reads
/// the clock when a deadline is set, so it stays off the per-pop path).
constexpr std::size_t kCancelPollPops = 4096;

/// Seconds since `start` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// start_key_ of an edge the pass start left out of the heap.
constexpr std::uint8_t kNoKey = 0xFF;

/// One applied move, logged for rollback.
struct MoveRecord {
  EdgeId edge;
  PartitionId from;
  PartitionId to;
  int gain;
};

class SerialRun {
 public:
  SerialRun(const Graph& g, EdgePartition& partition,
            const RefineOptions& options, RunContext& ctx)
      : g_(g),
        partition_(partition),
        options_(options),
        ctx_(ctx),
        state_(g, partition,
               MoveState::cap_for(g.num_edges(), partition.num_partitions(),
                                  options.balance_slack),
               ctx.arena()),
        heap_(ctx.arena(), g),
        locked_(ctx.arena().acquire<std::uint32_t>(g.num_edges(), 0)),
        start_key_(ctx.arena().acquire<std::uint8_t>(g.num_edges(), kNoKey)),
        moved_(ctx.arena().acquire<std::uint8_t>(g.num_vertices(), 0)),
        parked_on_(ctx.arena().acquire<PartitionId>(g.num_edges(),
                                                    kNoPartition)),
        parked_gain_(ctx.arena().acquire<std::int8_t>(g.num_edges(), 0)),
        parked_(partition.num_partitions()),
        floor_(MoveState::floor_for(g.num_edges(), partition.num_partitions(),
                                    options.balance_slack)) {}

  RefineResult run() {
    RefineResult stats;
    if (partition_.num_partitions() < 2 || g_.num_edges() == 0) return stats;
    for (int pass = 1; pass <= options_.max_passes; ++pass) {
      ctx_.check_cancelled();
      ++stats.passes;
      const std::size_t survived = run_pass(static_cast<std::uint32_t>(pass),
                                            stats);
      if (survived == 0) break;
    }
    stats.heap_rebuilds += heap_.rebuilds();  // lazy compaction events
    return stats;
  }

 private:
  /// Pass-start reindex: one heap rebuild per pass, written to the heap's
  /// base layer (one byte per edge, no pushes). Edges locked by THIS pass
  /// never exist here (a pass starts with everything unlocked), and the
  /// parked lists start empty. While no partition is at the cap, a key
  /// reads only its endpoints' counts and replica sets, so when none was
  /// at the last pass start either, only the edges at an endpoint of a
  /// move that survived the last pass get a fresh best_key; every other
  /// key is the one that start gave. Otherwise every edge is rekeyed.
  void rebuild_heap(RefineResult& stats) {
    heap_.clear();
    for (auto& ladder : parked_) {
      for (auto& bucket : ladder) bucket.clear();
    }
    std::fill(parked_on_->begin(), parked_on_->end(), kNoPartition);
    const bool capped = state_.any_full();
    const bool reuse = start_keys_uncapped_ && !capped;
    for (EdgeId e = 0; e < g_.num_edges(); ++e) {
      const Edge& edge = g_.edge(e);
      if (!reuse || moved_[edge.u] != 0 || moved_[edge.v] != 0) {
        const PartitionId from = partition_.partition_of(e);
        std::uint8_t key = kNoKey;
        if (from != kNoPartition) {
          ++stats.start_rekeyed;
          const MoveState::Candidate cand = state_.best_key(edge, from);
          if (cand.to != kNoPartition) {
            key = static_cast<std::uint8_t>(GainHeap::bucket_of(cand.gain));
          }
          park(e, cand);
        }
        start_key_[e] = key;
      }
      if (start_key_[e] != kNoKey) {
        heap_.set_base(e, static_cast<int>(start_key_[e]) + GainHeap::kMinGain);
      }
    }
    start_keys_uncapped_ = !capped;
    std::fill(moved_->begin(), moved_->end(), std::uint8_t{0});
  }

  /// Parks e on the partition whose cap blocks its best move, at that
  /// move's gain (cand.blocked == kNoPartition unparks). parked_on_ and
  /// parked_gain_ name an edge's one live entry; entries that disagree
  /// with them are stale and skipped.
  void park(EdgeId e, const MoveState::Candidate& cand) {
    if (cand.blocked == kNoPartition) {
      parked_on_[e] = kNoPartition;
      return;
    }
    if (parked_on_[e] == cand.blocked &&
        parked_gain_[e] == cand.blocked_gain) {
      return;  // already parked there: no duplicate entry
    }
    parked_on_[e] = cand.blocked;
    parked_gain_[e] = static_cast<std::int8_t>(cand.blocked_gain);
    parked_[cand.blocked][GainHeap::bucket_of(cand.blocked_gain)].push_back(e);
  }

  /// Recomputes f's best move and rekeys (or drops) its heap entry: with
  /// a pushed entry, or inside a touch (`touching`) without one.
  void reindex(EdgeId f, PartitionId from, bool touching,
               RefineResult& stats) {
    ++stats.reindexed;
    const MoveState::Candidate cand = state_.best_key(g_.edge(f), from);
    if (cand.to == kNoPartition) {
      heap_.remove(f);
    } else if (touching) {
      heap_.rekey(f, cand.gain);
    } else {
      heap_.update(f, cand.gain);
    }
    park(f, cand);
  }

  /// Touches x after an edge at x moved from `a` to `b`, rekeying the
  /// unlocked edges there by the delta-gain rule (docs/REFINEMENT.md §3).
  /// If x's replica set changed, every gain at x may have; otherwise only
  /// the freed term of x's last edge in `a` (count 1) or its other edge in
  /// `b` (count 2) can. An unlocked edge not in the heap gets a fresh
  /// best_key too. The touch gives every other edge in the heap the
  /// recency of a re-push at its current key, so the LIFO order is the one
  /// a full recompute would leave.
  void reindex_around(VertexId x, PartitionId a, PartitionId b,
                      std::uint32_t pass, RefineResult& stats) {
    ++stats.touches;
    const std::uint32_t in_a = state_.count(x, a);
    const std::uint32_t in_b = state_.count(x, b);
    const bool whole = in_a == 0 || in_b == 1;
    const PartitionId last_a = in_a == 1 ? a : kNoPartition;
    const PartitionId pair_b = in_b == 2 ? b : kNoPartition;
    const bool some = last_a != kNoPartition || pair_b != kNoPartition;
    heap_.touch(x, [&](const Neighbor& nb) {
      const EdgeId f = nb.edge;
      if (!heap_.contains(f)) {
        if (locked_[f] == pass) return;
        const PartitionId from = partition_.partition_of(f);
        if (from != kNoPartition) reindex(f, from, true, stats);
        return;
      }
      // A live entry implies f is unlocked and assigned, so on a hub the
      // common case reads no per-edge state but the heap's own.
      if (whole || some) {
        const PartitionId from = partition_.partition_of(f);
        if (whole || from == last_a || from == pair_b) {
          reindex(f, from, true, stats);
        }
      }
    });
  }

  /// A move took k down to cap - 1, which leaves room for one more edge.
  /// Requeues the best edge parked on k (highest parked gain, most
  /// recently parked first) whose key the release raises. The others stay
  /// parked: re-pushing them all would bury the heap's recency order under
  /// edges that find k full again one move later.
  void requeue(PartitionId k, std::uint32_t pass, RefineResult& stats) {
    for (std::size_t b = GainHeap::kNumBuckets; b-- > 0;) {
      std::vector<EdgeId>& bucket = parked_[k][b];
      while (!bucket.empty()) {
        const EdgeId f = bucket.back();
        bucket.pop_back();
        if (parked_on_[f] != k || GainHeap::bucket_of(parked_gain_[f]) != b) {
          continue;  // stale: re-parked or unparked since
        }
        parked_on_[f] = kNoPartition;
        if (locked_[f] == pass) continue;
        const int before =
            heap_.contains(f) ? heap_.gain_of(f) : GainHeap::kMinGain - 1;
        ++stats.requeued;
        reindex(f, partition_.partition_of(f), false, stats);
        if (heap_.contains(f) && heap_.gain_of(f) > before) return;
      }
    }
  }

  /// Runs one pass; returns the number of SURVIVING moves.
  std::size_t run_pass(std::uint32_t pass, RefineResult& stats) {
    const auto rebuild_start = std::chrono::steady_clock::now();
    rebuild_heap(stats);
    stats.rebuild_s += seconds_since(rebuild_start);
    ++stats.heap_rebuilds;
    const auto walk_start = std::chrono::steady_clock::now();
    log_.clear();
    long long net = 0;
    long long best_net = 0;
    std::size_t best_len = 0;
    std::uint32_t escape_run = 0;

    for (std::size_t pops = 1;; ++pops) {
      if (pops % kCancelPollPops == 0) ctx_.check_cancelled();
      const GainHeap::Top top = heap_.pop_best();
      if (top.id == kInvalidEdge) break;
      const EdgeId e = top.id;
      const PartitionId from = partition_.partition_of(e);
      const Edge& edge = g_.edge(e);
      // The heap entry is a hint from whenever e was last indexed; the
      // state may have drifted under it (loads, neighbor replica sets).
      // Recompute, and if the truth differs, re-rank instead of applying.
      ++stats.reindexed;
      const MoveState::Candidate cand = state_.best_key(edge, from);
      if (cand.to == kNoPartition) continue;  // nothing admissible anymore
      if (cand.gain != top.gain) {
        heap_.update(e, cand.gain);
        continue;
      }
      if (cand.gain <= 0) {
        // The best remaining move is non-improving: an escape move, if the
        // budget and the donor floor allow it. The budget counts
        // CONSECUTIVE non-positive moves; any positive move resets it.
        if (options_.escape_budget == 0 || escape_run >= options_.escape_budget) {
          break;  // pass over; rollback below decides what survives
        }
        if (state_.load(from) <= floor_) continue;  // donor filter
        ++escape_run;
        ++stats.escape_moves;
      } else {
        escape_run = 0;
      }
      const PartitionId to = state_.target(edge, from, cand.gain);
      const int applied = state_.apply(e, to, partition_);
      (void)applied;
      assert(applied == cand.gain);
      locked_[e] = pass;  // an edge moves at most once per pass
      log_.push_back(MoveRecord{e, from, to, cand.gain});
      net += cand.gain;
      if (net > best_net) {
        best_net = net;
        best_len = log_.size();
      }
      if (state_.load(from) + 1 == state_.cap()) requeue(from, pass, stats);
      reindex_around(edge.u, from, to, pass, stats);
      if (edge.u != edge.v) reindex_around(edge.v, from, to, pass, stats);
    }

    // Rollback-to-best: undo everything past the best prefix, in reverse.
    if (log_.size() > best_len) {
      for (std::size_t i = log_.size(); i > best_len; --i) {
        const MoveRecord& record = log_[i - 1];
        state_.apply(record.edge, record.from, partition_);
      }
      ++stats.rollbacks;
    }
    for (std::size_t i = 0; i < best_len; ++i) {
      const Edge& edge = g_.edge(log_[i].edge);
      moved_[edge.u] = 1;
      moved_[edge.v] = 1;
    }
    stats.moves += best_len;
    stats.replicas_removed += static_cast<std::size_t>(best_net);
    stats.walk_s += seconds_since(walk_start);
    return best_len;
  }

  const Graph& g_;
  EdgePartition& partition_;
  const RefineOptions& options_;
  const RunContext& ctx_;
  MoveState state_;
  GainHeap heap_;
  /// Pass id in which each edge was moved (0 = never); an edge locked by
  /// the current pass is not movable again until the next pass.
  ScratchArena::Lease<std::uint32_t> locked_;
  /// Per edge, the gain bucket the last pass start keyed it at (kNoKey:
  /// none), and per vertex, whether a move at it survived the last pass.
  /// Both feed the next pass start's reuse; start_keys_uncapped_ says no
  /// partition was at the cap when start_key_ was written.
  ScratchArena::Lease<std::uint8_t> start_key_;
  ScratchArena::Lease<std::uint8_t> moved_;
  bool start_keys_uncapped_ = false;
  /// The partition each edge is parked on (kNoPartition = none) and the
  /// blocked gain it was parked at; per partition, a ladder of parked
  /// edges by that gain (the GainHeap's buckets, LIFO) for requeue().
  ScratchArena::Lease<PartitionId> parked_on_;
  ScratchArena::Lease<std::int8_t> parked_gain_;
  std::vector<std::array<std::vector<EdgeId>, GainHeap::kNumBuckets>>
      parked_;
  const EdgeId floor_;
  std::vector<MoveRecord> log_;
};

}  // namespace

RefineResult refine_gain(const Graph& g, EdgePartition& partition,
                         const RefineOptions& options, RunContext& ctx) {
  SerialRun run(g, partition, options, ctx);
  return run.run();
}

RefineResult refine_gain(const Graph& g, EdgePartition& partition,
                         const RefineOptions& options) {
  RunContext ctx;
  return refine_gain(g, partition, options, ctx);
}

}  // namespace tlp::refine
