#include "refine/engine.hpp"

#include <cassert>
#include <cstdint>
#include <vector>

#include "refine/gain_heap.hpp"
#include "refine/move_state.hpp"

namespace tlp::refine {
namespace {

/// Heap pops between two cancel-token polls inside a pass (a poll reads
/// the clock when a deadline is set, so it stays off the per-pop path).
constexpr std::size_t kCancelPollPops = 4096;

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
            const EngineOptions& options, RunContext& ctx)
      : g_(g),
        partition_(partition),
        options_(options),
        ctx_(ctx),
        state_(g, partition, ctx.arena()),
        heap_(ctx.arena(), g.num_edges()),
        locked_(ctx.arena().acquire<std::uint32_t>(g.num_edges(), 0)),
        cap_(MoveState::cap_for(g.num_edges(), partition.num_partitions(),
                                options.balance_slack)),
        floor_(MoveState::floor_for(g.num_edges(), partition.num_partitions(),
                                    options.balance_slack)) {}

  EngineStats run() {
    EngineStats stats;
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
  /// Full reindex: one heap rebuild per pass. Edges locked by THIS pass
  /// never exist here (a pass starts with everything unlocked).
  void rebuild_heap() {
    heap_.clear();
    for (EdgeId e = 0; e < g_.num_edges(); ++e) {
      const PartitionId from = partition_.partition_of(e);
      if (from == kNoPartition) continue;
      const MoveState::Candidate cand =
          state_.best_move(g_.edge(e), from, cap_);
      if (cand.to != kNoPartition) heap_.update(e, cand.gain);
    }
  }

  /// Recomputes the best move of every unlocked edge incident to v and
  /// rekeys (or drops) its heap entry. O(deg(v)) best_move calls.
  void reindex_around(VertexId v, std::uint32_t pass) {
    for (const Neighbor& nb : g_.neighbors(v)) {
      const EdgeId f = nb.edge;
      if (locked_[f] == pass) continue;
      const PartitionId from = partition_.partition_of(f);
      if (from == kNoPartition) continue;
      const MoveState::Candidate cand =
          state_.best_move(g_.edge(f), from, cap_);
      if (cand.to != kNoPartition) {
        heap_.update(f, cand.gain);
      } else {
        heap_.remove(f);
      }
    }
  }

  /// Runs one pass; returns the number of SURVIVING moves.
  std::size_t run_pass(std::uint32_t pass, EngineStats& stats) {
    rebuild_heap();
    ++stats.heap_rebuilds;
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
      const MoveState::Candidate cand = state_.best_move(edge, from, cap_);
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
      const int applied = state_.apply(e, cand.to, partition_);
      (void)applied;
      assert(applied == cand.gain);
      locked_[e] = pass;  // an edge moves at most once per pass
      log_.push_back(MoveRecord{e, from, cand.to, cand.gain});
      net += cand.gain;
      if (net > best_net) {
        best_net = net;
        best_len = log_.size();
      }
      reindex_around(edge.u, pass);
      if (edge.u != edge.v) reindex_around(edge.v, pass);
    }

    // Rollback-to-best: undo everything past the best prefix, in reverse.
    if (log_.size() > best_len) {
      for (std::size_t i = log_.size(); i > best_len; --i) {
        const MoveRecord& record = log_[i - 1];
        state_.apply(record.edge, record.from, partition_);
      }
      ++stats.rollbacks;
    }
    stats.moves += best_len;
    stats.replicas_removed += static_cast<std::size_t>(best_net);
    return best_len;
  }

  const Graph& g_;
  EdgePartition& partition_;
  const EngineOptions& options_;
  const RunContext& ctx_;
  MoveState state_;
  GainHeap heap_;
  /// Pass id in which each edge was moved (0 = never); an edge locked by
  /// the current pass is not movable again until the next pass.
  ScratchArena::Lease<std::uint32_t> locked_;
  const EdgeId cap_;
  const EdgeId floor_;
  std::vector<MoveRecord> log_;
};

}  // namespace

EngineStats refine_gain(const Graph& g, EdgePartition& partition,
                        const EngineOptions& options, RunContext& ctx) {
  SerialRun run(g, partition, options, ctx);
  return run.run();
}

EngineStats refine_gain(const Graph& g, EdgePartition& partition,
                        const EngineOptions& options) {
  RunContext ctx;
  return refine_gain(g, partition, options, ctx);
}

}  // namespace tlp::refine
