// The gain-heap local-search refinement engine (serial): KL/FM-style
// hill-climbing over per-edge move gains with bounded negative-gain escape
// moves and rollback-to-best, on top of ANY edge partition.
//
// Each pass (docs/REFINEMENT.md):
//   1. Pass-start reindex: every assigned edge's best admissible gain goes
//      into the lazy-invalidation GainHeap's base layer (one heap rebuild
//      per pass, one byte per edge), and an edge whose best move the cap
//      blocks is parked on that target. When no partition is at the cap
//      now or was at the last pass start, a key reads only its endpoints'
//      counts and replica sets, so only the edges at an endpoint of a move
//      that survived the last pass get a fresh best_key; the rest keep
//      the key that start gave them (one byte per edge). Otherwise every
//      edge is rekeyed.
//   2. Pop the max-gain edge; recompute its best gain against the CURRENT
//      state (loads and replica sets drift under it — the heap is a hint,
//      the recompute is the truth). A changed gain is re-pushed, not
//      applied; an unchanged one picks its target (MoveState::target).
//   3. Positive gain: apply and lock the edge for the pass (each edge
//      moves at most once per pass — the FM discipline that prevents
//      A->B->A thrash). Then touch each moved endpoint x and rekey the
//      edges there by the delta-gain rule: for a move A -> B, if x's
//      replica set changed (count(x, A) == 0 or count(x, B) == 1) every
//      incident gain is recomputed; otherwise only the freed term of x's
//      edges in A (count(x, A) == 1) or in B (count(x, B) == 2) can have
//      changed, so only those are recomputed. The touch is one heap entry
//      per gain bucket, not a push per edge: it gives every incident edge
//      in the heap the recency of a re-push at its key, which keeps the
//      heap's LIFO order (the escape walk's order) as a full recompute
//      would leave it.
//      Loads change too, and only through the cap: a target that fills
//      leaves an over-estimate the pop-time recompute corrects, while a
//      target that drops below the cap would leave an under-estimate
//      nothing revisits. So when the move takes A down to cap - 1, the
//      best edge parked on A is re-evaluated first (A has room for one).
//   4. Non-positive gain: if the escape budget allows, apply it anyway
//      (rekeying as in 3) and keep walking (the KL insight: a
//      locally-pessimal move can unlock a better optimum). The cumulative
//      gain is tracked against the best prefix seen; when a pass ends,
//      moves past that best point are rolled back in reverse, so an
//      unsuccessful escape walk costs nothing.
// Passes repeat (unlocking everything) until one produces no surviving
// move or max_passes is hit.
//
// Balance is a hard ceiling: no move may push a partition above
// slack * m / p (acceptor filter, enforced inside MoveState's gain masks),
// and escape moves additionally may not drain their source below the
// mirror-image floor (donor filter) — a negative-gain walk never trades
// balance for the hope of RF.
//
// The engine is strictly serial and deterministic: a pure function of
// (graph, partition, options). core/refine_rf.cpp's greedy pass is the
// differential oracle (same gain model, no ordering, no escapes).
//
// The run polls the RunContext's cancel token at the start of every pass
// and every 4096 heap pops, and throws RunCancelled when a stop was
// requested or the deadline passed. Every applied move is a plain
// reassignment, so the partition left behind is still complete and in
// range (validate() passes), just not rolled back to the pass's best
// prefix.
#pragma once

#include <cstddef>
#include <cstdint>

#include "partition/edge_partition.hpp"
#include "partition/run_context.hpp"

namespace tlp {

enum class RefineEngine {
  kGainHeap,  ///< serial gain-heap engine with escapes (the default)
  kGreedy,    ///< ascending-edge-order sweep (the differential oracle)
};

/// Options for both refinement engines (core/refine_rf.hpp dispatches on
/// `engine`; refine_gain below ignores it).
struct RefineOptions {
  RefineEngine engine = RefineEngine::kGainHeap;
  /// Maximum passes: one full sweep (kGreedy) or pass-start reindex
  /// (kGainHeap) each.
  /// Each gain-heap pass unlocks all edges.
  int max_passes = 4;
  /// Load ceiling as a multiple of m/p (hard constraint; see above): moves
  /// never push a partition above it (and never move INTO a partition
  /// already above it).
  double balance_slack = 1.05;
  /// kGainHeap only: maximum CONSECUTIVE non-positive-gain moves before
  /// the pass gives up and rolls back to the best prefix. 0 = pure
  /// hill-climbing.
  std::uint32_t escape_budget = 32;
};

struct RefineResult {
  /// Moves surviving rollback (what the final partition reflects).
  std::size_t moves = 0;
  /// Net replica reduction == sum of surviving gains (>= 0 by rollback).
  std::size_t replicas_removed = 0;
  int passes = 0;  ///< sweeps / passes
  /// kGainHeap: applied escape (gain <= 0) moves, INCLUDING later-rolled-
  /// back ones (0 for greedy).
  std::size_t escape_moves = 0;
  /// kGainHeap: passes that ended in a rollback (escape walk never found a
  /// new best).
  std::size_t rollbacks = 0;
  /// kGainHeap: pass-start reindexes + in-heap compaction events.
  std::size_t heap_rebuilds = 0;
  /// kGainHeap: best_key calls in the pass-start reindexes (every assigned
  /// edge on a full rebuild, the edges at the last pass's surviving moves
  /// on a reuse).
  std::size_t start_rekeyed = 0;
  /// kGainHeap: vertex touches by the post-move delta-gain rekey (two per
  /// applied move, one for a self-loop).
  std::size_t touches = 0;
  /// kGainHeap: best_key calls outside the pass-start rebuild: pop
  /// revalidations, the post-move delta-gain reindex, and parked-edge
  /// requeues.
  std::size_t reindexed = 0;
  /// kGainHeap: parked edges re-evaluated because their partition dropped
  /// below the cap (each is also counted in `reindexed`).
  std::size_t requeued = 0;
  /// kGainHeap: wall seconds in the pass-start reindexes, and in the rest
  /// of the passes (pops, moves, rekeys, requeues, rollbacks).
  double rebuild_s = 0.0;
  double walk_s = 0.0;
};

namespace refine {

/// Refines `partition` in place with the gain-heap engine; scratch comes
/// from ctx's arena, and ctx's cancel token is polled (see above). The
/// result is complete/in-range if the input was.
RefineResult refine_gain(const Graph& g, EdgePartition& partition,
                         const RefineOptions& options, RunContext& ctx);

/// Convenience overload owning a private context (tests, one-shot callers).
RefineResult refine_gain(const Graph& g, EdgePartition& partition,
                         const RefineOptions& options = {});

}  // namespace refine
}  // namespace tlp
