// The gain-heap local-search refinement engine (serial): KL/FM-style
// hill-climbing over per-edge move gains with bounded negative-gain escape
// moves and rollback-to-best, on top of ANY edge partition.
//
// Each pass (docs/REFINEMENT.md):
//   1. Full reindex: every assigned edge's best admissible move goes into
//      the lazy-invalidation GainHeap (one heap rebuild per pass).
//   2. Pop the max-gain edge; recompute its best move against the CURRENT
//      state (loads and replica sets drift under it — the heap is a hint,
//      the recompute is the truth). A changed gain is re-pushed, not
//      applied.
//   3. Positive gain: apply, lock the edge for the pass (each edge moves
//      at most once per pass — the FM discipline that prevents A->B->A
//      thrash), and reindex the O(deg(u) + deg(v)) edges incident to the
//      moved endpoints (a move changes only those two replica sets).
//   4. Non-positive gain: if the escape budget allows, apply it anyway and
//      keep walking (the KL insight: a locally-pessimal move can unlock a
//      better optimum). The cumulative gain is tracked against the best
//      prefix seen; when a pass ends, moves past that best point are
//      rolled back in reverse, so an unsuccessful escape walk costs
//      nothing.
// Passes repeat (unlocking everything) until one produces no surviving
// move or max_passes is hit.
//
// Balance is a hard ceiling: no move may push a partition above
// slack * m / p (acceptor filter, enforced inside MoveState::best_move),
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

namespace tlp::refine {

struct EngineOptions {
  /// Maximum passes (full gain reindexes). Each pass unlocks all edges.
  int max_passes = 8;
  /// Load ceiling as a multiple of m/p (hard constraint; see above).
  double balance_slack = 1.05;
  /// Maximum CONSECUTIVE non-positive-gain moves before the pass gives up
  /// and rolls back to the best prefix. 0 = pure hill-climbing.
  std::uint32_t escape_budget = 32;
};

struct EngineStats {
  /// Moves surviving rollback (what the final partition reflects).
  std::size_t moves = 0;
  /// Net replica reduction == sum of surviving gains (>= 0 by rollback).
  std::size_t replicas_removed = 0;
  /// Applied escape (gain <= 0) moves, INCLUDING later-rolled-back ones.
  std::size_t escape_moves = 0;
  /// Passes that ended in a rollback (escape walk never found a new best).
  std::size_t rollbacks = 0;
  /// Full per-pass reindexes + in-heap compaction events.
  std::size_t heap_rebuilds = 0;
  int passes = 0;
};

/// Refines `partition` in place with the gain-heap engine; scratch comes
/// from ctx's arena, and ctx's cancel token is polled (see above). The
/// result is complete/in-range if the input was.
EngineStats refine_gain(const Graph& g, EdgePartition& partition,
                        const EngineOptions& options, RunContext& ctx);

/// Convenience overload owning a private context (tests, one-shot callers).
EngineStats refine_gain(const Graph& g, EdgePartition& partition,
                        const EngineOptions& options = {});

}  // namespace tlp::refine
