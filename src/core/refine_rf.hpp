// Replication-factor refinement: a post-pass that improves ANY edge
// partition by migrating edges between partitions when doing so removes
// more vertex replicas than it creates, under a hard balance constraint.
//
// The paper's TLP has no refinement stage (partitions are frozen once
// grown); this extension quantifies how much a local-search pass can still
// recover. Two engines share the gain model and balance ceiling
// (src/refine/move_state.hpp, docs/REFINEMENT.md):
//
//   kGainHeap  — the default: KL/FM-style gain-heap hill-climbing with
//                bounded negative-gain escape moves and rollback-to-best
//                (refine/engine.hpp).
//   kGreedy    — the original ascending-edge-order sweep, kept as the
//                differential ORACLE: same gain function and cap, no
//                ordering, no escapes (refine_replication below).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "partition/edge_partition.hpp"
#include "partition/partitioner.hpp"

namespace tlp {

enum class RefineEngine {
  kGainHeap,  ///< serial gain-heap engine with escapes (the default)
  kGreedy,    ///< ascending-edge-order sweep (the differential oracle)
};

struct RefineOptions {
  RefineEngine engine = RefineEngine::kGainHeap;
  /// Maximum passes: one full sweep (kGreedy) or reindex (kGainHeap) each.
  int max_passes = 4;
  /// Load ceiling as a multiple of m/p; moves never push a partition above
  /// it (and never move INTO a partition already above it).
  double balance_slack = 1.05;
  /// kGainHeap only: max CONSECUTIVE non-positive-gain moves per pass
  /// (0 = pure hill-climbing). See refine/engine.hpp.
  std::uint32_t escape_budget = 32;
};

struct RefineResult {
  std::size_t moves = 0;             ///< edges migrated (surviving rollback)
  std::size_t replicas_removed = 0;  ///< net replica reduction (>= 0)
  int passes = 0;                    ///< sweeps / passes
  /// kGainHeap: applied escape moves and rollback events (0 elsewhere).
  std::size_t escape_moves = 0;
  std::size_t rollbacks = 0;
  /// kGainHeap: full reindexes + heap compactions (0 for greedy).
  std::size_t heap_rebuilds = 0;
};

/// The greedy oracle: ascending-edge-order sweeps applying every strictly
/// positive-gain admissible move until a sweep moves nothing or max_passes
/// is hit. Ignores every option except max_passes / balance_slack.
/// Refines `partition` in place; the result is complete/in-range if the
/// input was (only assignments move).
RefineResult refine_replication(const Graph& g, EdgePartition& partition,
                                const RefineOptions& options = {});

/// Dispatches to the engine selected in `options`; scratch comes from ctx
/// for kGainHeap (kGreedy owns its own). kGainHeap polls ctx's cancel
/// token and throws RunCancelled when it fires (see refine/engine.hpp).
RefineResult refine_partition(const Graph& g, EdgePartition& partition,
                              const RefineOptions& options, RunContext& ctx);

/// Wrapper combining any partitioner with the refinement pass, usable
/// anywhere a Partitioner is (the registry's "tlp+refine", bench rows).
/// The base partitioner runs against the same RunContext; the refinement
/// pass adds the refine_s phase timer and the full refine_* counter set
/// (docs/API.md) — every key is always present, 0 where the selected
/// engine has nothing to report.
class RefinedPartitioner : public Partitioner {
 public:
  /// `name_override` replaces the default "<base>+refine" display name
  /// when the combination is presented under a branding of its own.
  explicit RefinedPartitioner(PartitionerPtr base, RefineOptions options = {},
                              std::string name_override = {})
      : base_(std::move(base)),
        options_(options),
        name_(std::move(name_override)) {}

  [[nodiscard]] std::string name() const override {
    return name_.empty() ? base_->name() + "+refine" : name_;
  }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override;

 private:
  PartitionerPtr base_;
  RefineOptions options_;
  std::string name_;
};

}  // namespace tlp
