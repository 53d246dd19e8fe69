// Shared experiment driver: run one (algorithm, graph, p) cell and collect
// the metrics the paper reports, plus the RunContext telemetry every
// partitioner now emits under one schema.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "partition/metrics.hpp"
#include "partition/partitioner.hpp"
#include "partition/run_context.hpp"
#include "partition/validator.hpp"

namespace tlp::bench {

struct RunResult {
  std::string algorithm;
  double rf = 0.0;        ///< replication factor (paper's quality metric)
  double balance = 0.0;   ///< max load / average load
  double seconds = 0.0;   ///< wall-clock partitioning time
  bool valid = false;     ///< complete + in-range per the validator
  /// This run's telemetry deltas: for each counter/timer the run changed,
  /// the net change (new value minus pre-run value on the shared context).
  /// Keys the run never touched are absent, so repeated runs of different
  /// algorithms on one context never report each other's values.
  std::map<std::string, double> counters;
  std::map<std::string, double> timers;
  /// Scratch-arena reuse during this run (hits = recycled buffers).
  std::uint64_t arena_hits = 0;
  std::uint64_t arena_misses = 0;

  /// One JSON object with algorithm, rf, balance, seconds, valid, counters,
  /// timers, and arena stats — the uniform per-run schema all benches share.
  [[nodiscard]] std::string telemetry_json() const;
};

/// Partitions g with `partitioner` under `config` against a private
/// single-use context; validates the result and measures RF/balance/time.
[[nodiscard]] RunResult run_partitioner(const Partitioner& partitioner,
                                        const Graph& g,
                                        const PartitionConfig& config);

/// Same against a shared caller context: scratch buffers are reused across
/// calls, and RunResult reports only this run's telemetry deltas. If the
/// TLP_BENCH_TELEMETRY environment knob is set, one telemetry_json() line
/// is printed to stderr per run.
[[nodiscard]] RunResult run_partitioner(const Partitioner& partitioner,
                                        const Graph& g,
                                        const PartitionConfig& config,
                                        RunContext& ctx);

/// Registers every built-in algorithm in the global registry. Idempotent.
/// Names: tlp, metis, ldg, dbh, random, grid, greedy, hdrf, ne, fennel,
/// window_tlp, multi_tlp, 2ps, tlp+refine.
void register_builtin_partitioners();

}  // namespace tlp::bench
