// Abstract edge-partitioner interface shared by TLP and all baselines.
//
// The public entry points are non-virtual: they validate the config, stamp
// the run into the RunContext (telemetry "runs" counter + "total_s" timer,
// once per outermost call — a composite's nested base runs are part of its
// run), honour cancellation, and then dispatch to the protected
// do_partition() hook each algorithm implements. The two-arg overload is a
// convenience wrapper that runs against a throwaway context.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "graph/storage.hpp"
#include "partition/edge_partition.hpp"
#include "partition/run_context.hpp"

namespace tlp {

/// Common knobs for every partitioner. A partitioner may ignore fields that
/// do not apply to it (e.g. `balance_slack` for pure hashing schemes).
struct PartitionConfig {
  /// Number of partitions p. Must be >= 1.
  PartitionId num_partitions = 2;

  /// Capacity multiplier: C = ceil(m / p) * balance_slack (Def. 3's C).
  /// 1.0 reproduces the paper's exactly-balanced setting. Values below 1.0
  /// are invalid — a sub-unit slack would make the p capacities sum to less
  /// than m, so no complete partition could respect it. validate() rejects
  /// them; capacity() applies the multiplier as given.
  double balance_slack = 1.0;

  /// RNG seed; every partitioner is deterministic given (graph, config).
  std::uint64_t seed = 42;

  /// Storage tier the caller intends the graph to run on. The partitioners
  /// themselves are tier-agnostic (they only see the Graph facade); this
  /// knob is for the entry points that own graph loading — bench_common,
  /// tlp_cli, tools — which apply it via io::with_tier / io::load_csr_file
  /// before partitioning. Partitioner::partition() records the tier the
  /// graph actually arrived on in telemetry (storage_tier,
  /// graph_resident_bytes, graph_mapped_bytes), so mismatches are visible.
  StorageOptions storage;

  /// Throws std::invalid_argument if the config is unusable. Called by
  /// Partitioner::partition() on every run, so implementations do not need
  /// their own num_partitions/balance_slack checks.
  void validate() const {
    if (num_partitions == 0) {
      throw std::invalid_argument(
          "PartitionConfig: num_partitions must be >= 1");
    }
    if (!(balance_slack >= 1.0) || !std::isfinite(balance_slack)) {
      throw std::invalid_argument(
          "PartitionConfig: balance_slack must be a finite value >= 1.0");
    }
  }

  /// Capacity C for a given edge count (at least 1 so progress is possible).
  /// Assumes a validated config: balance_slack >= 1.0 is applied verbatim.
  [[nodiscard]] EdgeId capacity(EdgeId num_edges) const {
    if (num_partitions == 0) return num_edges;
    const auto base = (num_edges + num_partitions - 1) / num_partitions;
    const auto scaled =
        static_cast<EdgeId>(static_cast<double>(base) * balance_slack);
    return scaled > 0 ? scaled : 1;
  }
};

/// An edge-partitioning algorithm. Implementations must be stateless across
/// calls (everything derived from arguments), so one instance may be reused.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Short stable identifier, e.g. "tlp", "metis", "dbh".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Partitions all edges of g into config.num_partitions parts using a
  /// private single-use RunContext.
  /// Postcondition: every edge assigned (validated in tests).
  [[nodiscard]] EdgePartition partition(const Graph& g,
                                        const PartitionConfig& config) const;

  /// Same, against a caller-provided context: scratch buffers come from
  /// ctx.arena(), telemetry accumulates into ctx.telemetry(), and
  /// ctx.cancel() is polled at round boundaries (throws RunCancelled).
  [[nodiscard]] EdgePartition partition(const Graph& g,
                                        const PartitionConfig& config,
                                        RunContext& ctx) const;

 protected:
  /// Algorithm body. Receives an already-validated config.
  [[nodiscard]] virtual EdgePartition do_partition(const Graph& g,
                                                   const PartitionConfig& config,
                                                   RunContext& ctx) const = 0;
};

using PartitionerPtr = std::unique_ptr<Partitioner>;

}  // namespace tlp
