// Refinement: Fiduccia–Mattheyses for bisections, greedy boundary moves for
// k-way partitions (METIS's k-way refinement in spirit).
#pragma once

#include <cstdint>
#include <vector>

#include "metis/wgraph.hpp"
#include "partition/run_context.hpp"

namespace tlp::metis {

/// FM refinement of a 2-way partition. `target0` is the desired weight of
/// side 0; moves keep side weights within `imbalance` (e.g. 1.05) of their
/// targets where possible. Mutates `parts` in place; returns the final cut.
Weight fm_refine_bisection(const WGraph& g, std::vector<PartitionId>& parts,
                           Weight target0, double imbalance = 1.05,
                           int max_passes = 8);

/// Greedy k-way boundary refinement: repeatedly move boundary vertices to
/// the adjacent part with the largest positive gain, subject to the balance
/// bound max_part_weight <= imbalance * total / k. Returns the final cut.
/// With a context, polls its cancel token before every pass (throws
/// RunCancelled).
Weight kway_refine(const WGraph& g, std::vector<PartitionId>& parts,
                   PartitionId k, double imbalance = 1.05, int max_passes = 8,
                   std::uint64_t seed = 0, const RunContext* ctx = nullptr);

}  // namespace tlp::metis
