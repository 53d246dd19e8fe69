// Environment-variable knobs shared by all bench binaries, so the full
// paper-scale run and quick smoke runs use the same code path.
//
//   TLP_BENCH_SCALE   multiply every dataset's default scale (default 1.0)
//   TLP_BENCH_GRAPHS  comma-separated subset, e.g. "G1,G5" (default: all 9)
//   TLP_BENCH_PS      comma-separated partition counts (default: 10,15,20)
//   TLP_BENCH_STORAGE storage tier for every bench graph: in_memory | mmap
//                     (default: in_memory; applied by make_dataset)
//   TLP_FULL_SCALE    if set, G9 is built at its full 7M-edge size
#pragma once

#include <string>
#include <vector>

#include "graph/storage.hpp"
#include "graph/types.hpp"

namespace tlp::bench {

/// Scale multiplier from TLP_BENCH_SCALE (default 1.0).
[[nodiscard]] double bench_scale();

/// Dataset ids from TLP_BENCH_GRAPHS (default G1..G9).
[[nodiscard]] std::vector<std::string> bench_graph_ids();

/// Partition counts from TLP_BENCH_PS (default {10, 15, 20}).
[[nodiscard]] std::vector<PartitionId> bench_partition_counts();

/// Storage tier from TLP_BENCH_STORAGE (default in-memory). make_dataset
/// re-tiers every built graph through io::with_tier with these options, so
/// all bench binaries honour the knob without per-bench plumbing.
[[nodiscard]] StorageOptions bench_storage();

}  // namespace tlp::bench
