// NUMA topology detection: which CPUs belong to which node.
//
// Parses /sys/devices/system/node directly — no libnuma dependency, and
// the sysfs root is a parameter so tests can point detection at a fake
// tree. A node counts only if it has CPUs (memory-only / CXL nodes are
// skipped). Detection failures of any kind (missing directory, unreadable
// cpulist, non-Linux) yield an empty topology. The only consumer is the
// benchmark host fingerprint (node count); nothing places threads or
// memory by node.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string_view>
#include <vector>

namespace tlp::numa {

/// CPU layout of the machine: node_cpus[i] are the CPU ids of the i-th
/// detected node (ascending node id, ascending cpu ids within a node).
struct Topology {
  std::vector<std::vector<int>> node_cpus;

  [[nodiscard]] std::size_t num_nodes() const { return node_cpus.size(); }
  /// True iff the machine has >= 2 nodes with CPUs.
  [[nodiscard]] bool multi_node() const { return node_cpus.size() > 1; }
  [[nodiscard]] std::size_t total_cpus() const {
    std::size_t n = 0;
    for (const auto& cpus : node_cpus) n += cpus.size();
    return n;
  }
};

/// Parses a sysfs cpulist ("0-3,8,10-11") into sorted cpu ids. Malformed
/// chunks, and chunks naming a cpu id above 65535, are skipped (sysfs
/// is trusted but tests feed garbage).
[[nodiscard]] std::vector<int> parse_cpulist(std::string_view list);

/// Scans `root` for node<N>/cpulist entries. Returns an empty topology on
/// any failure. The default root is the live sysfs tree.
[[nodiscard]] Topology detect(
    const std::filesystem::path& root = "/sys/devices/system/node");

/// The live machine's topology, detected once per process and cached
/// (detection walks sysfs).
[[nodiscard]] const Topology& system_topology();

}  // namespace tlp::numa
