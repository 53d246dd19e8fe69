// Byte pin for partition outputs, shared by the OutputBytesPinned tests.
#pragma once

#include <cstdint>

#include "partition/edge_partition.hpp"

namespace tlp {

/// FNV-1a over the partition ids, four little-endian bytes each.
inline std::uint64_t fnv1a(const EdgePartition& part) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const PartitionId k : part.raw()) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (static_cast<std::uint64_t>(k) >> (8 * byte)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace tlp
