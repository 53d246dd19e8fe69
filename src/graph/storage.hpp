// Storage policy behind Graph: where the CSR arrays live.
//
// Graph is a thin facade over a GraphStorage, which owns the four CSR
// arrays (offsets, Neighbor adjacency, the vertex-only mirror, the
// canonical edge list) and says where each byte resides:
//
//   * in_memory — everything in heap vectors (the default).
//   * mmap     — everything served read-only from a versioned binary CSR
//     file (io::write_csr_file / io::load_csr_file); the page cache is the
//     working set, so cold graphs cost no resident memory until touched.
//
// The seam is pointer-shaped, not virtual-call-shaped: GraphStorage
// publishes a StorageView of raw pointers once, Graph caches it by value,
// and the hot accessors (neighbors / neighbor_ids / degree / edge) are
// plain base + offset loads on either tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/edge.hpp"
#include "graph/types.hpp"

namespace tlp {

/// One adjacency entry: the neighbor and the id of the connecting edge.
struct Neighbor {
  VertexId vertex;
  EdgeId edge;
};

/// Where a Graph's CSR bytes live. Values are stable (telemetry encodes
/// them as numbers).
enum class StorageTier : std::uint8_t {
  kInMemory = 0,  ///< heap vectors (default)
  kMmap = 1,      ///< everything read-only from a mapped CSR file
};

/// Short stable name ("in_memory", "mmap").
[[nodiscard]] std::string_view storage_tier_name(StorageTier tier);

/// Knobs for choosing and tuning a storage tier. Threaded through
/// GraphBuilder, graph/io loading, PartitionConfig, and the bench layer
/// (TLP_BENCH_STORAGE) so any workload can run on any tier.
struct StorageOptions {
  StorageTier tier = StorageTier::kInMemory;

  /// io::with_tier: where the spill CSR file is written. Empty = the
  /// system temp directory.
  std::filesystem::path spill_dir;

  /// io::with_tier: keep the spill file on disk after mapping it (default
  /// false: the file is unlinked once mapped; the kernel keeps the pages
  /// alive until the storage is destroyed).
  bool keep_spill = false;

  /// Payload validation on load (offsets monotone, adjacency sorted and
  /// cross-consistent with the edge section). One sequential O(n + m)
  /// pass at open; disable only for trusted files on the hot open path.
  bool verify = true;

  /// Parses exactly "in_memory" or "mmap". Throws std::invalid_argument
  /// on anything else.
  [[nodiscard]] static StorageOptions parse(std::string_view spec);
};

/// Resident vs file-backed byte accounting for one Graph.
struct MemoryFootprint {
  /// Heap/anonymous bytes the graph keeps resident (vectors, or the heap
  /// copy a non-POSIX mmap tier falls back to). This is what an
  /// out-of-core memory budget must cover.
  std::size_t resident_bytes = 0;
  /// File-backed mapped bytes: address space, but reclaimable clean pages
  /// that cost resident memory only while touched.
  std::size_t mapped_bytes = 0;

  [[nodiscard]] std::size_t total_bytes() const {
    return resident_bytes + mapped_bytes;
  }
};

/// The raw-pointer view Graph caches by value. Vertex v's adjacency is
/// adj[offsets[v] .. offsets[v+1]) and its vertex-only mirror is the same
/// range of ids, on either tier.
struct StorageView {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;

  /// Global CSR offsets, n+1 entries: degree(v) = offsets[v+1]-offsets[v].
  const std::size_t* offsets = nullptr;
  /// Neighbor adjacency and its vertex-only mirror, offsets[n] entries.
  const Neighbor* adj = nullptr;
  const VertexId* ids = nullptr;
  /// Canonical edge list, num_edges entries.
  const Edge* edges = nullptr;
};

/// Owns the CSR arrays and publishes the pointer view. Implementations are
/// immutable after construction and safe to share across threads; Graph
/// holds one via shared_ptr, so copying a Graph shares storage.
class GraphStorage {
 public:
  virtual ~GraphStorage() = default;

  [[nodiscard]] virtual StorageTier tier() const = 0;
  [[nodiscard]] virtual const StorageView& view() const = 0;
  [[nodiscard]] virtual MemoryFootprint footprint() const = 0;

  /// Releases the mapped adjacency spans back to the kernel
  /// (MADV_DONTNEED, Linux only) once a partition run has committed — the
  /// cold spans stay addressable and re-fault from the page cache/file on
  /// next use. A no-op on every other tier and platform.
  virtual void release_cold_pages() const {}
};

/// Wraps already-built CSR arrays (the default tier).
/// Preconditions (checked by assert only; Graph::from_edges builds them
/// correctly): offsets.size() == n+1, adjacency/ids sized offsets[n],
/// ids mirrors adjacency[i].vertex.
[[nodiscard]] std::shared_ptr<const GraphStorage> make_in_memory_storage(
    VertexId num_vertices, std::vector<std::size_t> offsets,
    std::vector<Neighbor> adjacency, std::vector<VertexId> adjacency_ids,
    EdgeList edges);

/// Opens a versioned binary CSR file (io::write_csr_file) on the tier the
/// options select. kInMemory streams the sections into heap vectors;
/// kMmap maps the file read-only. Throws std::runtime_error on a
/// malformed or corrupted file. `unlink_after_open` removes the directory
/// entry once the file is safely open/mapped (POSIX keeps the data alive
/// until unmapped) — used by io::with_tier spill files.
[[nodiscard]] std::shared_ptr<const GraphStorage> open_csr_storage(
    const std::filesystem::path& path, const StorageOptions& options = {},
    bool unlink_after_open = false);

}  // namespace tlp
