// GraphBuilder: tolerant construction of a clean Graph from messy input.
//
// Real-world edge lists (the SNAP datasets the paper uses) contain duplicate
// edges, both orientations of the same edge, self-loops, and sparse vertex
// id spaces. The builder normalizes all of that and reports what it dropped.
//
// Two build regimes share one observable contract (byte-identical output):
//
//   * in-memory (default) — edges accumulate in one vector, build() cleans
//     it in place and hands it to Graph::from_edges.
//   * external-memory — set_memory_budget(bytes) (or the TLP_BUILD_BUDGET
//     environment variable) bounds the builder's working set. add_edge
//     canonicalizes immediately into a budget-sized chunk; full chunks are
//     radix-sorted, deduplicated, and spilled to temp run files
//     (io::EdgeRunReader format). build_to_file() then k-way-merges the runs
//     with global dedup straight into a streaming io::CsrFileWriter — the
//     full edge list and the CSR never exist on the heap, so graphs far
//     larger than RAM ingest under the cap. build() in this regime routes
//     through a temp TLPC file and reopens it on the configured storage tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/edge.hpp"
#include "graph/graph.hpp"
#include "graph/storage.hpp"

namespace tlp {

/// What the builder discarded or rewrote while cleaning the input.
struct BuildReport {
  std::size_t input_edges = 0;       ///< edges offered via add_edge
  std::size_t self_loops = 0;        ///< dropped
  std::size_t duplicate_edges = 0;   ///< dropped (either orientation)
  std::size_t kept_edges = 0;        ///< edges in the final graph
  bool relabeled = false;            ///< true if vertex ids were compacted
  std::size_t spill_runs = 0;        ///< sorted run files written (0 = none)
  /// Peak heap bytes of the builder's edge buffers: the in-memory
  /// regime's edge list and CSR, the external regime's chunk, merge and
  /// reverse buffers. The relabel table is not among them.
  std::size_t build_peak_bytes = 0;
  /// Peak heap bytes of the relabel table (0 without relabelling),
  /// counting both tables while a doubling copies.
  std::size_t relabel_peak_bytes = 0;
};

/// Raw-id -> dense-id map of the relabelling builder: a flat open-addressing
/// table of u64 slots, each `(raw << 32) | dense`, with linear probing from
/// a multiplicative hash. It doubles when an insert would pass 50% load, so
/// it holds 16-32 bytes per distinct id (48 while a doubling copies). Dense
/// ids are handed out in first-seen order. Every raw id is a valid key,
/// 0xFFFFFFFF included.
class RelabelTable {
 public:
  /// The dense id of `raw`; a new raw id gets the next dense id, size().
  VertexId intern(VertexId raw);
  /// Hints the cache that intern(raw) will read its home slot soon; a
  /// no-op on an empty table. A doubling in between wastes the hint.
  void prefetch(VertexId raw) const;

  /// Distinct raw ids interned so far (= the next dense id).
  [[nodiscard]] VertexId size() const { return size_; }
  /// Slot count (0 or a power of two >= 16).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Most bytes the slots have held at once since construction or clear():
  /// during a doubling, the old and the new table.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }
  /// Forgets every id and releases the slots.
  void clear();

  /// Slot where the probe for `raw` starts in a table of 2^log2_slots
  /// slots. Public so tests can build ids that collide.
  [[nodiscard]] static std::size_t home_slot(VertexId raw,
                                             unsigned log2_slots);

 private:
  void grow();

  std::vector<std::uint64_t> slots_;
  unsigned log2_slots_ = 0;
  VertexId size_ = 0;
  std::size_t peak_bytes_ = 0;
};

/// Accumulates edges and produces an immutable Graph (or a TLPC file).
class GraphBuilder {
 public:
  /// `relabel`: if true (default), arbitrary vertex ids are compacted to a
  /// dense [0, n) range in first-seen order; if false, ids are used as-is and
  /// num_vertices = max id + 1. A TLP_BUILD_BUDGET environment variable
  /// (bytes, optional k/m/g suffix) preloads the memory budget.
  explicit GraphBuilder(bool relabel = true);

  GraphBuilder(const GraphBuilder&) = delete;
  GraphBuilder& operator=(const GraphBuilder&) = delete;
  ~GraphBuilder();

  /// Adds one undirected edge. In-memory regime: self-loops and duplicates
  /// are dropped at build() time, not here (so add_edge stays O(1)).
  /// External regime: canonicalization and self-loop dropping happen here;
  /// a full chunk is sorted and spilled, keeping the builder under budget.
  /// Without relabel, the id kInvalidVertex (0xFFFFFFFF) is rejected with
  /// std::invalid_argument: num_vertices = max id + 1 would not fit.
  void add_edge(VertexId u, VertexId v);

  /// add_edge on each edge in order, after prefetching the relabel table's
  /// home slot of every id in the block, so the probes of a large table
  /// overlap their cache misses. Same ids, reports, spills and errors as
  /// the add_edge calls alone. The text readers pass 64-edge blocks.
  void add_edges(std::span<const Edge> edges);

  /// Number of edges offered so far via add_edge — the pre-dedup count, NOT
  /// the number the final graph will keep (self-loops and duplicates are
  /// still to be dropped, and in the external regime offered edges may
  /// already live in spill runs rather than in this process).
  [[nodiscard]] std::size_t edges_offered() const { return offered_; }

  /// Caps the builder's working set. 0 (default) = unbounded in-memory
  /// build; any positive value switches to the external-memory regime with
  /// chunk/merge buffers sized to the budget. Must be called before the
  /// first add_edge. The budget bounds only the chunk, merge and reverse
  /// buffers: with relabelling on, the relabel table (16-32 bytes per
  /// distinct id, BuildReport::relabel_peak_bytes) comes on top of it.
  void set_memory_budget(std::size_t bytes);
  [[nodiscard]] std::size_t memory_budget() const { return budget_; }

  /// Selects the storage tier of the built graph. Non-default tiers spill
  /// the CSR through io::with_tier after the in-memory build; the external
  /// regime reopens its own TLPC spill on this tier directly. The
  /// spill_dir option also hosts the external regime's run files.
  void set_storage(StorageOptions options) { storage_ = std::move(options); }

  /// Produces the cleaned graph; the builder is left empty afterwards.
  /// If `report` is non-null it receives the cleaning statistics. The
  /// in-memory regime cleans in place (canonicalize/compact, then sort +
  /// unique the same buffer), so the build peak is the input list plus the
  /// final CSR — not the old 2× intermediate copy.
  [[nodiscard]] Graph build(BuildReport* report = nullptr);

  /// Streams the cleaned graph straight into a TLPC CSR file at `path`
  /// without materializing the edge list or the CSR on the heap: one merge
  /// pass counts m (which fixes the section layout) and externally sorts
  /// the reverse adjacency; the second streams the edge section and
  /// interleaves both adjacency directions in CSR order, writing each
  /// vertex's offset as its records complete. Output is byte-identical to
  /// write_csr_file(build(), path) for every budget, including 0. The
  /// builder is left empty afterwards.
  void build_to_file(const std::filesystem::path& path,
                     BuildReport* report = nullptr);

 private:
  [[nodiscard]] bool external() const { return budget_ > 0; }
  [[nodiscard]] std::size_t chunk_capacity() const;
  void spill_chunk();
  std::size_t clean_resident_edges();
  void note_live_bytes(std::size_t bytes);
  void reset();
  void remove_runs();

  /// Calls fn(edge) for every distinct canonical edge, ascending, merging
  /// the resident chunk with all spilled runs. Deterministic: every
  /// invocation yields the identical stream.
  template <typename Fn>
  void for_each_merged_edge(Fn&& fn) const;

  bool relabel_;
  StorageOptions storage_;
  std::size_t budget_ = 0;
  EdgeList edges_;  // in-memory: raw offered edges; external: current chunk
  EdgeList scratch_;  // radix-sort buffer for edges_
  std::vector<std::filesystem::path> runs_;
  std::size_t run_edges_ = 0;  // records in runs_, before cross-run dedup
  std::size_t offered_ = 0;
  std::size_t dropped_self_loops_ = 0;  // external regime: dropped at add
  std::size_t live_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  RelabelTable relabel_table_;
  VertexId max_id_plus_one_ = 0;
};

}  // namespace tlp
