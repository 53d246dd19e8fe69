// Graph I/O: SNAP-style text edge lists and a compact binary format.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

namespace tlp::io {

/// Bytes the text edge-list readers (read_edge_list and
/// convert_edge_list_to_csr, which share one parser) read per block.
inline constexpr std::size_t kEdgeListBlockBytes = std::size_t{1} << 16;

/// Reads a SNAP-style edge list: one "u<whitespace>v" pair per line, lines
/// starting with '#' or '%' are comments, blank lines ignored. Directed
/// inputs collapse to undirected (duplicates/self-loops dropped by the
/// builder). With `relabel` (default) sparse ids are compacted to [0, n) in
/// first-seen order; pass false to keep ids verbatim (num_vertices becomes
/// max id + 1, and the id 4294967295 throws std::invalid_argument). Throws
/// std::runtime_error, naming the line, on unparsable lines; and on I/O
/// failure.
Graph read_edge_list(std::istream& in, BuildReport* report = nullptr,
                     bool relabel = true);
Graph read_edge_list_file(const std::filesystem::path& path,
                          BuildReport* report = nullptr, bool relabel = true);

/// Writes "u v" per line with a '#' header comment.
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::filesystem::path& path);

/// Matrix Market (coordinate) reader: accepts pattern/integer/real values
/// and general/symmetric symmetry; entries are 1-indexed; the adjacency
/// structure becomes an undirected graph (self-loops/duplicates dropped by
/// the builder). Throws std::runtime_error on malformed headers or entries.
Graph read_matrix_market(std::istream& in, BuildReport* report = nullptr);
Graph read_matrix_market_file(const std::filesystem::path& path,
                              BuildReport* report = nullptr);

/// Matrix Market writer: "%%MatrixMarket matrix coordinate pattern
/// symmetric", n n m, then 1-indexed canonical edges.
void write_matrix_market(const Graph& g, std::ostream& out);
void write_matrix_market_file(const Graph& g,
                              const std::filesystem::path& path);

/// Binary format: magic "TLPG", u32 version, u32 n, u64 m, then m (u32,u32)
/// canonical edge pairs, little-endian. Round-trips exactly.
void write_binary(const Graph& g, std::ostream& out);
void write_binary_file(const Graph& g, const std::filesystem::path& path);
Graph read_binary(std::istream& in);
Graph read_binary_file(const std::filesystem::path& path);

/// Versioned binary CSR format ("TLPC": magic, version, endianness guard,
/// section table — see graph/csr_format.hpp): the Graph's CSR arrays
/// verbatim in 64-byte-aligned sections, so the mmap storage tier can
/// serve adjacency spans straight from the file. Round-trips exactly
/// (same edge ids, same adjacency order, hence byte-identical partitions).
void write_csr_file(const Graph& g, const std::filesystem::path& path);

/// Streaming TLPC writer: emits a byte-identical file to write_csr_file
/// without ever holding a CSR (or the Graph) in memory. (n, m) fix the
/// section layout up front; each section then accepts sequential appends
/// through its own cursor, so the sections may fill in any interleaving
/// (GraphBuilder::build_to_file appends an edge, its adjacency records and
/// the offsets they complete in one merged pass). Appends are staged
/// through fixed-size buffers — O(1) memory regardless of graph size — and
/// every byte, including Neighbor padding and section alignment gaps, is
/// written explicitly so files stay byte-deterministic. finish() verifies
/// that every section received exactly its declared record count and that
/// offsets ran monotonically from 0 to 2m; it throws std::runtime_error
/// (as does any append, on I/O failure) and must be called before
/// destruction for the file to be valid.
class CsrFileWriter {
 public:
  CsrFileWriter(const std::filesystem::path& path, VertexId num_vertices,
                EdgeId num_edges);
  CsrFileWriter(const CsrFileWriter&) = delete;
  CsrFileWriter& operator=(const CsrFileWriter&) = delete;
  ~CsrFileWriter();

  /// Next CSR offset; called n+1 times, first value 0, last value 2m.
  void append_offset(std::uint64_t offset);
  /// Next adjacency record (and its vertex-only mirror entry); 2m calls,
  /// grouped by owner ascending, sorted by neighbor within each owner.
  void append_adjacency(VertexId vertex, EdgeId edge);
  /// Next canonical edge; m calls, in edge-id order.
  void append_edge(const Edge& e);
  /// Flushes staging buffers, writes the alignment padding, validates the
  /// record counts, and closes the file.
  void finish();

 private:
  struct PackedNeighbor {  // Neighbor with its padding bytes forced to zero
    VertexId vertex;
    std::uint32_t pad;
    EdgeId edge;
  };
  static_assert(sizeof(PackedNeighbor) == 16);

  void flush_offsets();
  void flush_adjacency();
  void flush_edges();
  void write_at(std::uint64_t pos, const void* src, std::size_t bytes);
  void pad_range(std::uint64_t begin, std::uint64_t end);

  std::filesystem::path path_;
  std::ofstream out_;
  std::uint64_t num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  // Section layout mirrors csr::layout_for; cursors advance independently.
  std::uint64_t offsets_pos_ = 0;
  std::uint64_t adjacency_pos_ = 0;
  std::uint64_t ids_pos_ = 0;
  std::uint64_t edges_pos_ = 0;
  std::uint64_t offsets_written_ = 0;
  std::uint64_t adjacency_written_ = 0;
  std::uint64_t edges_written_ = 0;
  std::uint64_t last_offset_ = 0;
  bool finished_ = false;
  std::vector<std::uint64_t> offset_buf_;
  std::vector<PackedNeighbor> adj_buf_;
  std::vector<VertexId> ids_buf_;
  std::vector<Edge> edge_buf_;
};

/// Opens a TLPC file on the tier `options` selects (kInMemory streams into
/// heap vectors; kMmap maps the file read-only). Throws
/// std::runtime_error on a corrupted header or (with options.verify)
/// payload.
Graph load_csr_file(const std::filesystem::path& path,
                    const StorageOptions& options = {});

/// Re-tiers an existing graph: spills its CSR to a TLPC file (in
/// options.spill_dir or the system temp directory), reopens it on the
/// requested tier, and — unless options.keep_spill — unlinks the spill so
/// it vanishes with the storage. kInMemory is a no-op returning `g`.
Graph with_tier(const Graph& g, const StorageOptions& options);

/// Sorted spill-run file ("TLPR"): magic, u64 record count, then count
/// canonical (u < v) Edge records in strictly ascending order. These are
/// the intermediate files of the external-memory GraphBuilder; the format
/// is deliberately self-checking so a truncated or corrupted run fails the
/// merge instead of silently producing a wrong graph.
void write_edge_run(const std::filesystem::path& path, const Edge* edges,
                    std::size_t count);

/// Buffered, validating reader over one spill run. Throws
/// std::runtime_error on a bad magic, a record count inconsistent with the
/// file size, a truncated payload, a non-canonical edge, or an order
/// violation — every defect a crashed or interleaved spill could leave
/// behind.
class EdgeRunReader {
 public:
  explicit EdgeRunReader(const std::filesystem::path& path);

  /// Advances to the next edge; false at the (verified) end of the run.
  bool next(Edge& out);

  /// Declared record count (validated against the file size on open).
  [[nodiscard]] std::size_t count() const { return count_; }

 private:
  std::filesystem::path path_;
  std::ifstream in_;
  std::uint64_t count_ = 0;
  std::uint64_t consumed_ = 0;
  std::vector<Edge> buf_;
  std::size_t buf_pos_ = 0;
  Edge prev_{};
};

/// Streams a text edge list straight into a TLPC CSR file through the
/// external-memory builder — the whole conversion honours the builder's
/// memory budget (TLP_BUILD_BUDGET / set_memory_budget) and never holds
/// the edge list or the CSR on the heap. Returns the build report.
BuildReport convert_edge_list_to_csr(const std::filesystem::path& input,
                                     const std::filesystem::path& output,
                                     bool relabel = true);

}  // namespace tlp::io
