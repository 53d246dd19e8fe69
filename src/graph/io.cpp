#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <random>
#include <span>
#include <sstream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "graph/csr_format.hpp"
#include "graph/storage.hpp"

namespace tlp::io {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tlp::io: " + what);
}

std::ifstream open_input(const std::filesystem::path& path, bool binary) {
  std::ifstream in(path, binary ? std::ios::binary : std::ios::in);
  if (!in) fail("cannot open '" + path.string() + "' for reading");
  return in;
}

std::ofstream open_output(const std::filesystem::path& path, bool binary) {
  std::ofstream out(path, binary ? std::ios::binary : std::ios::out);
  if (!out) fail("cannot open '" + path.string() + "' for writing");
  return out;
}

/// Parses a base-10 VertexId from [pos, end) into `value`; advances pos
/// past the digits. False if there are none or they overflow.
bool parse_id(const char*& pos, const char* end, VertexId& value) {
  const auto [ptr, ec] = std::from_chars(pos, end, value);
  if (ec != std::errc{} || ptr == pos) return false;
  pos = ptr;
  return true;
}

/// Parsed edges on their way to the builder, handed over
/// kEdgeListBlockEdges at a time through GraphBuilder::add_edges, which
/// prefetches the relabel probes of the whole block.
class EdgeBlock {
 public:
  explicit EdgeBlock(GraphBuilder& builder) : builder_(builder) {}

  void push(VertexId u, VertexId v) {
    edges_[size_++] = Edge{u, v};
    if (size_ == edges_.size()) flush();
  }
  void flush() {
    builder_.add_edges(std::span<const Edge>(edges_.data(), size_));
    size_ = 0;
  }

 private:
  static constexpr std::size_t kEdgeListBlockEdges = 64;

  GraphBuilder& builder_;
  std::array<Edge, kEdgeListBlockEdges> edges_;
  std::size_t size_ = 0;
};

/// One edge-list line [pos, end), without its '\n': leading blanks and
/// '\r' are skipped, blank and '#'/'%' lines are ignored, else "u v" with
/// blanks or commas between the ids; anything after v is ignored.
void parse_edge_line(const char* pos, const char* end, std::size_t line_no,
                     EdgeBlock& block) {
  while (pos != end && (*pos == ' ' || *pos == '\t' || *pos == '\r')) ++pos;
  if (pos == end || *pos == '#' || *pos == '%') return;
  const auto malformed = [&] {
    // The edges of the lines above reach the builder first, so its own
    // errors keep their place in line order.
    block.flush();
    fail("malformed vertex id on line " + std::to_string(line_no));
  };
  VertexId u = 0;
  if (!parse_id(pos, end, u)) malformed();
  while (pos != end && (*pos == ' ' || *pos == '\t' || *pos == ',')) ++pos;
  VertexId v = 0;
  if (!parse_id(pos, end, v)) malformed();
  block.push(u, v);
}

/// Feeds every edge of a text edge list to `builder`, reading the stream
/// kEdgeListBlockBytes at a time. A line cut by the end of a block moves to
/// the front of the buffer and completes with the next block; a line
/// longer than the buffer doubles it.
void add_edge_list(std::istream& in, GraphBuilder& builder) {
  EdgeBlock block(builder);
  std::vector<char> buf(kEdgeListBlockBytes);
  std::size_t begin = 0;  // first byte not yet parsed
  std::size_t end = 0;    // one past the last byte read
  std::size_t line_no = 0;
  for (;;) {
    const char* base = buf.data();
    const auto* newline =
        static_cast<const char*>(std::memchr(base + begin, '\n', end - begin));
    if (newline != nullptr) {
      parse_edge_line(base + begin, newline, ++line_no, block);
      begin = static_cast<std::size_t>(newline - base) + 1;
      continue;
    }
    if (!in) {  // the last read hit the end: what is left is the last line
      if (begin != end) {
        parse_edge_line(base + begin, base + end, ++line_no, block);
      }
      break;
    }
    std::memmove(buf.data(), base + begin, end - begin);
    end -= begin;
    begin = 0;
    if (end == buf.size()) buf.resize(2 * buf.size());
    in.read(buf.data() + end, static_cast<std::streamsize>(buf.size() - end));
    end += static_cast<std::size_t>(in.gcount());
  }
  block.flush();
  if (in.bad()) fail("I/O error while reading edge list");
}

constexpr std::array<char, 4> kMagic = {'T', 'L', 'P', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) fail("truncated binary graph");
  return value;
}

}  // namespace

Graph read_edge_list(std::istream& in, BuildReport* report, bool relabel) {
  GraphBuilder builder(relabel);
  add_edge_list(in, builder);
  return builder.build(report);
}

Graph read_edge_list_file(const std::filesystem::path& path,
                          BuildReport* report, bool relabel) {
  auto in = open_input(path, /*binary=*/false);
  return read_edge_list(in, report, relabel);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# undirected graph: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
  if (!out) fail("I/O error while writing edge list");
}

void write_edge_list_file(const Graph& g, const std::filesystem::path& path) {
  auto out = open_output(path, /*binary=*/false);
  write_edge_list(g, out);
}

Graph read_matrix_market(std::istream& in, BuildReport* report) {
  std::string line;
  if (!std::getline(in, line) || !line.starts_with("%%MatrixMarket")) {
    fail("missing %%MatrixMarket header");
  }
  // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
  {
    std::istringstream header(line);
    std::string tag;
    std::string object;
    std::string format;
    std::string field;
    std::string symmetry;
    header >> tag >> object >> format >> field >> symmetry;
    if (object != "matrix" || format != "coordinate") {
      fail("only 'matrix coordinate' MatrixMarket files are supported");
    }
    if (field != "pattern" && field != "integer" && field != "real") {
      fail("unsupported MatrixMarket field '" + field + "'");
    }
    if (symmetry != "general" && symmetry != "symmetric") {
      fail("unsupported MatrixMarket symmetry '" + symmetry + "'");
    }
  }
  // Skip comments, read the size line.
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t entries = 0;
  for (;;) {
    if (!std::getline(in, line)) fail("missing MatrixMarket size line");
    if (!line.empty() && line[0] == '%') continue;
    std::istringstream sizes(line);
    if (!(sizes >> rows >> cols >> entries)) {
      fail("malformed MatrixMarket size line");
    }
    break;
  }
  if (rows != cols) fail("adjacency matrix must be square");
  if (rows > kInvalidVertex) {
    fail("MatrixMarket dimension exceeds the vertex id range");
  }

  GraphBuilder builder(/*relabel=*/false);
  for (std::uint64_t i = 0; i < entries; ++i) {
    if (!std::getline(in, line)) fail("truncated MatrixMarket entries");
    std::istringstream entry(line);
    std::uint64_t r = 0;
    std::uint64_t c = 0;
    if (!(entry >> r >> c)) {
      fail("malformed MatrixMarket entry at line " + std::to_string(i));
    }
    if (r == 0 || c == 0 || r > rows || c > cols) {
      fail("MatrixMarket index out of range at entry " + std::to_string(i));
    }
    builder.add_edge(static_cast<VertexId>(r - 1),
                     static_cast<VertexId>(c - 1));
  }
  // Vertex count must cover the declared dimension even if trailing
  // vertices are isolated.
  if (rows > 0) {
    builder.add_edge(static_cast<VertexId>(rows - 1),
                     static_cast<VertexId>(rows - 1));  // dropped self-loop
  }
  return builder.build(report);
}

Graph read_matrix_market_file(const std::filesystem::path& path,
                              BuildReport* report) {
  auto in = open_input(path, /*binary=*/false);
  return read_matrix_market(in, report);
}

void write_matrix_market(const Graph& g, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
      << "% written by tlp\n"
      << g.num_vertices() << ' ' << g.num_vertices() << ' ' << g.num_edges()
      << '\n';
  for (const Edge& e : g.edges()) {
    // Symmetric storage keeps the lower triangle: row >= column.
    out << (e.v + 1) << ' ' << (e.u + 1) << '\n';
  }
  if (!out) fail("I/O error while writing MatrixMarket file");
}

void write_matrix_market_file(const Graph& g,
                              const std::filesystem::path& path) {
  auto out = open_output(path, /*binary=*/false);
  write_matrix_market(g, out);
}

void write_binary(const Graph& g, std::ostream& out) {
  out.write(kMagic.data(), kMagic.size());
  write_pod(out, kVersion);
  write_pod(out, g.num_vertices());
  write_pod(out, g.num_edges());
  for (const Edge& e : g.edges()) {
    write_pod(out, e.u);
    write_pod(out, e.v);
  }
  if (!out) fail("I/O error while writing binary graph");
}

void write_binary_file(const Graph& g, const std::filesystem::path& path) {
  auto out = open_output(path, /*binary=*/true);
  write_binary(g, out);
}

Graph read_binary(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) fail("bad magic: not a TLPG binary graph");
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    fail("unsupported binary graph version " + std::to_string(version));
  }
  const auto n = read_pod<VertexId>(in);
  const auto m = read_pod<EdgeId>(in);
  EdgeList edges;
  // Never trust the header for allocation: a corrupted count would request
  // unbounded memory before the (truncated) payload reads fail.
  edges.reserve(static_cast<std::size_t>(
      std::min<EdgeId>(m, EdgeId{1} << 20)));
  for (EdgeId i = 0; i < m; ++i) {
    const auto u = read_pod<VertexId>(in);
    const auto v = read_pod<VertexId>(in);
    edges.push_back(Edge{u, v});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph read_binary_file(const std::filesystem::path& path) {
  auto in = open_input(path, /*binary=*/true);
  return read_binary(in);
}

namespace {

/// Staging-buffer capacity per section cursor. Four buffers at ~256KiB of
/// payload each keep the writer's footprint O(1) while still issuing
/// large sequential writes.
constexpr std::size_t kWriterStageRecords = std::size_t{1} << 14;

}  // namespace

CsrFileWriter::CsrFileWriter(const std::filesystem::path& path,
                             VertexId num_vertices, EdgeId num_edges)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      num_vertices_(num_vertices),
      num_edges_(num_edges) {
  if (!out_) fail("cannot open '" + path.string() + "' for writing");
  const csr::Header h = csr::layout_for(num_vertices_, num_edges_);
  offsets_pos_ = h.offsets.offset;
  adjacency_pos_ = h.adjacency.offset;
  ids_pos_ = h.adjacency_ids.offset;
  edges_pos_ = h.edges.offset;

  unsigned char header[csr::kHeaderBytes];
  csr::encode_header(h, header);
  write_at(0, header, sizeof header);
  // The gap between the header and the first section never sees another
  // cursor; zero it now so no byte of the file is left to chance.
  pad_range(csr::kHeaderBytes, h.offsets.offset);

  offset_buf_.reserve(kWriterStageRecords);
  adj_buf_.reserve(kWriterStageRecords);
  ids_buf_.reserve(kWriterStageRecords);
  edge_buf_.reserve(kWriterStageRecords);
}

CsrFileWriter::~CsrFileWriter() = default;

void CsrFileWriter::write_at(std::uint64_t pos, const void* src,
                             std::size_t bytes) {
  out_.seekp(static_cast<std::streamoff>(pos));
  out_.write(static_cast<const char*>(src),
             static_cast<std::streamsize>(bytes));
  if (!out_) fail("I/O error while writing '" + path_.string() + "'");
}

void CsrFileWriter::pad_range(std::uint64_t begin, std::uint64_t end) {
  static constexpr char zeros[csr::kSectionAlign] = {};
  while (begin < end) {
    const auto chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(end - begin, sizeof zeros));
    write_at(begin, zeros, chunk);
    begin += chunk;
  }
}

void CsrFileWriter::flush_offsets() {
  if (offset_buf_.empty()) return;
  write_at(offsets_pos_, offset_buf_.data(),
           offset_buf_.size() * sizeof(std::uint64_t));
  offsets_pos_ += offset_buf_.size() * sizeof(std::uint64_t);
  offset_buf_.clear();
}

void CsrFileWriter::flush_adjacency() {
  if (adj_buf_.empty()) return;
  write_at(adjacency_pos_, adj_buf_.data(),
           adj_buf_.size() * sizeof(PackedNeighbor));
  adjacency_pos_ += adj_buf_.size() * sizeof(PackedNeighbor);
  write_at(ids_pos_, ids_buf_.data(), ids_buf_.size() * sizeof(VertexId));
  ids_pos_ += ids_buf_.size() * sizeof(VertexId);
  adj_buf_.clear();
  ids_buf_.clear();
}

void CsrFileWriter::flush_edges() {
  if (edge_buf_.empty()) return;
  write_at(edges_pos_, edge_buf_.data(), edge_buf_.size() * sizeof(Edge));
  edges_pos_ += edge_buf_.size() * sizeof(Edge);
  edge_buf_.clear();
}

void CsrFileWriter::append_offset(std::uint64_t offset) {
  if (offsets_written_ > 0 && offset < last_offset_) {
    fail("CsrFileWriter: offsets not monotone");
  }
  if (offsets_written_ == 0 && offset != 0) {
    fail("CsrFileWriter: offsets[0] != 0");
  }
  if (offsets_written_ >= num_vertices_ + 1) {
    fail("CsrFileWriter: too many offsets");
  }
  last_offset_ = offset;
  ++offsets_written_;
  offset_buf_.push_back(offset);
  if (offset_buf_.size() >= kWriterStageRecords) flush_offsets();
}

void CsrFileWriter::append_adjacency(VertexId vertex, EdgeId edge) {
  if (adjacency_written_ >= 2 * num_edges_) {
    fail("CsrFileWriter: too many adjacency records");
  }
  ++adjacency_written_;
  adj_buf_.push_back(PackedNeighbor{vertex, 0, edge});
  ids_buf_.push_back(vertex);
  if (adj_buf_.size() >= kWriterStageRecords) flush_adjacency();
}

void CsrFileWriter::append_edge(const Edge& e) {
  if (edges_written_ >= num_edges_) fail("CsrFileWriter: too many edges");
  ++edges_written_;
  edge_buf_.push_back(e);
  if (edge_buf_.size() >= kWriterStageRecords) flush_edges();
}

void CsrFileWriter::finish() {
  if (finished_) return;
  if (offsets_written_ != num_vertices_ + 1) {
    fail("CsrFileWriter: offsets section incomplete");
  }
  if (last_offset_ != 2 * num_edges_) {
    fail("CsrFileWriter: offsets[n] != 2m");
  }
  if (adjacency_written_ != 2 * num_edges_) {
    fail("CsrFileWriter: adjacency section incomplete");
  }
  if (edges_written_ != num_edges_) {
    fail("CsrFileWriter: edge section incomplete");
  }
  flush_offsets();
  flush_adjacency();
  flush_edges();
  // Alignment gaps between sections (and the tail) belong to no cursor;
  // zero them explicitly instead of relying on filesystem hole semantics.
  const csr::Header h = csr::layout_for(num_vertices_, num_edges_);
  pad_range(offsets_pos_, h.adjacency.offset);
  pad_range(adjacency_pos_, h.adjacency_ids.offset);
  pad_range(ids_pos_, h.edges.offset);
  pad_range(edges_pos_, h.file_bytes);
  out_.flush();
  if (!out_) fail("I/O error while finishing '" + path_.string() + "'");
  out_.close();
  finished_ = true;
}

void write_csr_file(const Graph& g, const std::filesystem::path& path) {
  CsrFileWriter writer(path, g.num_vertices(), g.num_edges());
  std::uint64_t offset = 0;
  writer.append_offset(0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    offset += g.degree(v);
    writer.append_offset(offset);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      writer.append_adjacency(nb.vertex, nb.edge);
    }
  }
  for (const Edge& e : g.edges()) {
    writer.append_edge(e);
  }
  writer.finish();
}

Graph load_csr_file(const std::filesystem::path& path,
                    const StorageOptions& options) {
  return Graph::from_storage(open_csr_storage(path, options));
}

namespace {

constexpr std::array<char, 4> kRunMagic = {'T', 'L', 'P', 'R'};
constexpr std::size_t kRunBufferEdges = std::size_t{1} << 11;  // 16KiB

[[noreturn]] void fail_run(const std::filesystem::path& path,
                           const std::string& what) {
  fail("spill run '" + path.string() + "': " + what);
}

}  // namespace

void write_edge_run(const std::filesystem::path& path, const Edge* edges,
                    std::size_t count) {
  auto out = open_output(path, /*binary=*/true);
  out.write(kRunMagic.data(), kRunMagic.size());
  const std::uint64_t declared = count;
  write_pod(out, declared);
  out.write(reinterpret_cast<const char*>(edges),
            static_cast<std::streamsize>(count * sizeof(Edge)));
  out.flush();
  if (!out) fail("I/O error while writing spill run '" + path.string() + "'");
}

EdgeRunReader::EdgeRunReader(const std::filesystem::path& path)
    : path_(path), in_(path, std::ios::binary) {
  if (!in_) fail_run(path_, "cannot open");
  in_.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0);
  std::array<char, 4> magic{};
  in_.read(magic.data(), magic.size());
  if (!in_ || magic != kRunMagic) fail_run(path_, "bad magic");
  in_.read(reinterpret_cast<char*>(&count_), sizeof count_);
  if (!in_) fail_run(path_, "truncated header");
  const std::uint64_t header = kRunMagic.size() + sizeof count_;
  if (count_ > (file_bytes - header) / sizeof(Edge) ||
      file_bytes != header + count_ * sizeof(Edge)) {
    fail_run(path_, "record count inconsistent with file size");
  }
  buf_.reserve(std::min<std::uint64_t>(count_, kRunBufferEdges));
}

bool EdgeRunReader::next(Edge& out) {
  if (consumed_ == count_) return false;
  if (buf_pos_ == buf_.size()) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(count_ - consumed_, kRunBufferEdges));
    buf_.resize(want);
    buf_pos_ = 0;
    in_.read(reinterpret_cast<char*>(buf_.data()),
             static_cast<std::streamsize>(want * sizeof(Edge)));
    if (!in_) fail_run(path_, "truncated payload");
  }
  out = buf_[buf_pos_++];
  if (out.u >= out.v) fail_run(path_, "non-canonical edge record");
  if (consumed_ > 0 && !(prev_ < out)) fail_run(path_, "records out of order");
  prev_ = out;
  ++consumed_;
  return true;
}

BuildReport convert_edge_list_to_csr(const std::filesystem::path& input,
                                     const std::filesystem::path& output,
                                     bool relabel) {
  auto in = open_input(input, /*binary=*/false);
  GraphBuilder builder(relabel);
  add_edge_list(in, builder);
  BuildReport report;
  builder.build_to_file(output, &report);
  return report;
}

Graph with_tier(const Graph& g, const StorageOptions& options) {
  if (options.tier == StorageTier::kInMemory) return g;
  const std::filesystem::path dir = options.spill_dir.empty()
                                        ? std::filesystem::temp_directory_path()
                                        : options.spill_dir;
  static std::atomic<unsigned> counter{0};
  std::random_device rd;
  const std::filesystem::path path =
      dir / ("tlp-csr-" + std::to_string(rd()) + "-" +
             std::to_string(counter.fetch_add(1)) + ".tlpc");
  try {
    write_csr_file(g, path);
    // We wrote these bytes ourselves a moment ago, so skip the O(n + m)
    // payload re-validation on the reopen.
    StorageOptions reopen = options;
    reopen.verify = false;
    return Graph::from_storage(
        open_csr_storage(path, reopen,
                         /*unlink_after_open=*/!options.keep_spill));
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw;
  }
}

}  // namespace tlp::io
