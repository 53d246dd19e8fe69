// Tests for SNAP text and binary graph I/O, including failure injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"

namespace tlp {
namespace {

TEST(EdgeListReader, ParsesSnapFormat) {
  std::istringstream in(
      "# Directed graph: example\n"
      "# Nodes: 4 Edges: 4\n"
      "0\t1\n"
      "1\t2\n"
      "2 3\n"
      "\n"
      "% percent comments too\n"
      "3\t0\n");
  const Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(EdgeListReader, CollapsesDirectedDuplicates) {
  std::istringstream in("0 1\n1 0\n1 1\n");
  BuildReport report;
  const Graph g = io::read_edge_list(in, &report);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(report.duplicate_edges, 1u);
  EXPECT_EQ(report.self_loops, 1u);
}

TEST(EdgeListReader, RelabelsSparseIds) {
  std::istringstream in("30000000 40000000\n");
  const Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 2u);
}

TEST(EdgeListReader, RejectsMalformedLine) {
  std::istringstream in("0 1\nnot numbers\n");
  EXPECT_THROW(io::read_edge_list(in), std::runtime_error);
}

TEST(EdgeListReader, RejectsMissingSecondId) {
  std::istringstream in("42\n");
  EXPECT_THROW(io::read_edge_list(in), std::runtime_error);
}

TEST(EdgeListReader, EmptyInputGivesEmptyGraph) {
  std::istringstream in("# only a comment\n");
  const Graph g = io::read_edge_list(in);
  EXPECT_TRUE(g.empty());
}

TEST(EdgeListRoundTrip, PreservesGraph) {
  const Graph original = gen::erdos_renyi(50, 120, /*seed=*/7);
  std::stringstream buffer;
  io::write_edge_list(original, buffer);
  const Graph reloaded =
      io::read_edge_list(buffer, nullptr, /*relabel=*/false);
  ASSERT_EQ(reloaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(reloaded.num_edges(), original.num_edges());
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    EXPECT_TRUE(reloaded.has_edge(original.edge(e).u, original.edge(e).v));
  }
}

TEST(BinaryRoundTrip, PreservesGraphExactly) {
  const Graph original = gen::barabasi_albert(100, 3, /*seed=*/11);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(original, buffer);
  const Graph reloaded = io::read_binary(buffer);
  ASSERT_EQ(reloaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(reloaded.num_edges(), original.num_edges());
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    EXPECT_EQ(reloaded.edge(e), original.edge(e));
  }
}

TEST(BinaryReader, RejectsBadMagic) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  buffer << "NOPE and some trailing bytes";
  EXPECT_THROW(io::read_binary(buffer), std::runtime_error);
}

TEST(BinaryReader, RejectsTruncatedPayload) {
  const Graph original = gen::erdos_renyi(20, 30, /*seed=*/3);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(original, buffer);
  const std::string full = buffer.str();
  std::stringstream cut(std::ios::in | std::ios::out | std::ios::binary);
  cut << full.substr(0, full.size() / 2);
  EXPECT_THROW(io::read_binary(cut), std::runtime_error);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(io::read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
  EXPECT_THROW(io::read_binary_file("/nonexistent/path/graph.bin"),
               std::runtime_error);
}

TEST(FileIo, WriteReadTempFiles) {
  const Graph g = gen::cycle_graph(12);
  const auto dir = std::filesystem::temp_directory_path();
  const auto text_path = dir / "tlp_io_test_graph.txt";
  const auto bin_path = dir / "tlp_io_test_graph.bin";

  io::write_edge_list_file(g, text_path);
  io::write_binary_file(g, bin_path);
  const Graph from_text = io::read_edge_list_file(text_path);
  const Graph from_bin = io::read_binary_file(bin_path);
  EXPECT_EQ(from_text.num_edges(), g.num_edges());
  EXPECT_EQ(from_bin.num_edges(), g.num_edges());

  std::filesystem::remove(text_path);
  std::filesystem::remove(bin_path);
}

/// What one text reader made of an input: its edges, or its error.
struct ParseOutcome {
  EdgeList edges;
  VertexId n = 0;
  std::string error;
};

ParseOutcome edges_of(const Graph& g) {
  return {EdgeList(g.edges().begin(), g.edges().end()), g.num_vertices(),
          ""};
}

ParseOutcome read_via_istream(const std::string& text) {
  std::istringstream in(text);
  try {
    return edges_of(io::read_edge_list(in, nullptr, /*relabel=*/false));
  } catch (const std::runtime_error& e) {
    return {{}, 0, e.what()};
  }
}

ParseOutcome read_via_convert(const std::string& text) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string stem = "tlp_io_parse_" + std::to_string(::getpid());
  const auto text_path = dir / (stem + ".txt");
  const auto tlpc_path = dir / (stem + ".tlpc");
  {
    std::ofstream out(text_path, std::ios::binary);
    out << text;
  }
  ParseOutcome outcome;
  try {
    io::convert_edge_list_to_csr(text_path, tlpc_path, /*relabel=*/false);
    outcome = edges_of(io::load_csr_file(tlpc_path));
  } catch (const std::runtime_error& e) {
    outcome.error = e.what();
  }
  std::filesystem::remove(text_path);
  std::filesystem::remove(tlpc_path);
  return outcome;
}

/// Both readers must parse `text` to `expected` (canonical, ascending).
void expect_both_parse(const std::string& text, const EdgeList& expected) {
  const ParseOutcome a = read_via_istream(text);
  const ParseOutcome b = read_via_convert(text);
  EXPECT_EQ(a.error, "");
  EXPECT_EQ(b.error, "");
  EXPECT_EQ(a.edges, expected);
  EXPECT_EQ(b.edges, expected);
  EXPECT_EQ(a.n, b.n);
}

/// Both readers must reject `text` with the same message naming `line`.
void expect_both_reject(const std::string& text, std::size_t line) {
  const ParseOutcome a = read_via_istream(text);
  const ParseOutcome b = read_via_convert(text);
  EXPECT_EQ(a.error, b.error);
  EXPECT_NE(a.error.find("on line " + std::to_string(line)),
            std::string::npos)
      << a.error;
}

/// Numbered edge lines up to 3 bytes short of the first block boundary,
/// so the next line crosses it. Sets `lines` to the line count.
std::string fill_to_block_boundary(std::size_t& lines) {
  std::string text;
  lines = 0;
  for (VertexId i = 0; text.size() + 64 < io::kEdgeListBlockBytes; ++i) {
    text += std::to_string(i) + ' ' + std::to_string(i + 1) + '\n';
    ++lines;
  }
  // A comment line that ends exactly 3 bytes before the boundary.
  const std::size_t pad = io::kEdgeListBlockBytes - 3 - text.size();
  text += '#' + std::string(pad - 2, 'c') + '\n';
  ++lines;
  EXPECT_EQ(text.size(), io::kEdgeListBlockBytes - 3);
  return text;
}

EdgeList path_edges(VertexId count) {
  EdgeList edges;
  for (VertexId i = 0; i < count; ++i) edges.push_back(Edge{i, i + 1});
  return edges;
}

TEST(EdgeListParser, CommentsSeparatorsAndUnterminatedLastLine) {
  expect_both_parse(
      "# comment\n% comment\n1\t2\n3,4\n5 ,\t6\n  7 8 trailing\n\n9 10",
      {{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}});
  expect_both_reject("1 2\n3", 2);
  expect_both_reject("1 2\n# c\n3 x", 3);
}

TEST(EdgeListParser, CrlfLineEndings) {
  expect_both_parse("1 2\r\n# c\r\n\r\n3\t4\r\n5,6\r\n",
                    {{1, 2}, {3, 4}, {5, 6}});
  expect_both_reject("1 2\r\n3\r\n", 2);
}

TEST(EdgeListParser, LineAcrossBlockBoundary) {
  std::size_t lines = 0;
  const std::string head = fill_to_block_boundary(lines);
  EdgeList expected = path_edges(static_cast<VertexId>(lines - 1));
  expected.push_back(Edge{900000, 900001});
  expect_both_parse(head + "900000 900001\n", expected);
  expect_both_parse(head + "900000 900001", expected);
  expect_both_reject(head + "900000 x00001\n1 2\n", lines + 1);
  expect_both_reject(head + "12 \n1 2\n", lines + 1);
}

TEST(EdgeListParser, LineLongerThanBlock) {
  const std::string comment =
      '#' + std::string(3 * io::kEdgeListBlockBytes, 'c') + '\n';
  expect_both_parse(comment + "1 2\n" + comment + "2 3\n",
                    {{1, 2}, {2, 3}});
  expect_both_reject(comment + "1 2\n" + comment + "2 y\n", 4);
}

// The text readers hand parsed edges to GraphBuilder::add_edges in blocks
// of 64. Each block must build exactly what one add_edge per line builds:
// the same bytes, report and errors, whether a block is full or partial,
// and while the relabel table probes colliding slots or doubles.

/// Sets TLP_BUILD_BUDGET, which every GraphBuilder reads, for one scope.
class ScopedBudget {
 public:
  explicit ScopedBudget(std::size_t bytes) {
    ::setenv("TLP_BUILD_BUDGET", std::to_string(bytes).c_str(), 1);
  }
  ~ScopedBudget() { ::unsetenv("TLP_BUILD_BUDGET"); }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;
};

/// Budget 0 builds in memory; 1 byte floors the chunk at 256 edges, so
/// every build spills at least one run.
constexpr std::size_t kBlockBudgets[] = {0, 1};

std::filesystem::path block_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("tlp_io_block_" + std::to_string(::getpid()) + "_" + name);
}

std::string bytes_of(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expect_same_report(const BuildReport& got, const BuildReport& want) {
  EXPECT_EQ(got.input_edges, want.input_edges);
  EXPECT_EQ(got.self_loops, want.self_loops);
  EXPECT_EQ(got.duplicate_edges, want.duplicate_edges);
  EXPECT_EQ(got.kept_edges, want.kept_edges);
  EXPECT_EQ(got.relabeled, want.relabeled);
  EXPECT_EQ(got.spill_runs, want.spill_runs);
  EXPECT_EQ(got.build_peak_bytes, want.build_peak_bytes);
  EXPECT_EQ(got.relabel_peak_bytes, want.relabel_peak_bytes);
}

/// `text` holds `edges`, one line each in order, among comment and blank
/// lines. convert_edge_list_to_csr and read_edge_list must both match a
/// builder fed one add_edge per edge, at every budget.
void expect_blocks_match_per_edge(const std::string& text,
                                  const EdgeList& edges, bool relabel) {
  const auto text_path = block_path("in.txt");
  const auto ref_path = block_path("ref.tlpc");
  const auto conv_path = block_path("conv.tlpc");
  const auto read_path = block_path("read.tlpc");
  {
    std::ofstream out(text_path, std::ios::binary);
    out << text;
  }
  for (const std::size_t budget : kBlockBudgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget) +
                 " relabel=" + std::to_string(relabel));
    const ScopedBudget scoped(budget);
    GraphBuilder per_edge(relabel);
    for (const Edge& e : edges) per_edge.add_edge(e.u, e.v);
    BuildReport want;
    per_edge.build_to_file(ref_path, &want);
    if (budget != 0) {
      EXPECT_GT(want.spill_runs, 0u);
    }
    const BuildReport converted =
        io::convert_edge_list_to_csr(text_path, conv_path, relabel);
    EXPECT_EQ(bytes_of(conv_path), bytes_of(ref_path));
    expect_same_report(converted, want);

    // read_edge_list calls build(), whose in-memory report counts its
    // peak differently from build_to_file's.
    for (const Edge& e : edges) per_edge.add_edge(e.u, e.v);
    BuildReport want_read;
    io::write_csr_file(per_edge.build(&want_read), ref_path);
    std::istringstream in(text);
    BuildReport read;
    io::write_csr_file(io::read_edge_list(in, &read, relabel), read_path);
    EXPECT_EQ(bytes_of(read_path), bytes_of(ref_path));
    expect_same_report(read, want_read);
  }
  for (const auto& path : {text_path, ref_path, conv_path, read_path}) {
    std::filesystem::remove(path);
  }
}

/// `count` ids below 2^17 that share one home slot in every relabel table
/// of up to 1024 slots (a shared top-10-bit hash shares every shorter
/// prefix), so each probe among them walks the same cluster.
std::vector<VertexId> colliding_ids(std::size_t count) {
  std::vector<VertexId> ids;
  const std::size_t home = RelabelTable::home_slot(12345, 10);
  for (VertexId raw = 0; ids.size() < count && raw < (1u << 17); ++raw) {
    if (RelabelTable::home_slot(raw, 10) == home) ids.push_back(raw);
  }
  EXPECT_EQ(ids.size(), count);
  return ids;
}

/// `lines` edge lines over `ids`, with self-loops, duplicates in both
/// orientations, and comment, blank and CRLF lines in between.
std::string block_text(std::size_t lines, const std::vector<VertexId>& ids,
                       std::uint64_t seed, EdgeList& edges) {
  std::mt19937_64 rng(seed);
  std::string text = "# header\n";
  edges.clear();
  for (std::size_t i = 0; i < lines; ++i) {
    if (i % 17 == 5) text += "# inside a block\n";
    if (i % 23 == 9) text += "\n";
    if (i % 29 == 11) text += "  % indented\r\n";
    Edge e{ids[rng() % ids.size()], ids[rng() % ids.size()]};
    if (i % 13 == 7) e.v = e.u;                                // self-loop
    if (i % 11 == 3 && !edges.empty()) e = {edges.back().v, edges.back().u};
    edges.push_back(e);
    text += std::to_string(e.u) + (i % 2 == 0 ? " " : "\t") +
            std::to_string(e.v) + '\n';
  }
  return text;
}

TEST(EdgeListParser, BlocksMatchPerEdgeBuildAroundTheBlockSize) {
  const std::vector<VertexId> ids = colliding_ids(48);
  for (const std::size_t lines : {63, 64, 65, 129, 513}) {
    for (const bool relabel : {true, false}) {
      SCOPED_TRACE("lines=" + std::to_string(lines));
      EdgeList edges;
      const std::string text = block_text(lines, ids, lines, edges);
      expect_blocks_match_per_edge(text, edges, relabel);
    }
  }
}

TEST(EdgeListParser, RelabelTableDoublesInsideTheFirstBlock) {
  // 48 colliding ids in the first 64 lines: the table starts at 16 slots
  // and doubles to 128 while the first block's probes are in flight.
  const std::vector<VertexId> ids = colliding_ids(48);
  EdgeList edges;
  std::string text = "# colliding ids\n";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    edges.push_back(Edge{ids[i], ids[(i + 1) % ids.size()]});
    text += std::to_string(edges.back().u) + ' ' +
            std::to_string(edges.back().v) + '\n';
  }
  RelabelTable table;
  for (std::size_t i = 0; i < 2; ++i) (void)table.intern(edges[i].u);
  EXPECT_EQ(table.capacity(), 16u);
  for (const Edge& e : edges) {
    (void)table.intern(e.u);
    (void)table.intern(e.v);
  }
  EXPECT_EQ(table.capacity(), 128u);
  expect_blocks_match_per_edge(text, edges, /*relabel=*/true);
}

/// convert_edge_list_to_csr's error on `text`, with `relabel`; "" if none.
/// Its exception type must be `Error`.
template <typename Error>
std::string convert_error(const std::string& text, bool relabel) {
  const auto text_path = block_path("err.txt");
  const auto tlpc_path = block_path("err.tlpc");
  {
    std::ofstream out(text_path, std::ios::binary);
    out << text;
  }
  std::string what;
  try {
    io::convert_edge_list_to_csr(text_path, tlpc_path, relabel);
  } catch (const Error& e) {
    what = e.what();
  }
  std::filesystem::remove(text_path);
  std::filesystem::remove(tlpc_path);
  return what;
}

TEST(EdgeListParser, ErrorsAfterAPartialBlockKeepLineOrder) {
  std::string head;
  for (VertexId i = 0; i < 70; ++i) {  // one full block and 6 edges
    head += std::to_string(i) + ' ' + std::to_string(i + 1) + '\n';
  }
  for (const std::size_t budget : kBlockBudgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    const ScopedBudget scoped(budget);
    // A malformed line names its own line, whatever the block holds.
    for (const bool relabel : {true, false}) {
      const std::string text = head + "# c\n5 x\n1 2\n";
      EXPECT_NE(convert_error<std::runtime_error>(text, relabel)
                    .find("on line 72"),
                std::string::npos);
      std::istringstream in(text);
      EXPECT_THROW(
          {
            try {
              (void)io::read_edge_list(in, nullptr, relabel);
            } catch (const std::runtime_error& e) {
              EXPECT_NE(std::string(e.what()).find("on line 72"),
                        std::string::npos);
              throw;
            }
          },
          std::runtime_error);
    }
    // Without relabel the raw id 0xFFFFFFFF is rejected in line order: its
    // error comes before the malformed line's, although both lines sit in
    // one partial block. With relabel it is an ordinary id.
    const std::string text = head + "4294967295 3\n5 x\n";
    EXPECT_NE(convert_error<std::invalid_argument>(text, false)
                  .find("kInvalidVertex"),
              std::string::npos);
    std::istringstream in(text);
    EXPECT_THROW((void)io::read_edge_list(in, nullptr, false),
                 std::invalid_argument);
    EXPECT_NE(convert_error<std::runtime_error>(text, true).find("on line 72"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace tlp
