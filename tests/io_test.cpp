// Tests for SNAP text and binary graph I/O, including failure injection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "gen/generators.hpp"
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

}  // namespace
}  // namespace tlp
