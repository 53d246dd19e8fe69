// Robustness fuzzing: every reader must either parse or throw
// std::runtime_error on arbitrary byte soup — never crash, hang, or return
// a structurally invalid graph.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "graph/io.hpp"
#include "partition/partition_io.hpp"
#include "gen/generators.hpp"
#include "stream/edge_stream.hpp"
#include "stream/window_tlp.hpp"

namespace tlp {
namespace {

/// Validates whatever a reader produced: adjacency must be self-consistent.
void expect_structurally_sane(const Graph& g) {
  EdgeId adjacency_entries = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      ASSERT_LT(nb.vertex, g.num_vertices());
      ASSERT_LT(nb.edge, g.num_edges());
      ++adjacency_entries;
    }
  }
  EXPECT_EQ(adjacency_entries, 2 * g.num_edges());
}

std::string random_bytes(std::mt19937_64& rng, std::size_t length,
                         bool printable) {
  std::string s(length, '\0');
  for (char& ch : s) {
    if (printable) {
      // Digits, whitespace, and a few separators: plausible-looking input.
      static constexpr char kAlphabet[] = "0123456789 \t\n#%-+.,ab";
      ch = kAlphabet[rng() % (sizeof kAlphabet - 1)];
    } else {
      ch = static_cast<char>(rng() % 256);
    }
  }
  return s;
}

TEST(IoFuzz, EdgeListReaderNeverCrashes) {
  std::mt19937_64 rng(1);
  for (int round = 0; round < 200; ++round) {
    std::istringstream in(random_bytes(rng, 1 + rng() % 200, round % 2 == 0));
    try {
      const Graph g = io::read_edge_list(in);
      expect_structurally_sane(g);
    } catch (const std::runtime_error&) {
      // acceptable outcome
    }
  }
}

TEST(IoFuzz, MatrixMarketReaderNeverCrashes) {
  std::mt19937_64 rng(2);
  for (int round = 0; round < 200; ++round) {
    std::string payload = round % 3 == 0
                              ? "%%MatrixMarket matrix coordinate pattern "
                                "symmetric\n"
                              : "";
    payload += random_bytes(rng, 1 + rng() % 200, round % 2 == 0);
    std::istringstream in(payload);
    try {
      const Graph g = io::read_matrix_market(in);
      expect_structurally_sane(g);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(IoFuzz, BinaryGraphReaderNeverCrashes) {
  std::mt19937_64 rng(3);
  // Corrupt a real payload at random offsets, plus pure noise.
  const Graph g = gen::erdos_renyi(30, 60, 5);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, buffer);
  const std::string clean = buffer.str();
  for (int round = 0; round < 200; ++round) {
    std::string payload;
    if (round % 2 == 0) {
      payload = clean;
      const std::size_t flips = 1 + rng() % 8;
      for (std::size_t i = 0; i < flips; ++i) {
        payload[rng() % payload.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      payload.resize(rng() % (payload.size() + 1));
    } else {
      payload = random_bytes(rng, rng() % 120, false);
    }
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << payload;
    try {
      const Graph parsed = io::read_binary(in);
      expect_structurally_sane(parsed);
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
      // from_edges rejecting corrupted endpoints is also acceptable
    }
  }
}

TEST(IoFuzz, CsrReaderNeverCrashes) {
  // Same recipe as the TLPG fuzz round, against the binary CSR format and
  // both storage tiers: corrupt a real file at random offsets (plus pure
  // noise and truncations) and require parse-or-throw — the mmap tier must
  // validate before serving any pointer into the payload.
  std::mt19937_64 rng(5);
  const Graph g = gen::erdos_renyi(40, 90, 6);
  const auto path =
      std::filesystem::temp_directory_path() / "tlp_fuzz_csr.tlpc";
  io::write_csr_file(g, path);
  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    clean = buffer.str();
  }
  const std::array<StorageOptions, 2> tiers = {
      StorageOptions::parse("in_memory"), StorageOptions::parse("mmap")};
  for (int round = 0; round < 60; ++round) {
    std::string payload;
    if (round % 2 == 0) {
      payload = clean;
      const std::size_t flips = 1 + rng() % 8;
      for (std::size_t i = 0; i < flips; ++i) {
        payload[rng() % payload.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      if (round % 4 == 0) payload.resize(rng() % (payload.size() + 1));
    } else {
      payload = random_bytes(rng, rng() % 300, false);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << payload;
    }
    for (const StorageOptions& options : tiers) {
      try {
        const Graph parsed = io::load_csr_file(path, options);
        expect_structurally_sane(parsed);
      } catch (const std::runtime_error&) {
        // acceptable outcome
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(IoFuzz, EdgeRunReaderNeverCrashes) {
  // TLPR spill runs back the external-sort builder. A truncated or
  // corrupted run must throw std::runtime_error — at open (bad magic,
  // count/size mismatch) or mid-stream (truncation, non-canonical edge,
  // order violation) — and every edge actually yielded must be canonical
  // and strictly ascending; silent corruption here would propagate into
  // the merged .tlpc.
  std::mt19937_64 rng(7);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < 40; ++u) {
    for (VertexId v = u + 1; v < 40; v += 1 + u % 5) {
      edges.push_back(Edge{u, v});
    }
  }
  const auto path =
      std::filesystem::temp_directory_path() / "tlp_fuzz_run.spill";
  io::write_edge_run(path, edges.data(), edges.size());
  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    clean = buffer.str();
  }

  // Sanity: the clean run round-trips in full.
  {
    io::EdgeRunReader reader(path);
    ASSERT_EQ(reader.count(), edges.size());
    Edge e;
    std::size_t yielded = 0;
    while (reader.next(e)) {
      ASSERT_EQ(e, edges[yielded]);
      ++yielded;
    }
    ASSERT_EQ(yielded, edges.size());
  }

  for (int round = 0; round < 200; ++round) {
    std::string payload;
    if (round % 2 == 0) {
      payload = clean;
      const std::size_t flips = 1 + rng() % 8;
      for (std::size_t i = 0; i < flips; ++i) {
        payload[rng() % payload.size()] ^= static_cast<char>(1 + rng() % 255);
      }
      if (round % 4 == 0) payload.resize(rng() % (payload.size() + 1));
    } else {
      payload = random_bytes(rng, rng() % 200, false);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << payload;
    }
    try {
      io::EdgeRunReader reader(path);
      Edge e;
      Edge prev{0, 0};
      bool first = true;
      while (reader.next(e)) {
        // Anything the reader does hand out must satisfy the run
        // invariants (it throws before yielding a violation).
        ASSERT_LT(e.u, e.v);
        if (!first) ASSERT_TRUE(prev < e);
        prev = e;
        first = false;
      }
    } catch (const std::runtime_error&) {
      // acceptable outcome
    }
  }
  std::filesystem::remove(path);
}

TEST(IoFuzz, PartitionReadersNeverCrash) {
  std::mt19937_64 rng(4);
  const Graph g = gen::path_graph(6);
  for (int round = 0; round < 150; ++round) {
    std::istringstream text(random_bytes(rng, 1 + rng() % 150, true));
    try {
      (void)io::read_partition_text(g, text);
    } catch (const std::runtime_error&) {
    }
    std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
    binary << random_bytes(rng, rng() % 100, false);
    try {
      (void)io::read_partition_binary(binary);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(IoFuzz, FileEdgeStreamRejectsGarbageButSurvivesComments) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto good = dir / "tlp_fuzz_good.txt";
  {
    std::ofstream out(good);
    out << "# header\n0 1\n\n% other comment\n1 2\n2 0\n";
  }
  stream::FileEdgeStream s(good);
  EXPECT_EQ(s.total_edges(), 3u);
  EXPECT_EQ(s.num_vertices(), 3u);
  std::size_t count = 0;
  while (s.next().has_value()) ++count;
  EXPECT_EQ(count, 3u);
  std::filesystem::remove(good);

  const auto bad = dir / "tlp_fuzz_bad.txt";
  {
    std::ofstream out(bad);
    out << "0 1\nnot an edge\n";
  }
  EXPECT_THROW(stream::FileEdgeStream{bad}, std::runtime_error);
  std::filesystem::remove(bad);

  EXPECT_THROW(stream::FileEdgeStream{"/no/such/file"}, std::runtime_error);
}

TEST(IoFuzz, FileStreamFeedsWindowTlp) {
  // End-to-end: disk -> FileEdgeStream -> WindowTlp.
  const Graph g = gen::erdos_renyi(100, 400, 7);
  const auto path =
      std::filesystem::temp_directory_path() / "tlp_fuzz_stream.txt";
  io::write_edge_list_file(g, path);

  stream::FileEdgeStream source(path);
  PartitionConfig config;
  config.num_partitions = 4;
  const auto assignment =
      stream::WindowTlpPartitioner{}.partition_stream(source, config);
  ASSERT_EQ(assignment.size(), static_cast<std::size_t>(g.num_edges()));
  for (const PartitionId part : assignment) {
    EXPECT_LT(part, 4u);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tlp
