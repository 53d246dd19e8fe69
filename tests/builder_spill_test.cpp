// Differential suite for the external-memory build pipeline: every budget
// must yield a TLPC file byte-identical to the in-memory builder's, and
// identical BuildReport accounting, across duplicate/self-loop/relabel
// corners. Byte-identity of the file implies identical graphs (same edge
// ids, same adjacency order), which is the conformance bar the partition
// differential suites build on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/builder.hpp"
#include "graph/io.hpp"

namespace tlp {
namespace {

std::filesystem::path temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("tlp_builder_spill_" + std::to_string(::getpid()) + "_" + name);
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

/// A messy input: duplicates in both orientations, self-loops, and (for
/// the relabel case) sparse scattered ids.
EdgeList messy_edges(std::size_t count, VertexId id_span, bool sparse,
                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  EdgeList edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    VertexId u = static_cast<VertexId>(rng() % id_span);
    VertexId v = static_cast<VertexId>(rng() % id_span);
    if (rng() % 7 == 0) v = u;          // self-loop
    if (sparse) {
      u = u * 977 + 13;                 // scattered id space
      v = v * 977 + 13;
    }
    edges.push_back(Edge{u, v});
    if (rng() % 3 == 0) edges.push_back(Edge{v, u});  // reverse duplicate
  }
  return edges;
}

void feed(GraphBuilder& b, const EdgeList& edges) {
  for (const Edge& e : edges) b.add_edge(e.u, e.v);
}

struct SpillCase {
  const char* name;
  std::size_t budget;
};

// Without this, gtest prints the raw bytes of `name`'s pointer, and test
// listings (hence ctest test names) change with every address layout. The
// case name is already the test-name suffix.
void PrintTo(const SpillCase& c, std::ostream* os) {
  *os << "budget=" << c.budget;
}

class BuilderSpill : public ::testing::TestWithParam<SpillCase> {};

TEST_P(BuilderSpill, ByteIdenticalToInMemoryBuild) {
  for (const bool relabel : {true, false}) {
    const EdgeList edges =
        messy_edges(/*count=*/5000, /*id_span=*/700, /*sparse=*/relabel, 42);

    GraphBuilder reference(relabel);
    feed(reference, edges);
    BuildReport ref_report;
    const Graph ref = reference.build(&ref_report);
    const auto ref_path = temp_path("ref.tlpc");
    io::write_csr_file(ref, ref_path);

    GraphBuilder spill(relabel);
    spill.set_memory_budget(GetParam().budget);
    feed(spill, edges);
    BuildReport spill_report;
    const auto spill_path = temp_path("spill.tlpc");
    spill.build_to_file(spill_path, &spill_report);

    EXPECT_EQ(file_bytes(ref_path), file_bytes(spill_path))
        << GetParam().name << " relabel=" << relabel;
    EXPECT_EQ(spill_report.input_edges, ref_report.input_edges);
    EXPECT_EQ(spill_report.self_loops, ref_report.self_loops);
    EXPECT_EQ(spill_report.duplicate_edges, ref_report.duplicate_edges);
    EXPECT_EQ(spill_report.kept_edges, ref_report.kept_edges);
    if (GetParam().budget != 0) {
      EXPECT_GT(spill_report.spill_runs, 0u) << GetParam().name;
    }
    EXPECT_GT(spill_report.build_peak_bytes, 0u);
    if (GetParam().budget >= 8 << 10) {
      // The budget (chunk plus radix scratch, later the reverse buffer plus
      // its scratch), the degree array, and 16 KiB of staging per run. At
      // "tiny" the kMinChunkEdges floor, not the budget, sets the chunk.
      const std::size_t n = ref.num_vertices();
      EXPECT_LE(spill_report.build_peak_bytes,
                GetParam().budget + 8 * (n + 1) +
                    (16u << 10) * spill_report.spill_runs)
          << GetParam().name << " relabel=" << relabel;
    }

    std::filesystem::remove(ref_path);
    std::filesystem::remove(spill_path);
  }
}

TEST_P(BuilderSpill, BuildReturnsIdenticalGraph) {
  const EdgeList edges = messy_edges(3000, 500, /*sparse=*/false, 7);
  GraphBuilder reference(/*relabel=*/true);
  feed(reference, edges);
  const Graph ref = reference.build();

  GraphBuilder spill(/*relabel=*/true);
  spill.set_memory_budget(GetParam().budget);
  feed(spill, edges);
  const Graph got = spill.build();

  ASSERT_EQ(got.num_vertices(), ref.num_vertices());
  ASSERT_EQ(got.num_edges(), ref.num_edges());
  for (EdgeId e = 0; e < ref.num_edges(); ++e) {
    ASSERT_EQ(got.edge(e), ref.edge(e)) << "edge " << e;
  }
  for (VertexId v = 0; v < ref.num_vertices(); ++v) {
    const auto a = ref.neighbors(v);
    const auto b = got.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].vertex, b[i].vertex);
      ASSERT_EQ(a[i].edge, b[i].edge);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, BuilderSpill,
    ::testing::Values(
        SpillCase{"tiny", 1},            // floor: kMinChunkEdges per run
        SpillCase{"small", 8 << 10},     // many runs
        SpillCase{"boundary", 5000 * sizeof(Edge)},  // ~one chunk boundary
        SpillCase{"unbounded_stream", 0}),           // resident streaming path
    [](const auto& info) { return std::string(info.param.name); });

TEST(BuilderSpillCorners, SentinelIdRejectedWithoutRelabel) {
  // n = max id + 1 would wrap to 0 for kInvalidVertex; add_edge refuses it
  // and leaves the builder as it was.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{4096}}) {
    GraphBuilder b(/*relabel=*/false);
    b.set_memory_budget(budget);
    b.add_edge(0, 1);
    EXPECT_THROW(b.add_edge(2, kInvalidVertex), std::invalid_argument);
    EXPECT_THROW(b.add_edge(kInvalidVertex, 2), std::invalid_argument);
    EXPECT_EQ(b.edges_offered(), 1u);
    b.add_edge(1, 2);
    const auto path = temp_path("sentinel.tlpc");
    b.build_to_file(path);
    const Graph g = io::load_csr_file(path);
    EXPECT_EQ(g.num_vertices(), 3u) << budget;
    EXPECT_EQ(g.num_edges(), 2u) << budget;
    std::filesystem::remove(path);
  }
  GraphBuilder b(/*relabel=*/false);
  b.add_edge(0, 1);
  EXPECT_THROW(b.add_edge(kInvalidVertex, kInvalidVertex),
               std::invalid_argument);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);

  // With relabel the sentinel is an ordinary raw id.
  GraphBuilder r(/*relabel=*/true);
  r.add_edge(kInvalidVertex, 0);
  EXPECT_EQ(r.build().num_vertices(), 2u);
}

/// Raw ids in a fixed order: the corner ids, ids that share a home slot,
/// then strided ids, `count` distinct ones in all, each followed by an id
/// already seen.
std::vector<VertexId> relabel_input(std::size_t count) {
  std::vector<VertexId> distinct = {0, 0xFFFFFFFEu, 0xFFFFFFFFu};
  // Ids whose probes all start in slot 0 of the initial 16-slot table and
  // of a 2^12-slot one: they pile up in one linear-probe chain.
  for (VertexId raw = 1; distinct.size() < 24 && raw < (1u << 24); ++raw) {
    if (RelabelTable::home_slot(raw, 4) == 0 &&
        RelabelTable::home_slot(raw, 12) == 0) {
      distinct.push_back(raw);
    }
  }
  for (VertexId k = 1; distinct.size() < count; ++k) {
    distinct.push_back((1u << 24) + k * 4096u);  // power-of-two stride
  }
  distinct.resize(count);
  std::vector<VertexId> ids;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    ids.push_back(distinct[i]);
    ids.push_back(distinct[(i * 7) % (i + 1)]);  // an id already seen
  }
  return ids;
}

TEST(RelabelTable, MatchesUnorderedMapAcrossGrowth) {
  std::vector<std::size_t> counts = {1, 2, 3, 1023, 1024, 1025};
  for (unsigned k = 2; k <= 17; ++k) {
    counts.push_back((std::size_t{1} << k) - 1);
    counts.push_back((std::size_t{1} << k) + 1);
  }
  for (const std::size_t count : counts) {
    const std::vector<VertexId> ids = relabel_input(count);
    RelabelTable table;
    std::unordered_map<VertexId, VertexId> reference;
    for (const VertexId raw : ids) {
      const auto [it, inserted] =
          reference.try_emplace(raw, static_cast<VertexId>(reference.size()));
      ASSERT_EQ(table.intern(raw), it->second)
          << "raw " << raw << " count " << count;
    }
    EXPECT_EQ(table.size(), reference.size()) << count;
    EXPECT_EQ(table.size(), count);
    EXPECT_GE(table.capacity(), 2 * std::size_t{table.size()});
    for (const auto& [raw, dense] : reference) {
      ASSERT_EQ(table.intern(raw), dense) << "raw " << raw;
    }
    EXPECT_EQ(table.size(), count);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.capacity(), 0u);
    EXPECT_EQ(table.intern(0xFFFFFFFFu), 0u);
  }
}

TEST(RelabelTable, TlpcMatchesReferenceRelabelling) {
  // Relabelling inside the builder must write the same file as feeding
  // ids the test relabelled itself through a std::unordered_map.
  for (const std::size_t count : {std::size_t{1025}, std::size_t{4097}}) {
    const std::vector<VertexId> ids = relabel_input(count);
    for (const std::size_t budget : {std::size_t{0}, std::size_t{4096}}) {
      std::unordered_map<VertexId, VertexId> reference;
      const auto dense = [&reference](VertexId raw) {
        return reference
            .try_emplace(raw, static_cast<VertexId>(reference.size()))
            .first->second;
      };
      GraphBuilder relabelled(/*relabel=*/true);
      GraphBuilder verbatim(/*relabel=*/false);
      relabelled.set_memory_budget(budget);
      verbatim.set_memory_budget(budget);
      const auto add = [&](VertexId u, VertexId v) {
        relabelled.add_edge(u, v);
        const VertexId du = dense(u);  // the builder interns u, then v
        const VertexId dv = dense(v);
        verbatim.add_edge(du, dv);
      };
      for (std::size_t i = 0; i + 1 < ids.size(); i += 3) {
        add(ids[i], ids[i + 1]);
      }
      // Every id touched, so both builders see the same n.
      for (const VertexId raw : ids) add(raw, raw);
      const auto a = temp_path("relabel_a.tlpc");
      const auto b = temp_path("relabel_b.tlpc");
      relabelled.build_to_file(a);
      verbatim.build_to_file(b);
      EXPECT_EQ(file_bytes(a), file_bytes(b))
          << "count " << count << " budget " << budget;
      EXPECT_EQ(io::load_csr_file(a).num_vertices(), count);
      std::filesystem::remove(a);
      std::filesystem::remove(b);
    }
  }
}

TEST(RelabelTable, BuildReportCountsTheTable) {
  // The table holds 8 bytes a slot, and 12 a slot (old and new) while its
  // last doubling copies; neither is part of build_peak_bytes.
  for (const std::size_t count : {std::size_t{100}, std::size_t{5000}}) {
    const std::vector<VertexId> ids = relabel_input(count);
    RelabelTable table;
    for (const VertexId raw : ids) (void)table.intern(raw);
    const std::size_t slots = table.capacity();
    EXPECT_GE(table.peak_bytes(), 8 * slots + 4 * slots) << count;
    for (const std::size_t budget : {std::size_t{0}, std::size_t{4096}}) {
      for (const bool to_file : {false, true}) {
        GraphBuilder builder(/*relabel=*/true);
        builder.set_memory_budget(budget);
        for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
          builder.add_edge(ids[i], ids[i + 1]);
        }
        BuildReport report;
        const auto path = temp_path("relabel_report.tlpc");
        if (to_file) {
          builder.build_to_file(path, &report);
          std::filesystem::remove(path);
        } else {
          (void)builder.build(&report);
        }
        EXPECT_GE(report.relabel_peak_bytes, 8 * slots)
            << count << " budget " << budget << " file " << to_file;
        EXPECT_EQ(report.relabel_peak_bytes, table.peak_bytes()) << count;
      }
    }
  }
  GraphBuilder verbatim(/*relabel=*/false);
  verbatim.add_edge(0, 1);
  BuildReport report;
  (void)verbatim.build(&report);
  EXPECT_EQ(report.relabel_peak_bytes, 0u);
}

TEST(BuilderSpillCorners, EmptyBuild) {
  GraphBuilder b;
  b.set_memory_budget(1024);
  const auto path = temp_path("empty.tlpc");
  BuildReport report;
  b.build_to_file(path, &report);
  EXPECT_EQ(report.kept_edges, 0u);
  const Graph g = io::load_csr_file(path);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  std::filesystem::remove(path);
}

TEST(BuilderSpillCorners, SelfLoopOnlyVerticesSurvive) {
  // A self-loop must still intern/extend the vertex space (the Matrix
  // Market reader depends on this), in both regimes.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{512}}) {
    GraphBuilder b(/*relabel=*/false);
    b.set_memory_budget(budget);
    b.add_edge(0, 1);
    b.add_edge(9, 9);
    BuildReport report;
    const Graph g = b.build(&report);
    EXPECT_EQ(g.num_vertices(), 10u) << budget;
    EXPECT_EQ(g.num_edges(), 1u);
    EXPECT_EQ(report.self_loops, 1u);
  }
}

TEST(BuilderSpillCorners, ReusableAfterSpillBuild) {
  GraphBuilder b;
  b.set_memory_budget(512);
  b.add_edge(0, 1);
  (void)b.build();
  EXPECT_EQ(b.edges_offered(), 0u);
  b.add_edge(5, 6);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.num_vertices(), 2u);  // relabeled afresh
}

TEST(BuilderSpillCorners, BudgetChangeAfterAddEdgeThrows) {
  GraphBuilder b;
  b.add_edge(0, 1);
  EXPECT_THROW(b.set_memory_budget(1024), std::runtime_error);
}

TEST(BuilderSpillCorners, ConvertEdgeListStreamsThroughBudget) {
  const auto text = temp_path("convert.txt");
  {
    std::ofstream out(text);
    out << "# comment\n";
    std::mt19937_64 rng(11);
    for (int i = 0; i < 4000; ++i) {
      out << rng() % 300 << ' ' << rng() % 300 << '\n';
    }
  }
  const auto ref_path = temp_path("convert_ref.tlpc");
  const auto budget_path = temp_path("convert_budget.tlpc");
  io::write_csr_file(io::read_edge_list_file(text), ref_path);

  GraphBuilder probe;  // convert_edge_list_to_csr honours the env budget;
  // here we exercise the API-level equivalent through a builder.
  probe.set_memory_budget(4 << 10);
  {
    std::ifstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const auto space = line.find(' ');
      probe.add_edge(
          static_cast<VertexId>(std::stoul(line.substr(0, space))),
          static_cast<VertexId>(std::stoul(line.substr(space + 1))));
    }
  }
  probe.build_to_file(budget_path);
  EXPECT_EQ(file_bytes(ref_path), file_bytes(budget_path));

  // And the io-level streaming conversion (budget off in this process)
  // must agree too.
  const auto conv_path = temp_path("convert_api.tlpc");
  const BuildReport report = io::convert_edge_list_to_csr(text, conv_path);
  EXPECT_EQ(file_bytes(ref_path), file_bytes(conv_path));
  EXPECT_EQ(report.kept_edges, io::load_csr_file(conv_path).num_edges());

  for (const auto& p : {text, ref_path, budget_path, conv_path}) {
    std::filesystem::remove(p);
  }
}

}  // namespace
}  // namespace tlp
