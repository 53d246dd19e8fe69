// Storage-policy seam: tier round-trips, word/span boundaries (vertex 0,
// last vertex, isolated vertices), resident/mapped accounting, the TLPC
// header/payload validation, and spill-file lifecycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/csr_format.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"

namespace tlp {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return fs::temp_directory_path() / name;
}

/// Every observable Graph accessor must agree between two graphs.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e), b.edge(e));
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "vertex " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].vertex, nb[i].vertex);
      EXPECT_EQ(na[i].edge, nb[i].edge);
    }
    const auto ia = a.neighbor_ids(v);
    const auto ib = b.neighbor_ids(v);
    ASSERT_EQ(ia.size(), ib.size());
    for (std::size_t i = 0; i < ia.size(); ++i) EXPECT_EQ(ia[i], ib[i]);
  }
}

/// n=7 with structure at every boundary the span math can get wrong:
/// vertex 0 (first word), vertex 6 (last vertex, offsets[n] edge),
/// isolated vertices 2 and 5 in the middle, and an isolated-at-the-end
/// shape when built with n=8.
Graph boundary_graph(VertexId n = 7) {
  return Graph::from_edges(
      n, {{0, 1}, {0, 6}, {1, 6}, {3, 4}, {4, 6}});
}

TEST(StorageOptions, ParseAcceptsAllTiers) {
  EXPECT_EQ(StorageOptions::parse("in_memory").tier, StorageTier::kInMemory);
  EXPECT_EQ(StorageOptions::parse("mmap").tier, StorageTier::kMmap);
}

TEST(StorageOptions, ParseRejectsGarbage) {
  // Everything but the two exact tier names throws: other tier names,
  // colon-field suffixes and aliases alike. The CLI (--storage,
  // TLP_STORAGE) and TLP_BENCH_STORAGE all parse through here.
  for (const char* spec :
       {"", "disk", "hybrid", "hybrid:8", "hybrid:16:1048576", "hybrid:abc",
        "hybrid:1:2:3", "mmap:", "mmap:8", "in_memory:0", "memory"}) {
    try {
      (void)StorageOptions::parse(spec);
      ADD_FAILURE() << "accepted '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("in_memory | mmap"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Storage, TierNames) {
  EXPECT_EQ(storage_tier_name(StorageTier::kInMemory), "in_memory");
  EXPECT_EQ(storage_tier_name(StorageTier::kMmap), "mmap");
}

TEST(Storage, DefaultGraphIsInMemory) {
  const Graph g = boundary_graph();
  EXPECT_EQ(g.storage_tier(), StorageTier::kInMemory);
  const MemoryFootprint fp = g.memory_footprint();
  EXPECT_GT(fp.resident_bytes, 0u);
  EXPECT_EQ(fp.mapped_bytes, 0u);
  EXPECT_EQ(g.summary(), "Graph(n=7, m=5)");  // no storage tag by default
}

TEST(Storage, CsrRoundTripOnEveryTier) {
  const Graph original = boundary_graph(/*n=*/8);  // vertex 7 isolated at end
  const fs::path path = temp_file("tlp_storage_roundtrip.tlpc");
  io::write_csr_file(original, path);

  for (const char* spec : {"in_memory", "mmap"}) {
    SCOPED_TRACE(spec);
    const StorageOptions options = StorageOptions::parse(spec);
    const Graph loaded = io::load_csr_file(path, options);
    EXPECT_EQ(loaded.storage_tier(), options.tier);
    expect_same_graph(original, loaded);
    EXPECT_TRUE(loaded.has_edge(0, 6));
    EXPECT_FALSE(loaded.has_edge(2, 3));
    EXPECT_EQ(loaded.common_neighbor_count(0, 1),
              original.common_neighbor_count(0, 1));
  }
  fs::remove(path);
}

TEST(Storage, EmptyGraphRoundTrip) {
  const Graph empty = Graph::from_edges(0, {});
  const fs::path path = temp_file("tlp_storage_empty.tlpc");
  io::write_csr_file(empty, path);
  for (const char* spec : {"in_memory", "mmap"}) {
    const Graph loaded = io::load_csr_file(path, StorageOptions::parse(spec));
    EXPECT_EQ(loaded.num_vertices(), 0u);
    EXPECT_EQ(loaded.num_edges(), 0u);
    EXPECT_TRUE(loaded.empty());
  }
  fs::remove(path);
}

TEST(Storage, SummaryTagsNonDefaultTiers) {
  const Graph g = boundary_graph();
  const Graph m = io::with_tier(g, StorageOptions::parse("mmap"));
  EXPECT_NE(m.summary().find("storage=mmap"), std::string::npos);
}

TEST(Storage, CorruptedHeaderIsRejected) {
  const Graph g = gen::erdos_renyi(60, 150, 9);
  const fs::path path = temp_file("tlp_storage_corrupt.tlpc");

  const auto load_all_tiers = [&path]() {
    for (const char* spec : {"in_memory", "mmap"}) {
      (void)io::load_csr_file(path, StorageOptions::parse(spec));
    }
  };
  const auto corrupt_at = [&](std::uint64_t offset, unsigned char value) {
    io::write_csr_file(g, path);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), 1);
  };

  corrupt_at(0, 'X');  // magic
  EXPECT_THROW(load_all_tiers(), std::runtime_error);
  corrupt_at(4, 99);  // version
  EXPECT_THROW(load_all_tiers(), std::runtime_error);
  // The guard is 0x01020304 stored native-endian; on little-endian the byte
  // at offset 8 is already 0x04, so flip it to something else entirely.
  corrupt_at(8, 0x40);  // endianness guard
  EXPECT_THROW(load_all_tiers(), std::runtime_error);
  corrupt_at(16, 0xEE);  // num_vertices
  EXPECT_THROW(load_all_tiers(), std::runtime_error);
  corrupt_at(24, 0xEE);  // num_edges
  EXPECT_THROW(load_all_tiers(), std::runtime_error);
  corrupt_at(32, 0x01);  // offsets section offset
  EXPECT_THROW(load_all_tiers(), std::runtime_error);

  // Truncation: declared size no longer matches the actual size.
  io::write_csr_file(g, path);
  fs::resize_file(path, fs::file_size(path) - 64);
  EXPECT_THROW(load_all_tiers(), std::runtime_error);
  fs::resize_file(path, 10);  // shorter than the header itself
  EXPECT_THROW(load_all_tiers(), std::runtime_error);

  fs::remove(path);
}

TEST(Storage, CorruptedPayloadIsRejectedWhenVerifying) {
  const Graph g = gen::erdos_renyi(60, 150, 10);
  const fs::path path = temp_file("tlp_storage_payload.tlpc");
  io::write_csr_file(g, path);
  {
    // Flip a neighbor id inside the adjacency section.
    const auto layout = io::csr::layout_for(60, 150);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(layout.adjacency.offset +
                                        8 * sizeof(Neighbor)));
    const unsigned char junk = 0xFF;
    f.write(reinterpret_cast<const char*>(&junk), 1);
  }
  for (const char* spec : {"in_memory", "mmap"}) {
    EXPECT_THROW((void)io::load_csr_file(path, StorageOptions::parse(spec)),
                 std::runtime_error)
        << spec;
  }
  fs::remove(path);
}

TEST(Storage, WithTierSpillIsUnlinkedByDefault) {
  const fs::path dir = temp_file("tlp_spill_dir");
  fs::create_directories(dir);
  const Graph g = boundary_graph();

  StorageOptions o = StorageOptions::parse("mmap");
  o.spill_dir = dir;
  const Graph m = io::with_tier(g, o);
  EXPECT_TRUE(fs::is_empty(dir));  // unlinked while still mapped
  expect_same_graph(g, m);         // data stays readable after the unlink

  o.keep_spill = true;
  const Graph kept = io::with_tier(g, o);
  EXPECT_FALSE(fs::is_empty(dir));
  expect_same_graph(g, kept);
  fs::remove_all(dir);
}

TEST(Storage, WithTierInMemoryIsNoOp) {
  const Graph g = boundary_graph();
  const Graph same = io::with_tier(g, StorageOptions{});
  EXPECT_EQ(same.storage_tier(), StorageTier::kInMemory);
  expect_same_graph(g, same);
}

TEST(Storage, BuilderSetStorageProducesRequestedTier) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.set_storage(StorageOptions::parse("mmap"));
  const Graph g = b.build();
  EXPECT_EQ(g.storage_tier(), StorageTier::kMmap);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Storage, FromEdgesSortedAndShuffledInputsAgree) {
  // The sorted-input fast path (no per-vertex sort) must produce the same
  // adjacency as the general path; only edge ids differ with input order,
  // so compare via a fixed canonical ordering.
  const Graph sorted = Graph::from_edges(
      6, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const Graph shuffled = Graph::from_edges(
      6, {{4, 5}, {2, 1}, {0, 2}, {3, 2}, {1, 0}, {3, 4}});
  ASSERT_EQ(sorted.num_edges(), shuffled.num_edges());
  for (VertexId v = 0; v < 6; ++v) {
    const auto a = sorted.neighbor_ids(v);
    const auto b = shuffled.neighbor_ids(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  // Duplicates must still be rejected on the fast path...
  EXPECT_THROW((void)Graph::from_edges(3, {{0, 1}, {0, 1}}),
               std::invalid_argument);
  // ...and on the slow path (same pair, detected after the per-vertex sort).
  EXPECT_THROW((void)Graph::from_edges(3, {{1, 0}, {0, 1}}),
               std::invalid_argument);
}

TEST(Storage, FootprintSplitsResidentAndMapped) {
  const Graph g = gen::erdos_renyi(500, 2000, 11);
  const fs::path path = temp_file("tlp_storage_footprint.tlpc");
  io::write_csr_file(g, path);
  const std::uintmax_t file_bytes = fs::file_size(path);

  const Graph m = io::load_csr_file(path, StorageOptions::parse("mmap"));
  EXPECT_EQ(m.memory_footprint().mapped_bytes, file_bytes);
  EXPECT_EQ(m.memory_footprint().resident_bytes, 0u);

  EXPECT_EQ(m.memory_footprint().total_bytes(), file_bytes);

  const Graph i = io::load_csr_file(path, StorageOptions::parse("in_memory"));
  EXPECT_EQ(i.memory_footprint().mapped_bytes, 0u);
  EXPECT_GT(i.memory_footprint().resident_bytes, 0u);
  fs::remove(path);
}

TEST(Storage, GraphCopySharesStorage) {
  const Graph g = io::with_tier(boundary_graph(), StorageOptions::parse("mmap"));
  const Graph copy = g;  // shallow: same storage, same pointers
  EXPECT_EQ(copy.neighbors(0).data(), g.neighbors(0).data());
  expect_same_graph(g, copy);
}

}  // namespace
}  // namespace tlp
