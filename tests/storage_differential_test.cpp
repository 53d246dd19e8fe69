// Differential contract of the storage-policy seam: every partitioner
// must produce byte-identical assignments whether the CSR lives in heap
// vectors or in a read-only mapped file — the tier is invisible to the
// algorithms by construction, and this suite pins that.
//
// Sweep: {tlp, tlp_r0.5, multi_tlp} x {in_memory, mmap}, plus a registry-wide single-config pass over every
// registered algorithm.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_common/runner.hpp"
#include "core/multi_tlp.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"
#include "partition/registry.hpp"

namespace tlp {
namespace {

namespace fs = std::filesystem;

/// The tier sweep: the in-memory reference plus the mmap tier.
std::vector<std::pair<std::string, StorageOptions>> tier_sweep() {
  return {{"in_memory", StorageOptions::parse("in_memory")},
          {"mmap", StorageOptions::parse("mmap")}};
}

class StorageDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bench::register_builtin_partitioners();
    graph_ = new Graph(gen::chung_lu_power_law(3000, 12000, 2.1, 42));
    // PID-unique: ctest -j runs each test row as its own process, and
    // concurrent rows sharing one spill path race write/map/unlink.
    csr_path_ = new fs::path(
        fs::temp_directory_path() /
        ("tlp_storage_differential_" + std::to_string(::getpid()) + ".tlpc"));
    io::write_csr_file(*graph_, *csr_path_);
  }
  static void TearDownTestSuite() {
    fs::remove(*csr_path_);
    delete csr_path_;
    csr_path_ = nullptr;
    delete graph_;
    graph_ = nullptr;
  }

  static const Graph& reference() { return *graph_; }
  static const fs::path& csr_path() { return *csr_path_; }

  static Graph* graph_;
  static fs::path* csr_path_;
};

Graph* StorageDifferential::graph_ = nullptr;
fs::path* StorageDifferential::csr_path_ = nullptr;

TEST_F(StorageDifferential, TlpAndResidualAcrossTiers) {
  PartitionConfig config;
  config.num_partitions = 10;
  const std::vector<TlpPartitioner> algos = {TlpPartitioner{},
                                             make_tlp_r(0.5)};
  for (const TlpPartitioner& partitioner : algos) {
    const EdgePartition expected =
        partitioner.partition(reference(), config);
    for (const auto& [label, options] : tier_sweep()) {
      SCOPED_TRACE(partitioner.name() + " on " + label);
      const Graph tiered = io::load_csr_file(csr_path(), options);
      const EdgePartition actual = partitioner.partition(tiered, config);
      EXPECT_EQ(actual.raw(), expected.raw());
    }
  }
}

// The name predates the removal of the thread and shard axes; it is kept
// so test results stay comparable across history.
TEST_F(StorageDifferential, MultiTlpThreadsShardsAcrossTiers) {
  PartitionConfig config;
  config.num_partitions = 8;
  // Reference: the in-memory graph.
  const MultiTlpPartitioner partitioner;
  const EdgePartition expected = partitioner.partition(reference(), config);
  for (const auto& [label, options] : tier_sweep()) {
    SCOPED_TRACE("multi_tlp on " + label);
    const Graph tiered = io::load_csr_file(csr_path(), options);
    EXPECT_EQ(partitioner.partition(tiered, config).raw(), expected.raw());
  }
}

TEST_F(StorageDifferential, EveryRegisteredPartitionerTierInvariant) {
  // Broad, shallow sweep: each registered algorithm once, in-memory vs
  // mmap, on a smaller graph (some baselines are superlinear). Catches any
  // algorithm that sneaks around the facade.
  const Graph small = gen::chung_lu_power_law(400, 1600, 2.1, 7);
  const fs::path path =
      fs::temp_directory_path() /
      ("tlp_storage_registry_" + std::to_string(::getpid()) + ".tlpc");
  io::write_csr_file(small, path);
  PartitionConfig config;
  config.num_partitions = 4;
  for (const std::string& name : registered_partitioners()) {
    const PartitionerPtr partitioner = make_partitioner(name);
    const EdgePartition expected = partitioner->partition(small, config);
    SCOPED_TRACE(name + " on mmap");
    const Graph tiered = io::load_csr_file(path, StorageOptions::parse("mmap"));
    EXPECT_EQ(partitioner->partition(tiered, config).raw(), expected.raw());
  }
  fs::remove(path);
}

TEST_F(StorageDifferential, SpillBuiltGraphPartitionsIdentically) {
  // The same edge stream through the in-memory builder and through the
  // external-sort spill path (tiny budget, many runs) must yield graphs
  // that every registered partitioner treats identically — spilling is a
  // memory regime, never a semantic one. (The generator-built reference()
  // is not usable as the baseline here: builders canonicalize edge-id
  // order, generators keep insertion order.)
  GraphBuilder in_memory(/*relabel=*/false);
  GraphBuilder spill(/*relabel=*/false);
  spill.set_memory_budget(1 << 10);  // forces many spill runs
  for (EdgeId e = 0; e < reference().num_edges(); ++e) {
    const Edge& edge = reference().edge(e);
    in_memory.add_edge(edge.u, edge.v);
    spill.add_edge(edge.u, edge.v);
  }
  const Graph baseline = in_memory.build();
  BuildReport report;
  const Graph rebuilt = spill.build(&report);
  EXPECT_GT(report.spill_runs, 0u);
  PartitionConfig config;
  config.num_partitions = 6;
  for (const std::string& name : registered_partitioners()) {
    SCOPED_TRACE(name + " on spill-built graph");
    const PartitionerPtr partitioner = make_partitioner(name);
    const EdgePartition expected = partitioner->partition(baseline, config);
    EXPECT_EQ(partitioner->partition(rebuilt, config).raw(), expected.raw());
  }
}

TEST_F(StorageDifferential, WindowTlpAcrossTiers) {
  // window_tlp consumes the graph through an edge stream; the stream reads
  // edges() off the facade, so it must be tier-invariant too.
  PartitionConfig config;
  config.num_partitions = 6;
  const PartitionerPtr partitioner = make_partitioner("window_tlp");
  const EdgePartition expected = partitioner->partition(reference(), config);
  for (const auto& [label, options] : tier_sweep()) {
    SCOPED_TRACE("window_tlp on " + label);
    const Graph tiered = io::load_csr_file(csr_path(), options);
    EXPECT_EQ(partitioner->partition(tiered, config).raw(), expected.raw());
  }
}

}  // namespace
}  // namespace tlp
