// The tentpole invariant of the SIMD kernel layer: partitions are
// byte-identical across every kernel x storage tier combination. The kernels change instruction selection, never
// values; this suite is the executable proof.
//
// Kernels are swept in-process via intersect::set_active, the only way to
// move the table off the CPUID default.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/multi_tlp.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/intersect_kernels.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"

namespace tlp {
namespace {

namespace fs = std::filesystem;
using intersect::Kernel;

/// Pins the scalar kernel for the reference run and restores the process
/// default on destruction.
class KernelGuard {
 public:
  KernelGuard() : saved_(intersect::active_kind()) {}
  ~KernelGuard() { intersect::set_active(saved_); }

 private:
  Kernel saved_;
};

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> kernels;
  for (const Kernel k : {Kernel::kScalar, Kernel::kAvx2}) {
    if (intersect::supported(k)) kernels.push_back(k);
  }
  return kernels;
}

class KernelDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Power-law graph: hubs make the gallop path and the two-hop counting
    // pass both fire, so every kernel entry point is on the partition's
    // critical path.
    graph_ = new Graph(gen::chung_lu_power_law(2000, 9000, 2.1, 97));
    // PID-unique: ctest -j runs each test row as its own process, and
    // concurrent rows sharing one spill path race write/map/unlink.
    csr_path_ = new fs::path(
        fs::temp_directory_path() /
        ("tlp_kernel_differential_" + std::to_string(::getpid()) + ".tlpc"));
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

Graph* KernelDifferential::graph_ = nullptr;
fs::path* KernelDifferential::csr_path_ = nullptr;

TEST_F(KernelDifferential, SequentialTlpKernelInvariant) {
  KernelGuard guard;
  PartitionConfig config;
  config.num_partitions = 10;
  ASSERT_TRUE(intersect::set_active(Kernel::kScalar));
  const std::vector<TlpPartitioner> algos = {TlpPartitioner{},
                                             make_tlp_r(0.5)};
  std::vector<EdgePartition> expected;
  expected.reserve(algos.size());
  for (const TlpPartitioner& p : algos) {
    expected.push_back(p.partition(reference(), config));
  }
  for (const Kernel k : supported_kernels()) {
    ASSERT_TRUE(intersect::set_active(k));
    for (std::size_t i = 0; i < algos.size(); ++i) {
      SCOPED_TRACE(algos[i].name() + " kernel=" +
                   std::string(intersect::kernel_name(k)));
      EXPECT_EQ(algos[i].partition(reference(), config).raw(),
                expected[i].raw());
    }
  }
}

// The name predates the removal of the thread, steal and shard axes; it is
// kept so test results stay comparable across history.
TEST_F(KernelDifferential, FullMatrixKernelThreadsStealShardsTiers) {
  KernelGuard guard;
  PartitionConfig config;
  config.num_partitions = 8;
  // Scalar in-memory run is the reference for the ENTIRE matrix.
  ASSERT_TRUE(intersect::set_active(Kernel::kScalar));
  const EdgePartition expected =
      MultiTlpPartitioner{}.partition(reference(), config);

  const std::vector<std::pair<std::string, StorageOptions>> tiers = {
      {"in_memory", StorageOptions::parse("in_memory")},
      {"mmap", StorageOptions::parse("mmap")},
  };
  for (const Kernel k : supported_kernels()) {
    ASSERT_TRUE(intersect::set_active(k));
    for (const auto& [label, options] : tiers) {
      SCOPED_TRACE("kernel=" + std::string(intersect::kernel_name(k)) +
                   " tier=" + label);
      const Graph tiered = io::load_csr_file(csr_path(), options);
      EXPECT_EQ(MultiTlpPartitioner{}.partition(tiered, config).raw(),
                expected.raw());
    }
  }
}

TEST_F(KernelDifferential, CommonNeighborCountsKernelInvariantOnHubs) {
  KernelGuard guard;
  // Spot-check Graph::common_neighbor_count itself across kernels on the
  // highest-degree vertices (where gallop + vector windows engage).
  const Graph& g = reference();
  VertexId hub = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  ASSERT_TRUE(intersect::set_active(Kernel::kScalar));
  std::vector<std::size_t> expected;
  const VertexId probe_count = std::min<VertexId>(g.num_vertices(), 200);
  for (VertexId v = 0; v < probe_count; ++v) {
    expected.push_back(g.common_neighbor_count(hub, v));
  }
  for (const Kernel k : supported_kernels()) {
    ASSERT_TRUE(intersect::set_active(k));
    for (VertexId v = 0; v < probe_count; ++v) {
      ASSERT_EQ(g.common_neighbor_count(hub, v), expected[v])
          << "kernel=" << intersect::kernel_name(k) << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace tlp
