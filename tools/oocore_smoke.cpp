// Out-of-core smoke driver for tools/check.sh.
//
// Two modes, run as separate processes so a memory cap (ulimit -d, i.e.
// RLIMIT_DATA) can be applied to --run but not to --prepare:
//
//   oocore_smoke --prepare <dir> [n] [m]
//       Generates a Chung-Lu power-law graph, writes <dir>/oocore.tlpc and
//       an uncapped in-memory reference partition <dir>/oocore.ref, and
//       prints the CSR file size plus a suggested heap cap (in KB, ready
//       for `ulimit -d`) that is smaller than the in-memory CSR.
//
//   oocore_smoke --run <dir> <storage-spec>
//       Loads the CSR on the requested tier, partitions with the same
//       configuration, and compares the assignment byte-for-byte against
//       the reference. Exit 0 = identical; exit 3 = the memory cap bit
//       (allocation failure), which the in-memory control leg *expects*.
//
// Why RLIMIT_DATA and not RLIMIT_AS (`ulimit -v`): RLIMIT_AS counts
// read-only file mappings too, so it would kill the mmap tier along with
// the heap it is supposed to be saving. RLIMIT_DATA charges heap
// (brk + private anonymous mmap) but exempts file-backed mappings, which is
// exactly the resource the out-of-core tier trades away.
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <new>
#include <string>

#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/storage.hpp"
#include "partition/partition_io.hpp"
#include "core/tlp.hpp"

namespace fs = std::filesystem;
using namespace tlp;

namespace {

constexpr std::uint64_t kSeed = 2026;
constexpr PartitionId kPartitions = 16;

PartitionConfig smoke_config() {
  PartitionConfig config;
  config.num_partitions = kPartitions;
  return config;
}

int prepare(const fs::path& dir, VertexId n, EdgeId m) {
  fs::create_directories(dir);
  std::cerr << "oocore: generating chung_lu(n=" << n << ", m=" << m << ")\n";
  const Graph g = gen::chung_lu_power_law(n, m, 2.1, kSeed);
  const fs::path csr = dir / "oocore.tlpc";
  io::write_csr_file(g, csr);

  std::cerr << "oocore: partitioning uncapped in-memory reference\n";
  const EdgePartition reference =
      TlpPartitioner{}.partition(g, smoke_config());
  io::write_partition_binary_file(reference, dir / "oocore.ref");

  // Suggest a heap cap below the in-memory CSR size, with room for the
  // process baseline (runtime, partition state). The control leg must load
  // the whole CSR into heap vectors and therefore blow through this; the
  // mmap leg keeps every section file-backed and fits.
  const std::uintmax_t csr_bytes = fs::file_size(csr);
  const std::uintmax_t baseline = 48u * 1024 * 1024;
  const std::uintmax_t cap_kb = (baseline + csr_bytes / 2) / 1024;
  std::cout << "csr_bytes=" << csr_bytes << "\n";
  std::cout << "cap_kb=" << cap_kb << "\n";
  return 0;
}

int run(const fs::path& dir, const std::string& spec) {
  const StorageOptions options = StorageOptions::parse(spec);
  const Graph g = io::load_csr_file(dir / "oocore.tlpc", options);
  const MemoryFootprint fp = g.memory_footprint();
  std::cerr << "oocore: tier=" << storage_tier_name(g.storage_tier())
            << " resident=" << fp.resident_bytes / 1024
            << "KB mapped=" << fp.mapped_bytes / 1024 << "KB\n";
  const EdgePartition actual = TlpPartitioner{}.partition(g, smoke_config());
  const EdgePartition reference =
      io::read_partition_binary_file(dir / "oocore.ref");
  if (actual.raw() != reference.raw()) {
    std::cerr << "oocore: FAIL — partition differs from uncapped reference\n";
    return 1;
  }
  std::cerr << "oocore: OK — byte-identical to uncapped reference\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = []() {
    std::cerr << "usage: oocore_smoke --prepare <dir> [n] [m]\n"
                 "       oocore_smoke --run <dir> <storage-spec>\n";
    return 2;
  };
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const fs::path dir = argv[2];
  try {
    if (mode == "--prepare") {
      const VertexId n =
          argc > 3 ? static_cast<VertexId>(std::stoull(argv[3])) : 120000;
      const EdgeId m =
          argc > 4 ? static_cast<EdgeId>(std::stoull(argv[4])) : 1200000;
      return prepare(dir, n, m);
    }
    if (mode == "--run" && argc > 3) return run(dir, argv[3]);
    return usage();
  } catch (const std::bad_alloc&) {
    // Distinct exit code: the memory cap bit. The in-memory control leg in
    // check.sh requires exactly this outcome to prove the cap binds.
    std::cerr << "oocore: allocation failed under the memory cap\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "oocore: error: " << e.what() << "\n";
    return 1;
  }
}
