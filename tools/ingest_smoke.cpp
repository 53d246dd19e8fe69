// Bounded-memory ingest smoke driver for tools/check.sh.
//
// Four modes, run as separate processes so a heap cap (ulimit -d, i.e.
// RLIMIT_DATA — see oocore_smoke.cpp for why not RLIMIT_AS) can be applied
// to the conversion legs but not to preparation:
//
//   ingest_smoke --prepare <dir> [n] [m]
//       Generates a Chung-Lu power-law graph, writes its text edge list
//       <dir>/ingest.txt and two UNCAPPED in-memory-regime references,
//       <dir>/ingest.ref.tlpc (ids verbatim) and
//       <dir>/ingest.ref-relabel.tlpc (ids relabelled), and prints a
//       suggested heap cap (KB) that is BELOW the raw canonical edge array
//       (m x 8 bytes) — the minimum any in-memory build must materialize.
//
//   ingest_smoke --convert <dir>
//       Streams <dir>/ingest.txt into <dir>/ingest.spill.tlpc through the
//       external-sort builder (budget from TLP_BUILD_BUDGET), ids verbatim.
//       Under the cap this must succeed, and check.sh byte-compares the
//       output against ingest.ref.tlpc.
//
//   ingest_smoke --convert-relabel <dir>
//       The same with relabelling on, into <dir>/ingest.spill-relabel.tlpc
//       (compared against ingest.ref-relabel.tlpc), so the relabel table
//       also runs under the cap.
//
//   ingest_smoke --control <dir>
//       The in-memory control: parses the same edge list into a fully
//       materialized heap Graph. Under the cap this must DIE with the
//       distinct exit code 3 (allocation failure) — proving the cap binds
//       and the spill path is what survived it.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <new>
#include <string>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"

namespace fs = std::filesystem;
using namespace tlp;

namespace {

constexpr std::uint64_t kSeed = 4099;

int prepare(const fs::path& dir, VertexId n, EdgeId m) {
  fs::create_directories(dir);
  // Pin the reference to the in-memory regime whatever the caller's
  // environment says.
#if defined(__unix__) || defined(__APPLE__)
  ::unsetenv("TLP_BUILD_BUDGET");
#endif
  std::cerr << "ingest: generating chung_lu(n=" << n << ", m=" << m << ")\n";
  const Graph g = gen::chung_lu_power_law(n, m, 2.1, kSeed);
  const fs::path text = dir / "ingest.txt";
  io::write_edge_list_file(g, text);
  std::cerr << "ingest: converting uncapped in-memory reference\n";
  io::convert_edge_list_to_csr(text, dir / "ingest.ref.tlpc",
                               /*relabel=*/false);
  io::convert_edge_list_to_csr(text, dir / "ingest.ref-relabel.tlpc",
                               /*relabel=*/true);

  // The cap must sit below the raw canonical edge array (the floor for any
  // in-memory build), with room for the process baseline plus the spill
  // path's bounded state (chunk budget, degree table, merge buffers).
  const std::uintmax_t raw_edge_bytes =
      static_cast<std::uintmax_t>(g.num_edges()) * sizeof(Edge);
  const std::uintmax_t baseline = 8u * 1024 * 1024;
  const std::uintmax_t cap_kb = (baseline + raw_edge_bytes / 4) / 1024;
  std::cout << "edge_list_bytes=" << fs::file_size(text) << "\n";
  std::cout << "raw_edge_bytes=" << raw_edge_bytes << "\n";
  std::cout << "cap_kb=" << cap_kb << "\n";
  return 0;
}

int convert(const fs::path& dir, bool relabel) {
  const BuildReport report = io::convert_edge_list_to_csr(
      dir / "ingest.txt",
      dir / (relabel ? "ingest.spill-relabel.tlpc" : "ingest.spill.tlpc"),
      relabel);
  std::cerr << "ingest: spill convert" << (relabel ? " (relabel)" : "")
            << " OK (" << report.kept_edges
            << " edges, " << report.spill_runs << " runs, builder peak "
            << report.build_peak_bytes / 1024 << "KB, relabel table peak "
            << report.relabel_peak_bytes / 1024 << "KB)\n";
  return 0;
}

int control(const fs::path& dir) {
  // Full in-memory pipeline: edge vector + materialized CSR on the heap.
#if defined(__unix__) || defined(__APPLE__)
  ::unsetenv("TLP_BUILD_BUDGET");  // force the in-memory regime
#endif
  const Graph g = io::read_edge_list_file(dir / "ingest.txt");
  if (g.num_edges() == 0) {
    std::cerr << "ingest: control parsed no edges — bad input\n";
    return 1;
  }
  std::cerr << "ingest: in-memory control built n=" << g.num_vertices()
            << " m=" << g.num_edges() << " (cap did not bind)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = []() {
    std::cerr << "usage: ingest_smoke --prepare <dir> [n] [m]\n"
                 "       ingest_smoke --convert <dir>\n"
                 "       ingest_smoke --convert-relabel <dir>\n"
                 "       ingest_smoke --control <dir>\n";
    return 2;
  };
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const fs::path dir = argv[2];
  try {
    if (mode == "--prepare") {
      const VertexId n =
          argc > 3 ? static_cast<VertexId>(std::stoull(argv[3])) : 200000;
      const EdgeId m =
          argc > 4 ? static_cast<EdgeId>(std::stoull(argv[4])) : 4000000;
      return prepare(dir, n, m);
    }
    if (mode == "--convert") return convert(dir, /*relabel=*/false);
    if (mode == "--convert-relabel") return convert(dir, /*relabel=*/true);
    if (mode == "--control") return control(dir);
    return usage();
  } catch (const std::bad_alloc&) {
    // Distinct exit code: the memory cap bit. The control leg in check.sh
    // requires exactly this outcome to prove the cap binds.
    std::cerr << "ingest: allocation failed under the memory cap\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "ingest: error: " << e.what() << "\n";
    return 1;
  }
}
