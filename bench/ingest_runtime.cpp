// Bounded-memory ingest ablation: what does the external-sort spill path
// cost, and does the memory budget actually bound the build?
//
// One budget sweep on a fixed Chung-Lu power-law graph (TLP_BENCH_SCALE
// scales): the same edge stream through GraphBuilder at budgets from
// unbounded down to ~1/64 of the raw edge list, each run forked into a
// child process so wait4() reports a PER-RUN peak RSS (ru_maxrss is a
// process-lifetime high-water mark; in-process it would only ever reflect
// the largest run). Every budgeted .tlpc must be byte-identical to the
// unbounded reference before its numbers are reported.
//
// Results go to BENCH_ingest.json (schema in docs/BENCHMARKS.md).
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#define TLP_HAS_FORK_RUSAGE 1
#else
#define TLP_HAS_FORK_RUSAGE 0
#endif

#include "bench_common/options.hpp"
#include "bench_common/table.hpp"
#include "gen/generators.hpp"
#include "graph/builder.hpp"

namespace {

using namespace tlp;

struct BuildRun {
  double seconds = 0.0;
  std::size_t spill_runs = 0;
  std::size_t build_peak_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< per-run child ru_maxrss (0 if n/a)
  bool ok = false;
};

/// Streams `g`'s edges through a budgeted builder into `out`. Runs in a
/// forked child where supported so the returned peak RSS belongs to THIS
/// build alone; falls back to in-process (peak_rss_bytes = 0) elsewhere.
BuildRun run_build(const Graph& g, std::size_t budget,
                   const std::filesystem::path& out) {
  const auto body = [&](BuildRun& r) {
    const auto t0 = std::chrono::steady_clock::now();
    GraphBuilder builder(/*relabel=*/false);
    if (budget != 0) builder.set_memory_budget(budget);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      builder.add_edge(edge.u, edge.v);
    }
    BuildReport report;
    builder.build_to_file(out, &report);
    r.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    r.spill_runs = report.spill_runs;
    r.build_peak_bytes = report.build_peak_bytes;
    r.ok = true;
  };
#if TLP_HAS_FORK_RUSAGE
  // Child writes its BuildRun through a pipe; wait4 hands back its rusage.
  int fds[2];
  if (pipe(fds) == 0) {
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      BuildRun r;
      try {
        body(r);
      } catch (...) {
        r.ok = false;
      }
      (void)!write(fds[1], &r, sizeof r);
      close(fds[1]);
      _exit(r.ok ? 0 : 1);
    }
    if (pid > 0) {
      close(fds[1]);
      BuildRun r;
      const bool got = read(fds[0], &r, sizeof r) == sizeof r;
      close(fds[0]);
      int status = 0;
      rusage child{};
      wait4(pid, &status, 0, &child);
      if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return BuildRun{};
      }
#if defined(__APPLE__)
      r.peak_rss_bytes = static_cast<std::uint64_t>(child.ru_maxrss);
#else
      r.peak_rss_bytes = static_cast<std::uint64_t>(child.ru_maxrss) * 1024;
#endif
      return r;
    }
    close(fds[0]);
    close(fds[1]);
  }
#endif
  BuildRun r;
  body(r);
  return r;
}

bool same_bytes(const std::filesystem::path& a,
                const std::filesystem::path& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  std::string ba((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string bb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  return !ba.empty() && ba == bb;
}

}  // namespace

int main() {
  using namespace tlp::bench;
  namespace fs = std::filesystem;

  const double scale = bench_scale();
  const auto n = static_cast<VertexId>(60000 * scale);
  const auto m = static_cast<EdgeId>(600000 * scale);
  std::cout << "== Bounded-memory ingest: budget sweep (chung_lu n=" << n
            << " m=" << m << ") ==\n\n";

  const Graph reference = gen::chung_lu_power_law(n, m, 2.1, 77);
  const std::size_t raw_edge_bytes =
      static_cast<std::size_t>(reference.num_edges()) * sizeof(Edge);
  const fs::path dir = fs::temp_directory_path();
  const auto tag = std::to_string(::getpid());
  const fs::path ref_csr = dir / ("tlp_ingest_ref_" + tag + ".tlpc");
  const fs::path out_csr = dir / ("tlp_ingest_out_" + tag + ".tlpc");

  // ---- Memory budget sweep ---------------------------------------------
  // Unbounded first (it is also the byte-identity reference), then halving
  // down to ~raw/64 — the regime where the resident chunk is far smaller
  // than the input and the merge fan-in does the work.
  std::vector<std::size_t> budgets = {0, raw_edge_bytes / 4,
                                      raw_edge_bytes / 16,
                                      raw_edge_bytes / 64};
  Table table({"budget", "build s", "spill runs", "builder peak MB",
               "child peak RSS MB", "identical"});
  std::string json =
      "{\"bench\":\"ingest\",\"graph\":{\"n\":" + std::to_string(n) +
      ",\"m\":" + std::to_string(m) +
      "},\"raw_edge_bytes\":" + std::to_string(raw_edge_bytes) +
      ",\"budget_sweep\":[";
  bool all_ok = true;
  bool first = true;
  for (const std::size_t budget : budgets) {
    const fs::path& out = budget == 0 ? ref_csr : out_csr;
    const BuildRun r = run_build(reference, budget, out);
    const bool identical = budget == 0 ? r.ok : same_bytes(ref_csr, out);
    all_ok = all_ok && r.ok && identical;
    const auto mb = [](std::uint64_t bytes) {
      return fmt_double(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
    };
    table.add_row(
        {budget == 0 ? "unbounded" : std::to_string(budget),
         fmt_double(r.seconds, 3), std::to_string(r.spill_runs),
         mb(r.build_peak_bytes),
         r.peak_rss_bytes == 0 ? "n/a" : mb(r.peak_rss_bytes),
         identical ? "yes" : "NO"});
    if (!first) json += ',';
    first = false;
    json += "{\"budget_bytes\":" +
            (budget == 0 ? std::string("null") : std::to_string(budget)) +
            ",\"build_seconds\":" + fmt_double(r.seconds, 6) +
            ",\"spill_runs\":" + std::to_string(r.spill_runs) +
            ",\"build_peak_bytes\":" + std::to_string(r.build_peak_bytes) +
            ",\"peak_rss_bytes\":" + std::to_string(r.peak_rss_bytes) +
            ",\"identical\":" + (identical ? "true" : "false") + "}";
    std::cout.flush();
  }
  json += "]}";
  table.print(std::cout);
  fs::remove(out_csr);
  std::ofstream("BENCH_ingest.json") << json << '\n';
  std::cout << "\nwrote BENCH_ingest.json (raw edge list: "
            << raw_edge_bytes / 1024
            << "KB; a budgeted child's peak RSS should track its budget "
               "plus the O(1) CSR writer staging, not the input size).\n";
  fs::remove(ref_csr);
  if (!all_ok) {
    std::cerr << "FATAL: a budgeted build diverged\n";
    return 1;
  }
  return 0;
}
