// Complexity experiment (paper §III.E): runtime and working-set scaling.
// The paper gives TLP O(L^2 d^2) worst-case time and O(Ld) space (one
// partition + frontier); this bench measures both on a family of DCSBM
// graphs of growing size and prints time plus peak frontier/members —
// showing the practical near-linear behavior and the memory advantage over
// METIS's O(n) global view.
// A second sweep measures the parallel multi-partition growth
// (core/multi_tlp.cpp): wall-clock per worker-thread count on the largest
// DCSBM, with a bit-identity check against the 1-thread run and the
// scheduler's imbalance telemetry (docs/THREADING.md), written to
// BENCH_scaling.json. Override the counts with --threads=1,2,4 or the
// TLP_BENCH_THREADS environment knob. See docs/BENCHMARKS.md for the JSON
// schema.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common/options.hpp"
#include "bench_common/table.hpp"
#include "core/multi_tlp.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "metis/multilevel.hpp"
#include "partition/metrics.hpp"

namespace {

std::vector<std::size_t> thread_counts_from(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // Reuse the env-knob parser: same syntax, same validation.
      setenv("TLP_BENCH_THREADS", argv[i] + 10, 1);
    }
  }
  return tlp::bench::bench_thread_counts();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tlp;
  using namespace tlp::bench;

  const PartitionId p = 10;
  std::cout << "== Scaling: TLP vs METIS runtime and TLP working set (p = "
            << p << ", DCSBM gamma 2.2) ==\n\n";

  Table table({"|V|", "|E|", "TLP s", "METIS s", "TLP RF", "METIS RF",
               "peak frontier", "peak members", "working set / n"});
  RunContext ctx;  // shared across sizes: scratch buffers are reused
  for (const EdgeId m : {EdgeId{25000}, EdgeId{50000}, EdgeId{100000},
                         EdgeId{200000}, EdgeId{400000}}) {
    const auto n = static_cast<VertexId>(m / 7);
    const Graph g =
        gen::dcsbm(n, m, 2.2, std::max<VertexId>(2, n / 150), 0.6, 99);
    PartitionConfig config;
    config.num_partitions = p;

    const TlpPartitioner tlp;
    ctx.telemetry().clear();  // fresh gauges per size, same arena
    const auto t0 = std::chrono::steady_clock::now();
    const EdgePartition tlp_part = tlp.partition(g, config, ctx);
    const auto t1 = std::chrono::steady_clock::now();
    const metis::MetisPartitioner metis;
    const EdgePartition metis_part = metis.partition(g, config);
    const auto t2 = std::chrono::steady_clock::now();

    const auto peak_frontier =
        static_cast<std::size_t>(ctx.telemetry().counter("peak_frontier"));
    const auto peak_members =
        static_cast<std::size_t>(ctx.telemetry().counter("peak_members"));
    const double working_set =
        static_cast<double>(peak_frontier + peak_members) /
        static_cast<double>(g.num_vertices());
    table.add_row(
        {std::to_string(g.num_vertices()), std::to_string(g.num_edges()),
         fmt_double(std::chrono::duration<double>(t1 - t0).count(), 2),
         fmt_double(std::chrono::duration<double>(t2 - t1).count(), 2),
         fmt_double(replication_factor(g, tlp_part), 3),
         fmt_double(replication_factor(g, metis_part), 3),
         std::to_string(peak_frontier), std::to_string(peak_members),
         fmt_double(working_set, 3)});
    std::cout.flush();
  }
  table.print(std::cout);
  std::cout << "\nShape check: TLP time grows near-linearly in |E|; its "
               "working set (frontier + one partition) stays a small "
               "fraction of n, the paper's O(Ld) space claim.\n";

  // Thread scaling of parallel multi-partition growth on the largest size.
  // Every worker count must produce the byte-identical assignment — the
  // sweep verifies that before reporting its time.
  const std::vector<std::size_t> thread_counts = thread_counts_from(argc, argv);
  std::cout << "\n== Thread scaling: multi_tlp super-steps (largest size, p = "
            << p << ") ==\n\n";
  const EdgeId m_large = 400000;
  const auto n_large = static_cast<VertexId>(m_large / 7);
  const Graph g_large = gen::dcsbm(
      n_large, m_large, 2.2, std::max<VertexId>(2, n_large / 150), 0.6, 99);
  PartitionConfig config;
  config.num_partitions = p;

  Table scaling({"threads", "seconds", "speedup", "RF", "imbalance",
                 "identical"});
  std::vector<PartitionId> baseline;
  double baseline_seconds = 0.0;
  std::string json = "{\"bench\":\"scaling\",\"graph\":{\"n\":" +
                     std::to_string(g_large.num_vertices()) +
                     ",\"m\":" + std::to_string(g_large.num_edges()) +
                     "},\"p\":" + std::to_string(p) + ",\"sweep\":[";
  bool first = true;
  // Every row must reproduce the first row's bytes.
  for (const std::size_t threads : thread_counts) {
    MultiTlpOptions options;
    options.num_threads = threads;
    const MultiTlpPartitioner multi{options};
    RunContext run_ctx;
    const auto t0 = std::chrono::steady_clock::now();
    const EdgePartition part = multi.partition(g_large, config, run_ctx);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (baseline.empty()) {
      baseline = part.raw();
      baseline_seconds = seconds;
    }
    const bool identical = part.raw() == baseline;
    const double speedup = seconds > 0.0 ? baseline_seconds / seconds : 0.0;
    const double imbalance = run_ctx.telemetry().counter("imbalance");
    scaling.add_row({std::to_string(threads), fmt_double(seconds, 3),
                     fmt_double(speedup, 2),
                     fmt_double(replication_factor(g_large, part), 3),
                     fmt_double(imbalance, 3), identical ? "yes" : "NO"});
    if (!first) json += ',';
    first = false;
    json += "{\"threads\":" + std::to_string(threads) +
            ",\"seconds\":" + fmt_double(seconds, 6) +
            ",\"speedup\":" + fmt_double(speedup, 4) +
            ",\"imbalance\":" + fmt_double(imbalance, 4) +
            ",\"identical\":" + (identical ? "true" : "false") + "}";
    if (!identical) {
      std::cerr << "FATAL: " << threads
                << "-thread result differs from 1-thread baseline\n";
      return 1;
    }
    std::cout.flush();
  }
  json += "]}";
  scaling.print(std::cout);
  std::ofstream("BENCH_scaling.json") << json << '\n';
  std::cout << "\nwrote BENCH_scaling.json (hardware note: speedup and "
               "imbalance are meaningful only on multi-core hosts).\n";
  return 0;
}
