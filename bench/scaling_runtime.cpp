// Complexity experiment (paper §III.E): runtime and working-set scaling.
// The paper gives TLP O(L^2 d^2) worst-case time and O(Ld) space (one
// partition + frontier); this bench measures both on a family of DCSBM
// graphs of growing size and prints time plus peak frontier/members —
// showing the practical near-linear behavior and the memory advantage over
// METIS's O(n) global view.
#include <chrono>
#include <iostream>
#include <string>

#include "bench_common/table.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "metis/multilevel.hpp"
#include "partition/metrics.hpp"

int main() {
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
  return 0;
}
