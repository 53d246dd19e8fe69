// Incrementally growing graph: the paper's introduction motivates local
// partitioning with graphs that "increase incrementally". This example
// seeds a community graph, partitions it once with TLP, then streams a 50%
// growth wave through the IncrementalAssigner — tracking the live
// replication factor as the graph grows, and comparing the end state
// against re-partitioning from scratch.
//
//   $ ./incremental_growth [seed_edges] [p]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <random>

#include "bench_common/table.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "partition/metrics.hpp"
#include "stream/incremental.hpp"

int main(int argc, char** argv) {
  using namespace tlp;

  const EdgeId seed_edges =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 40000;
  const PartitionId p =
      argc > 2 ? static_cast<PartitionId>(std::strtoul(argv[2], nullptr, 10)) : 8;
  const auto n = static_cast<VertexId>(seed_edges / 8);
  const VertexId blocks = std::max<VertexId>(2, n / 100);

  const Graph base = gen::sbm(n, seed_edges, blocks, 0.85, 17);
  std::cout << "seed graph: " << base.summary() << ", p = " << p << "\n\n";

  PartitionConfig config;
  config.num_partitions = p;
  const TlpPartitioner tlp;
  const EdgePartition initial = tlp.partition(base, config);
  stream::IncrementalAssigner assigner(base, initial);
  std::cout << "initial TLP RF: " << assigner.current_rf() << "\n\n";

  // Growth wave: 50% more edges, mostly intra-community, plus brand-new
  // vertices attaching to existing communities.
  std::mt19937_64 rng(23);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  const EdgeId wave = seed_edges / 2;

  GraphBuilder all_edges(/*relabel=*/false);
  for (const Edge& e : base.edges()) all_edges.add_edge(e.u, e.v);

  bench::Table table({"arrived", "RF (live)", "max load / avg"});
  VertexId next_new_vertex = n;
  for (EdgeId i = 0; i < wave; ++i) {
    Edge e;
    const auto roll = rng() % 100;
    if (roll < 70) {
      // Intra-community arrival (same block mod `blocks`).
      const VertexId u = pick(rng);
      e = Edge{u, static_cast<VertexId>(
                      (u + blocks * (1 + rng() % (n / blocks - 1))) % n)};
    } else if (roll < 90) {
      e = Edge{pick(rng), pick(rng)};  // random
    } else {
      e = Edge{pick(rng), next_new_vertex++};  // newcomer joins a community
    }
    if (e.is_self_loop()) continue;
    (void)assigner.assign(e);
    all_edges.add_edge(e.u, e.v);

    if ((i + 1) % (wave / 5) == 0) {
      const auto& loads = assigner.loads();
      const EdgeId max_load = *std::max_element(loads.begin(), loads.end());
      const double avg = static_cast<double>(assigner.total_edges()) /
                         static_cast<double>(loads.size());
      table.add_row({std::to_string(i + 1),
                     bench::fmt_double(assigner.current_rf(), 3),
                     bench::fmt_double(static_cast<double>(max_load) / avg, 3)});
    }
  }
  table.print(std::cout);

  // Compare against re-partitioning the grown graph from scratch.
  const Graph grown = all_edges.build();
  const EdgePartition fresh = tlp.partition(grown, config);
  std::cout << "\nafter growth:  live incremental RF = "
            << assigner.current_rf()
            << "\nre-partitioned from scratch RF     = "
            << replication_factor(grown, fresh)
            << "\n(the gap is the price of never moving an edge)\n";
  return 0;
}
