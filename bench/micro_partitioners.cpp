// Google-benchmark microbenchmarks: partitioner throughput scaling, the two
// refinement engines, and the hot substrate operations (CSR construction,
// common-neighbor counting by intersection and by the Stage-I scorer,
// frontier churn). Complements the table/figure reproductions with the
// paper's Section III.E complexity discussion (TLP is O(L^2 d^2) worst
// case; these curves show the practical near-linear behavior).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_common/datasets.hpp"
#include "core/frontier.hpp"
#include "core/multi_tlp.hpp"
#include "core/refine_rf.hpp"
#include "core/stage1_scorer.hpp"
#include "core/tlp.hpp"
#include "stream/window_tlp.hpp"
#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "metis/multilevel.hpp"
#include "partition/metrics.hpp"

namespace {

using namespace tlp;

Graph test_graph(std::int64_t edges) {
  // Power-law graph, the paper's regime; ~n = m/5.
  return gen::chung_lu_power_law(static_cast<VertexId>(edges / 5),
                                 static_cast<EdgeId>(edges), 2.1,
                                 /*seed=*/777);
}

PartitionConfig config10() {
  PartitionConfig config;
  config.num_partitions = 10;
  return config;
}

void BM_TlpPartition(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const TlpPartitioner tlp;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlp.partition(g, config10(), ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_TlpPartition)->Arg(10000)->Arg(40000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

/// Genealogy-shaped graph of about `edges` edges (the G9 stand-in: a
/// shallow forest plus a power-law overlay), its edge list shuffled and
/// reingested so vertex ids carry no generation order — the shape of the
/// sparse-outofcore perfbench input.
Graph shuffled_genealogy(std::int64_t edges) {
  const auto g9_edges = bench::paper_datasets().back().paper_edges;
  const Graph g0 = bench::make_dataset(
      "G9", static_cast<double>(edges) / static_cast<double>(g9_edges));
  std::vector<Edge> list(g0.edges().begin(), g0.edges().end());
  std::mt19937_64 rng(4);
  std::shuffle(list.begin(), list.end(), rng);
  GraphBuilder builder;
  for (const Edge& e : list) builder.add_edge(e.u, e.v);
  return builder.build();
}

/// More BM_TlpPartition rows, one per growth path: `tlp_r0` selects every
/// vertex in Stage II (no μs1 is ever scored), and `tlp` on the shuffled
/// genealogy graph spends most of its joins in Stage II, at p = 32.
void BM_TlpPartitionOf(benchmark::State& state, TlpOptions options,
                       bool genealogy) {
  const Graph g = genealogy ? shuffled_genealogy(state.range(0))
                            : test_graph(state.range(0));
  const TlpPartitioner tlp(options);
  PartitionConfig config;
  config.num_partitions = genealogy ? 32 : 10;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlp.partition(g, config, ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK_CAPTURE(BM_TlpPartitionOf, tlp_r0, make_tlp_r(0.0).options(),
                  false)
    ->Arg(160000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TlpPartitionOf, genealogy_shuffled, TlpOptions{}, true)
    ->Arg(210000)
    ->Unit(benchmark::kMillisecond);

void BM_MetisPartition(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const metis::MetisPartitioner metis;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  for (auto _ : state) {
    benchmark::DoNotOptimize(metis.partition(g, config10(), ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_MetisPartition)->Arg(10000)->Arg(40000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

void BM_HdrfPartition(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const baselines::HdrfPartitioner hdrf;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  for (auto _ : state) {
    benchmark::DoNotOptimize(hdrf.partition(g, config10(), ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_HdrfPartition)->Arg(10000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

void BM_DbhPartition(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const baselines::DbhPartitioner dbh;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  for (auto _ : state) {
    benchmark::DoNotOptimize(dbh.partition(g, config10(), ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_DbhPartition)->Arg(10000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

void BM_WindowTlpPartition(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const stream::WindowTlpPartitioner window;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.partition(g, config10(), ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_WindowTlpPartition)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);

void BM_MultiTlpPartition(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const MultiTlpPartitioner multi;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  for (auto _ : state) {
    benchmark::DoNotOptimize(multi.partition(g, config10(), ctx));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_MultiTlpPartition)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);

/// The greedy oracle (refine_replication) from a random partition.
void BM_RefinePass(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const baselines::RandomPartitioner random;
  for (auto _ : state) {
    state.PauseTiming();
    EdgePartition part = random.partition(g, config10());
    state.ResumeTiming();
    benchmark::DoNotOptimize(refine_replication(g, part));
  }
}
BENCHMARK(BM_RefinePass)->Arg(40000)->Unit(benchmark::kMillisecond);

/// The gain-heap engine from a `tlp` partition, at the registry's
/// tlp+refine settings (8 passes, escape budget 64, slack 1.05): the
/// pass-start reindex plus the escape walk. The `rebuild_share` and
/// `walk_share` counters are the reindex's and the walk's shares of the
/// engine's time. The 400k row's graph has a hub of degree >= 10k
/// (`max_degree`), where a move's rekey cost is felt most.
void BM_RefineGain(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  const EdgePartition grown = TlpPartitioner{}.partition(g, config10());
  RefineOptions options;
  options.max_passes = 8;
  options.escape_budget = 64;
  options.balance_slack = 1.05;
  RunContext ctx;  // shared across iterations: arena reuse from iter 2 on
  double rebuild_s = 0.0;
  double walk_s = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    EdgePartition part = grown;
    state.ResumeTiming();
    const RefineResult r = refine::refine_gain(g, part, options, ctx);
    rebuild_s += r.rebuild_s;
    walk_s += r.walk_s;
    benchmark::DoNotOptimize(r);
  }
  std::size_t max_degree = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
  const double engine_s = rebuild_s + walk_s;
  state.counters["rebuild_share"] = engine_s > 0.0 ? rebuild_s / engine_s : 0.0;
  state.counters["walk_share"] = engine_s > 0.0 ? walk_s / engine_s : 0.0;
  state.counters["max_degree"] = static_cast<double>(max_degree);
}
BENCHMARK(BM_RefineGain)->Arg(40000)->Arg(160000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);

void BM_CsrConstruction(benchmark::State& state) {
  const Graph g = test_graph(state.range(0));
  EdgeList edges(g.edges().begin(), g.edges().end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Graph::from_edges(g.num_vertices(), edges));
  }
}
BENCHMARK(BM_CsrConstruction)->Arg(10000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

/// Edge-sampled vertex pairs: real power-law adjacency lists, hub pairs
/// included, so the merge/gallop mix matches what the partitioners see.
std::vector<Edge> sampled_pairs(const Graph& g) {
  std::mt19937_64 rng(1234);
  std::uniform_int_distribution<EdgeId> pick(0, g.num_edges() - 1);
  std::vector<Edge> pairs(20000);
  for (Edge& e : pairs) e = g.edge(pick(rng));
  return pairs;
}

/// Graph::common_neighbor_count over the sampled pairs. Items/s is
/// intersections per second.
void BM_CommonNeighborCount(benchmark::State& state) {
  const Graph g = test_graph(100000);
  const std::vector<Edge> pairs = sampled_pairs(g);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const Edge& e : pairs) sum += g.common_neighbor_count(e.u, e.v);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_CommonNeighborCount)->Unit(benchmark::kMicrosecond);

/// The growth engines' Stage-I scorer over the same pairs, one join scope
/// per pair: set N(e.v)'s bits, probe along N(e.u), clear. Every probe
/// pays a full set and clear here, which a real join amortises over all of
/// the candidates it scores. Items/s is terms per second.
void BM_Stage1Scorer(benchmark::State& state) {
  const Graph g = test_graph(100000);
  const std::vector<Edge> pairs = sampled_pairs(g);
  ScratchArena arena;
  // common(u) never reads the assignment words, so none are passed.
  Stage1Scorer scorer(g, arena, {});
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const Edge& e : pairs) {
      Stage1Scorer::Join scores(scorer, e.v);
      sum += scores.common(e.u);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_Stage1Scorer)->Unit(benchmark::kMicrosecond);


void BM_ReplicationFactor(benchmark::State& state) {
  const Graph g = test_graph(160000);
  const EdgePartition part =
      baselines::RandomPartitioner{}.partition(g, config10());
  for (auto _ : state) {
    benchmark::DoNotOptimize(replication_factor(g, part));
  }
}
BENCHMARK(BM_ReplicationFactor)->Unit(benchmark::kMillisecond);

void BM_FrontierChurn(benchmark::State& state) {
  // Insert/update/select cycle representative of one TLP growth step.
  for (auto _ : state) {
    Frontier f;
    for (VertexId v = 0; v < 1000; ++v) {
      f.add_connection(v, 8, 0.001 * v);
    }
    for (VertexId v = 0; v < 1000; v += 2) {
      f.add_connection(v, 8, 0.5);
    }
    benchmark::DoNotOptimize(f.select_stage1());
    benchmark::DoNotOptimize(f.select_stage2(100, 300));
  }
}
BENCHMARK(BM_FrontierChurn);

}  // namespace
