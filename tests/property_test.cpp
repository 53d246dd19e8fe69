// Parameterized property sweeps: every algorithm x graph family x p must
// produce a complete, in-range partition with RF >= 1, deterministically.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "bench_common/runner.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"
#include "partition/validator.hpp"

namespace tlp {
namespace {

struct GraphCase {
  std::string name;
  Graph (*make)();
};

const GraphCase kGraphs[] = {
    {"path", [] { return gen::path_graph(64); }},
    {"cycle", [] { return gen::cycle_graph(64); }},
    {"star", [] { return gen::star_graph(64); }},
    {"grid", [] { return gen::grid_graph(8, 8); }},
    {"complete", [] { return gen::complete_graph(16); }},
    {"caveman", [] { return gen::caveman_graph(6, 6); }},
    {"erdos_renyi", [] { return gen::erdos_renyi(200, 900, 17); }},
    {"barabasi", [] { return gen::barabasi_albert(200, 3, 18); }},
    {"chung_lu", [] { return gen::chung_lu_power_law(300, 1500, 2.1, 19); }},
    {"sbm", [] { return gen::sbm(240, 1400, 8, 0.85, 20); }},
    {"watts", [] { return gen::watts_strogatz(150, 6, 0.2, 21); }},
    {"two_components",
     [] {
       GraphBuilder b(false);
       // Two disjoint cliques of 12.
       for (VertexId u = 0; u < 12; ++u)
         for (VertexId v = u + 1; v < 12; ++v) {
           b.add_edge(u, v);
           b.add_edge(u + 12, v + 12);
         }
       return b.build();
     }},
};

using Param = std::tuple<std::string, int, int>;  // algorithm, graph idx, p

class PartitionerProperties : public ::testing::TestWithParam<Param> {};

TEST_P(PartitionerProperties, CompleteInRangeAndSane) {
  const auto& [algo, graph_idx, p] = GetParam();
  bench::register_builtin_partitioners();
  const Graph g = kGraphs[graph_idx].make();
  PartitionConfig config;
  config.num_partitions = static_cast<PartitionId>(p);
  config.seed = 1234;

  const PartitionerPtr partitioner = make_partitioner(algo);
  const EdgePartition part = partitioner->partition(g, config);

  const ValidationResult r = validate(g, part, config);
  EXPECT_TRUE(r.ok()) << algo << " on " << kGraphs[graph_idx].name;

  const double rf = replication_factor(g, part);
  EXPECT_GE(rf, 1.0 - 1e-12);
  EXPECT_LE(rf, static_cast<double>(p) + 1e-9);  // can't exceed p replicas

  // Edge counts sum to m.
  EdgeId total = 0;
  for (const EdgeId c : part.edge_counts()) total += c;
  EXPECT_EQ(total, g.num_edges());
}

TEST_P(PartitionerProperties, DeterministicForFixedSeed) {
  const auto& [algo, graph_idx, p] = GetParam();
  bench::register_builtin_partitioners();
  const Graph g = kGraphs[graph_idx].make();
  PartitionConfig config;
  config.num_partitions = static_cast<PartitionId>(p);
  config.seed = 99;
  const EdgePartition a = make_partitioner(algo)->partition(g, config);
  const EdgePartition b = make_partitioner(algo)->partition(g, config);
  EXPECT_EQ(a.raw(), b.raw());
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [algo, graph_idx, p] = info.param;
  return algo + "_" + kGraphs[graph_idx].name + "_p" + std::to_string(p);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PartitionerProperties,
    ::testing::Combine(
        ::testing::Values("tlp", "metis", "ldg", "dbh", "random", "grid",
                          "greedy", "hdrf", "ne", "fennel", "2ps",
                          "window_tlp", "multi_tlp"),
        ::testing::Range(0, static_cast<int>(std::size(kGraphs))),
        ::testing::Values(2, 5, 10)),
    param_name);

// TLP_R sweep: every R in {0, 0.1, ..., 1.0} must be valid.
class TlpRatioSweep : public ::testing::TestWithParam<int> {};

TEST_P(TlpRatioSweep, ValidAcrossRatios) {
  const double ratio = GetParam() / 10.0;
  const Graph g = gen::chung_lu_power_law(400, 2000, 2.1, 23);
  PartitionConfig config;
  config.num_partitions = 6;
  const TlpPartitioner tlp = make_tlp_r(ratio);
  const EdgePartition part = tlp.partition(g, config);
  EXPECT_TRUE(validate(g, part, config).ok()) << "R=" << ratio;
  EXPECT_GE(replication_factor(g, part), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Ratios, TlpRatioSweep, ::testing::Range(0, 11));

}  // namespace
}  // namespace tlp
