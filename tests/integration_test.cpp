// End-to-end integration: generator -> disk -> reader -> partitioner ->
// serializer -> reload -> metrics, in one flow — the pipeline a downstream
// user actually wires together.
#include <gtest/gtest.h>

#include <filesystem>

#include "bench_common/runner.hpp"
#include "core/refine_rf.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/io.hpp"
#include "partition/metrics.hpp"
#include "partition/partition_io.hpp"
#include "partition/registry.hpp"
#include "partition/validator.hpp"

namespace tlp {
namespace {

TEST(Integration, FullPipelineRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto graph_path = dir / "tlp_integration_graph.txt";
  const auto parts_path = dir / "tlp_integration.partsb";

  // 1. Generate and persist a community graph: power-law degrees, 20
  // blocks holding ~80% of the edges.
  const Graph generated = gen::dcsbm(2000, 14000, 2.1, 20, 0.8, 99);
  io::write_edge_list_file(generated, graph_path);

  // 2. Reload from disk (no relabeling: ids are already dense).
  const Graph g = io::read_edge_list_file(graph_path, nullptr,
                                          /*relabel=*/false);
  ASSERT_EQ(g.num_edges(), generated.num_edges());

  // 3. Partition via the registry, refine, validate.
  bench::register_builtin_partitioners();
  PartitionConfig config;
  config.num_partitions = 8;
  EdgePartition partition = make_partitioner("tlp")->partition(g, config);
  validate_or_throw(g, partition, config);
  const double rf_before = replication_factor(g, partition);
  (void)refine_replication(g, partition);
  validate_or_throw(g, partition, config);
  EXPECT_LE(replication_factor(g, partition), rf_before);

  // 4. Serialize, reload, confirm bit-identical assignment.
  io::write_partition_binary_file(partition, parts_path);
  const EdgePartition reloaded = io::read_partition_binary_file(parts_path);
  ASSERT_EQ(reloaded.raw(), partition.raw());

  // 5. Communication is better than a hash placement would be: a GAS
  // superstep sends 2 * (RF - 1) * |V'| messages, so lower RF is less
  // traffic.
  const EdgePartition hash = make_partitioner("random")->partition(g, config);
  EXPECT_LT(replication_factor(g, reloaded), replication_factor(g, hash));

  std::filesystem::remove(graph_path);
  std::filesystem::remove(parts_path);
}

TEST(Integration, EveryRegisteredAlgorithmSurvivesThePipeline) {
  bench::register_builtin_partitioners();
  const Graph g = gen::dcsbm(1500, 12000, 2.1, 12, 0.6, 7);
  PartitionConfig config;
  config.num_partitions = 6;
  for (const std::string& name : registered_partitioners()) {
    const bench::RunResult r =
        bench::run_partitioner(*make_partitioner(name), g, config);
    EXPECT_TRUE(r.valid) << name;
    EXPECT_GE(r.rf, 1.0) << name;
    EXPECT_LE(r.rf, 6.0) << name;
    // Everything must beat the theoretical worst case p by a wide margin on
    // a community graph... except nothing should even be close.
    EXPECT_LT(r.rf, 5.5) << name;
  }
}

}  // namespace
}  // namespace tlp
