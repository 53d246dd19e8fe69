#include "metis/multilevel.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "baselines/vertex_to_edge.hpp"
#include "metis/coarsen.hpp"
#include "metis/initial.hpp"
#include "metis/refine.hpp"

namespace tlp::metis {
namespace {

/// Optional phase timer: active only when a context was supplied.
class PhaseTimer {
 public:
  PhaseTimer(RunContext* ctx, const char* name) {
    if (ctx != nullptr) timer_.emplace(ctx->telemetry().time(name));
  }
  void stop() {
    if (timer_.has_value()) timer_->stop();
  }

 private:
  std::optional<Telemetry::ScopedTimer> timer_;
};

}  // namespace

std::vector<PartitionId> MetisPartitioner::vertex_partition(
    const Graph& g, const PartitionConfig& config, RunContext* ctx) const {
  const PartitionId k = config.num_partitions;
  if (k == 0) {
    throw std::invalid_argument("MetisPartitioner: num_partitions must be >= 1");
  }
  if (g.num_vertices() == 0) return {};
  if (k == 1) return std::vector<PartitionId>(g.num_vertices(), 0);

  // --- Coarsening ---------------------------------------------------------
  PhaseTimer coarsen_timer(ctx, "coarsen_s");
  std::vector<CoarseLevel> levels;
  WGraph current = WGraph::from_graph(g);
  const VertexId stop_at =
      std::max<VertexId>(options_.coarsen_until, 4 * k);
  std::uint64_t level_seed = config.seed;
  while (current.num_vertices() > stop_at) {
    if (ctx != nullptr) ctx->check_cancelled();
    CoarseLevel level = coarsen_hem(current, level_seed++);
    const double shrink = static_cast<double>(level.graph.num_vertices()) /
                          static_cast<double>(current.num_vertices());
    if (shrink > options_.min_shrink) break;  // matching stalled (star-like)
    current = level.graph;  // keep a copy at this level for projection
    levels.push_back(std::move(level));
  }
  coarsen_timer.stop();
  if (ctx != nullptr) {
    ctx->telemetry().add("coarsen_levels", static_cast<double>(levels.size()));
  }

  // --- Initial partitioning on the coarsest graph --------------------------
  PhaseTimer initial_timer(ctx, "initial_s");
  std::vector<PartitionId> parts =
      recursive_bisection(current, k, config.seed ^ 0xabcdef12345678ULL);
  kway_refine(current, parts, k, options_.imbalance, options_.refine_passes,
              config.seed + 17, ctx);
  initial_timer.stop();

  // --- Uncoarsening + refinement ------------------------------------------
  PhaseTimer refine_timer(ctx, "refine_s");
  WGraph fine = WGraph::from_graph(g);
  for (std::size_t i = levels.size(); i-- > 0;) {
    // Project coarse labels to the finer level.
    const std::vector<VertexId>& map = levels[i].fine_to_coarse;
    std::vector<PartitionId> fine_parts(map.size());
    for (VertexId v = 0; v < map.size(); ++v) fine_parts[v] = parts[map[v]];
    parts = std::move(fine_parts);

    // Refine on the finer graph: level i's *input* graph, which is the
    // previous level's output (or the original graph for i == 0).
    const WGraph& graph_here = (i == 0) ? fine : levels[i - 1].graph;
    kway_refine(graph_here, parts, k, options_.imbalance,
                options_.refine_passes, config.seed + 31 + i, ctx);
  }
  if (levels.empty()) {
    // Graph was already tiny; parts is over `current` == original order.
    kway_refine(fine, parts, k, options_.imbalance, options_.refine_passes,
                config.seed + 31, ctx);
  }
  refine_timer.stop();
  return parts;
}

EdgePartition MetisPartitioner::do_partition(const Graph& g,
                                             const PartitionConfig& config,
                                             RunContext& ctx) const {
  ctx.telemetry().add("edges_assigned", static_cast<double>(g.num_edges()));
  return baselines::derive_edge_partition(g, vertex_partition(g, config, &ctx),
                                          config.num_partitions);
}

}  // namespace tlp::metis
