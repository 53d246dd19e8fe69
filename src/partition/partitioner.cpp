#include "partition/partitioner.hpp"

namespace tlp {

EdgePartition Partitioner::partition(const Graph& g,
                                     const PartitionConfig& config) const {
  RunContext ctx;
  return partition(g, config, ctx);
}

EdgePartition Partitioner::partition(const Graph& g,
                                     const PartitionConfig& config,
                                     RunContext& ctx) const {
  config.validate();
  ctx.begin_run(name());
  // Leaves the run on every exit path, a cancellation throw included.
  struct RunScope {
    RunContext& ctx;
    ~RunScope() { ctx.end_run(); }
  } scope{ctx};
  ctx.check_cancelled();
  // A composite's base partitioners run nested inside its run: the outer
  // call alone counts the run, times it and releases the graph's pages.
  if (!ctx.outermost_run()) return do_partition(g, config, ctx);
  // Storage-tier gauges: which tier the graph actually arrived on, and its
  // resident/mapped split. set() (not add) — they describe the input, and
  // repeat runs against the same graph must not accumulate.
  const MemoryFootprint fp = g.memory_footprint();
  ctx.telemetry().set("storage_tier", static_cast<double>(g.storage_tier()));
  ctx.telemetry().set("graph_resident_bytes",
                      static_cast<double>(fp.resident_bytes));
  ctx.telemetry().set("graph_mapped_bytes",
                      static_cast<double>(fp.mapped_bytes));
  EdgePartition result = [&] {
    const auto timer = ctx.telemetry().time("total_s");
    return do_partition(g, config, ctx);
  }();
  // Partition committed: the mapped adjacency spans are cold now — hand
  // them back to the kernel so a budgeted pipeline's next stage starts
  // from a clean page slate.
  g.release_cold_pages();
  return result;
}

}  // namespace tlp
