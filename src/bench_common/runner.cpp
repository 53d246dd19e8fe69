#include "bench_common/runner.hpp"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "baselines/baselines.hpp"
#include "core/multi_tlp.hpp"
#include "core/refine_rf.hpp"
#include "core/tlp.hpp"
#include "metis/multilevel.hpp"
#include "partition/registry.hpp"
#include "stream/window_tlp.hpp"

namespace tlp::bench {
namespace {

void append_json_number(std::string& out, double v) {
  char buf[40];
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

void append_json_map(std::string& out,
                     const std::map<std::string, double>& values) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;  // schema keys are plain identifiers; no escaping needed
    out += "\":";
    append_json_number(out, value);
  }
  out += '}';
}

bool telemetry_lines_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("TLP_BENCH_TELEMETRY");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return enabled;
}

/// The registry's headline refinement configuration: refine BOTH TLP
/// growth variants (single-round `tlp` and multi-round `multi_tlp`) with
/// the gain-heap engine and keep the lower-RF result. Refinement never
/// worsens RF (rollback-to-best), so the portfolio is <= either base by
/// construction — dense graphs where sequential growth wins (G1) and
/// power-law graphs where concurrent growth wins both land on their
/// better leg. Ties keep the multi_tlp leg. docs/REFINEMENT.md records
/// the choice.
class TlpRefinePortfolio final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "tlp+refine"; }

 protected:
  [[nodiscard]] EdgePartition do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const override {
    RefineOptions options;
    options.max_passes = 8;
    options.escape_budget = 64;
    options.balance_slack = 1.05;
    const RefinedPartitioner multi(std::make_unique<MultiTlpPartitioner>(),
                                   options);
    const RefinedPartitioner single(std::make_unique<TlpPartitioner>(),
                                    options);
    EdgePartition best = multi.partition(g, config, ctx);
    EdgePartition challenger = single.partition(g, config, ctx);
    if (replication_factor(g, challenger) <
        replication_factor(g, best) - 1e-12) {
      best = std::move(challenger);
    }
    return best;
  }
};

}  // namespace

std::string RunResult::telemetry_json() const {
  std::string out = "{\"algorithm\":\"";
  out += algorithm;
  out += "\",\"rf\":";
  append_json_number(out, rf);
  out += ",\"balance\":";
  append_json_number(out, balance);
  out += ",\"seconds\":";
  append_json_number(out, seconds);
  out += ",\"valid\":";
  out += valid ? "true" : "false";
  out += ",\"threads\":";
  append_json_number(out, static_cast<double>(threads));
  out += ",\"arena_hits\":";
  append_json_number(out, static_cast<double>(arena_hits));
  out += ",\"arena_misses\":";
  append_json_number(out, static_cast<double>(arena_misses));
  out += ",\"counters\":";
  append_json_map(out, counters);
  out += ",\"timers\":";
  append_json_map(out, timers);
  out += '}';
  return out;
}

RunResult run_partitioner(const Partitioner& partitioner, const Graph& g,
                          const PartitionConfig& config) {
  RunContext ctx;
  return run_partitioner(partitioner, g, config, ctx);
}

RunResult run_partitioner(const Partitioner& partitioner, const Graph& g,
                          const PartitionConfig& config, RunContext& ctx) {
  RunResult result;
  result.algorithm = partitioner.name();

  // Snapshot the shared context so the result reports only this run's
  // deltas (the context may have served earlier repetitions).
  const std::map<std::string, double, std::less<>> counters_before =
      ctx.telemetry().counters();
  const std::map<std::string, double, std::less<>> timers_before =
      ctx.telemetry().timers();
  const std::uint64_t hits_before = ctx.arena().hits();
  const std::uint64_t misses_before = ctx.arena().misses();

  const auto start = std::chrono::steady_clock::now();
  const EdgePartition partition = partitioner.partition(g, config, ctx);
  const auto stop = std::chrono::steady_clock::now();

  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.rf = replication_factor(g, partition);
  result.balance = balance_factor(partition);
  result.valid = validate(g, partition, config).ok();
  result.arena_hits = ctx.arena().hits() - hits_before;
  result.arena_misses = ctx.arena().misses() - misses_before;
  const double threads = ctx.telemetry().counter("threads");
  result.threads = threads > 0.0 ? static_cast<int>(threads) : 1;
  // Keys another algorithm wrote earlier on this shared context but this
  // run left untouched are dropped, so a run never reports stale values.
  for (const auto& [key, value] : ctx.telemetry().counters()) {
    const auto it = counters_before.find(key);
    const double before = it == counters_before.end() ? 0.0 : it->second;
    if (value != before) result.counters[key] = value - before;
  }
  for (const auto& [key, value] : ctx.telemetry().timers()) {
    const auto it = timers_before.find(key);
    const double before = it == timers_before.end() ? 0.0 : it->second;
    if (value != before) result.timers[key] = value - before;
  }

  if (telemetry_lines_enabled()) {
    std::fprintf(stderr, "%s\n", result.telemetry_json().c_str());
  }
  return result;
}

void register_builtin_partitioners() {
  static const bool once = [] {
    register_partitioner("tlp", [] {
      return std::make_unique<TlpPartitioner>();
    });
    register_partitioner("metis", [] {
      return std::make_unique<metis::MetisPartitioner>();
    });
    register_partitioner("ldg", [] {
      return std::make_unique<baselines::LdgPartitioner>();
    });
    register_partitioner("dbh", [] {
      return std::make_unique<baselines::DbhPartitioner>();
    });
    register_partitioner("random", [] {
      return std::make_unique<baselines::RandomPartitioner>();
    });
    register_partitioner("grid", [] {
      return std::make_unique<baselines::GridPartitioner>();
    });
    register_partitioner("greedy", [] {
      return std::make_unique<baselines::GreedyPartitioner>();
    });
    register_partitioner("hdrf", [] {
      return std::make_unique<baselines::HdrfPartitioner>();
    });
    register_partitioner("ne", [] {
      return std::make_unique<baselines::NePartitioner>();
    });
    register_partitioner("fennel", [] {
      return std::make_unique<baselines::FennelPartitioner>();
    });
    register_partitioner("kl", [] {
      return std::make_unique<baselines::KlPartitioner>();
    });
    register_partitioner("window_tlp", [] {
      return std::make_unique<stream::WindowTlpPartitioner>();
    });
    register_partitioner("multi_tlp", [] {
      return std::make_unique<MultiTlpPartitioner>();
    });
    register_partitioner("2ps", [] {
      return std::make_unique<baselines::TwoPhaseStreamingPartitioner>();
    });
    // The headline combination bench/refine_runtime measures: both TLP
    // growth variants refined by the gain-heap engine, lower RF kept
    // (see TlpRefinePortfolio above).
    register_partitioner("tlp+refine", [] {
      return std::make_unique<TlpRefinePortfolio>();
    });
    return true;
  }();
  (void)once;
}

}  // namespace tlp::bench
