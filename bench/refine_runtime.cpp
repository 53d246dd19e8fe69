// Refinement-engine benchmark (docs/REFINEMENT.md, docs/BENCHMARKS.md):
//
//   1. Win condition — tlp+refine (the gain-heap engine on top of TLP)
//      against EVERY registered partitioner at the same balance_slack:
//      its RF must be <= each baseline's on every bench dataset. The
//      per-cell rows and the aggregate "dominates" verdict go to JSON.
//   2. Sweep A — engine {greedy, gain} x base
//      {tlp, multi_tlp, hdrf, 2ps, greedy}: RF before/after, moves,
//      refinement seconds.
//   3. Sweep B — gain-engine passes {1, 2, 4, 8} (first graph).
//   4. Sweep C — balance_slack {1.01, 1.05, 1.10} (first graph).
//
// Results go to BENCH_refine.json (schema in docs/BENCHMARKS.md).
// `--smoke` shrinks to two graphs at quarter scale for check.sh's
// perf-smoke leg. TLP_BENCH_SCALE / TLP_BENCH_GRAPHS / TLP_BENCH_PS apply
// as everywhere.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common/datasets.hpp"
#include "bench_common/options.hpp"
#include "bench_common/runner.hpp"
#include "bench_common/table.hpp"
#include "core/refine_rf.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"

namespace {

using namespace tlp;
using namespace tlp::bench;

/// The headline configuration "tlp+refine" competes with: the gain-heap
/// engine given room to escape local optima.
RefineOptions tuned_options(double slack) {
  RefineOptions options;
  options.engine = RefineEngine::kGainHeap;
  options.max_passes = 8;
  options.escape_budget = 64;
  options.balance_slack = slack;
  return options;
}

RefineOptions engine_options(const std::string& engine, double slack) {
  RefineOptions options = tuned_options(slack);
  if (engine == "greedy") options.engine = RefineEngine::kGreedy;
  return options;
}

std::string json_row(const std::string& graph, const std::string& algorithm,
                     double rf, double balance, double seconds) {
  return "{\"graph\":\"" + graph + "\",\"algorithm\":\"" + algorithm +
         "\",\"rf\":" + fmt_double(rf, 6) +
         ",\"balance\":" + fmt_double(balance, 6) +
         ",\"seconds\":" + fmt_double(seconds, 6) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  register_builtin_partitioners();
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const double scale = bench_scale() * (smoke ? 0.25 : 1.0);
  std::vector<std::string> graph_ids = bench_graph_ids();
  if (smoke) graph_ids = {"G2", "G5"};
  const PartitionId p = bench_partition_counts().front();
  const double slack = 1.05;

  PartitionConfig config;
  config.num_partitions = p;
  config.balance_slack = slack;

  std::cout << "== Refinement engines (p = " << p << ", slack = " << slack
            << (smoke ? ", SMOKE" : "") << ") ==\n\n";

  std::string json = "{\"p\":" + std::to_string(p) +
                     ",\"balance_slack\":" + fmt_double(slack, 3) +
                     ",\"smoke\":" + (smoke ? "true" : "false");

  // ---- Section 1: win condition against every registered baseline ------
  // "tlp+refine" is the registry's headline: both TLP growth variants
  // refined by the gain-heap engine, lower RF kept (see
  // register_builtin_partitioners).
  std::cout << "-- tlp+refine vs every registered partitioner --\n\n";
  const PartitionerPtr headline_ptr = make_partitioner("tlp+refine");
  const Partitioner& headline = *headline_ptr;
  bool dominates = true;
  Table win({"Graph", "algorithm", "RF", "balance", "tlp+refine RF", "beat"});
  json += ",\"win_condition\":[";
  bool first = true;
  for (const std::string& id : graph_ids) {
    const Graph g = make_dataset(id, default_scale(id) * scale);
    RunContext ctx;
    const RunResult refined = run_partitioner(headline, g, config, ctx);
    if (!first) json += ',';
    first = false;
    json += json_row(id, "tlp+refine", refined.rf, refined.balance,
                     refined.seconds);
    for (const std::string& name : registered_partitioners()) {
      if (name == "tlp+refine") continue;
      const RunResult base =
          run_partitioner(*make_partitioner(name), g, config, ctx);
      const bool beat = refined.rf <= base.rf + 1e-9;
      dominates = dominates && beat;
      win.add_row({id, name, fmt_double(base.rf, 3),
                   fmt_double(base.balance, 3), fmt_double(refined.rf, 3),
                   beat ? "yes" : "NO"});
      json += ',' + json_row(id, name, base.rf, base.balance, base.seconds);
      std::cout.flush();
    }
  }
  win.print(std::cout);
  std::cout << "\ntlp+refine dominates every baseline: "
            << (dominates ? "yes" : "NO") << "\n\n";
  json += "],\"dominates\":" + std::string(dominates ? "true" : "false");

  // ---- Section 2: engine x base sweep ----------------------------------
  std::cout << "-- engine x base (passes = 8, slack = " << slack << ") --\n\n";
  Table sweep({"Graph", "base", "engine", "RF before", "RF after", "moves",
               "refine s"});
  json += ",\"engine_sweep\":[";
  first = true;
  for (const std::string& id : graph_ids) {
    const Graph g = make_dataset(id, default_scale(id) * scale);
    for (const char* base :
         {"tlp", "multi_tlp", "hdrf", "2ps", "greedy"}) {
      RunContext ctx;
      const EdgePartition base_part =
          make_partitioner(base)->partition(g, config, ctx);
      const double before = replication_factor(g, base_part);
      for (const char* engine : {"greedy", "gain"}) {
        EdgePartition part = base_part;
        const auto t0 = std::chrono::steady_clock::now();
        const RefineResult r =
            refine_partition(g, part, engine_options(engine, slack), ctx);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const double after = replication_factor(g, part);
        sweep.add_row({id, base, engine, fmt_double(before, 3),
                       fmt_double(after, 3), std::to_string(r.moves),
                       fmt_double(seconds, 3)});
        if (!first) json += ',';
        first = false;
        json += "{\"graph\":\"" + id + "\",\"base\":\"" + base +
                "\",\"engine\":\"" + engine +
                "\",\"rf_before\":" + fmt_double(before, 6) +
                ",\"rf_after\":" + fmt_double(after, 6) +
                ",\"moves\":" + std::to_string(r.moves) +
                ",\"seconds\":" + fmt_double(seconds, 6) + "}";
        std::cout.flush();
      }
    }
  }
  sweep.print(std::cout);
  json += ']';

  // Sweeps B/C run on the first selected graph only — enough to show the
  // knobs' shape without multiplying the full cross product again.
  const std::string knob_id = graph_ids.front();
  const Graph knob_graph = make_dataset(knob_id, default_scale(knob_id) * scale);

  // ---- Section 3: passes sweep (gain engine, tlp base) -----------------
  std::cout << "\n-- gain-engine passes sweep (" << knob_id << ", tlp base) "
            << "--\n\n";
  Table passes_table({"passes", "RF after", "moves", "escapes", "rollbacks"});
  json += ",\"passes_sweep\":[";
  first = true;
  {
    RunContext ctx;
    const EdgePartition base_part =
        make_partitioner("tlp")->partition(knob_graph, config, ctx);
    for (const int passes : {1, 2, 4, 8}) {
      EdgePartition part = base_part;
      RefineOptions options = tuned_options(slack);
      options.max_passes = passes;
      const RefineResult r =
          refine_partition(knob_graph, part, options, ctx);
      const double after = replication_factor(knob_graph, part);
      passes_table.add_row({std::to_string(passes), fmt_double(after, 3),
                            std::to_string(r.moves),
                            std::to_string(r.escape_moves),
                            std::to_string(r.rollbacks)});
      if (!first) json += ',';
      first = false;
      json += "{\"passes\":" + std::to_string(passes) +
              ",\"rf_after\":" + fmt_double(after, 6) +
              ",\"moves\":" + std::to_string(r.moves) +
              ",\"escape_moves\":" + std::to_string(r.escape_moves) +
              ",\"rollbacks\":" + std::to_string(r.rollbacks) + "}";
    }
  }
  passes_table.print(std::cout);
  json += ']';

  // ---- Section 4: slack sweep (gain engine, tlp base) ------------------
  std::cout << "\n-- balance_slack sweep (" << knob_id << ", tlp base) --\n\n";
  Table slack_table({"slack", "RF after", "balance after", "moves"});
  json += ",\"slack_sweep\":[";
  first = true;
  for (const double s : {1.01, 1.05, 1.10}) {
    PartitionConfig slack_config = config;
    slack_config.balance_slack = s;
    RunContext ctx;
    EdgePartition part =
        make_partitioner("tlp")->partition(knob_graph, slack_config, ctx);
    const RefineResult r =
        refine_partition(knob_graph, part, tuned_options(s), ctx);
    const double after = replication_factor(knob_graph, part);
    const double bal = balance_factor(part);
    slack_table.add_row({fmt_double(s, 2), fmt_double(after, 3),
                         fmt_double(bal, 3), std::to_string(r.moves)});
    if (!first) json += ',';
    first = false;
    json += "{\"slack\":" + fmt_double(s, 3) +
            ",\"rf_after\":" + fmt_double(after, 6) +
            ",\"balance_after\":" + fmt_double(bal, 6) +
            ",\"moves\":" + std::to_string(r.moves) + "}";
  }
  slack_table.print(std::cout);
  json += "]}";

  std::ofstream("BENCH_refine.json") << json << '\n';
  std::cout << "\nwrote BENCH_refine.json\n";
  return dominates ? 0 : 1;
}
