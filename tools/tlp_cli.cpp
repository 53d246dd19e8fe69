// tlp_cli — command-line front end for the whole library.
//
//   tlp_cli generate <model> <out.txt> [model args]   synthesize a graph
//   tlp_cli stats <graph.txt>                         structural statistics
//   tlp_cli partition <graph.txt> <algo> <p> [seed] [out.parts]
//   tlp_cli evaluate <graph.txt> <parts-file>         re-score a .parts file
//   tlp_cli convert <in> <out>                        text <-> binary (by extension)
//   tlp_cli compare <graph.txt> <p>                   all algorithms, one table
//   tlp_cli algorithms                                list registered algorithms
//
// A global --storage=<spec> flag (or the TLP_STORAGE environment variable)
// selects the storage tier every loaded graph runs on:
//   --storage=in_memory | mmap
// .tlpc inputs open directly on that tier; other formats are loaded and
// re-tiered through a spill file. The .tlpc extension selects the binary
// CSR format on output (generate/convert).
//
// Numeric arguments (p, seed) must be plain decimal numbers that fit their
// type; anything else prints "error: bad <what> '<text>'" and exits 2.
//
// Generate models:
//   er <n> <m>  |  ba <n> <deg>  |  rmat <n> <m>  |  cl <n> <m> <gamma>
//   sbm <n> <m> <blocks> <p_in>  |  dcsbm <n> <m> <gamma> <blocks> <p_in>
//   ws <n> <k> <beta>
//
// Note: text graphs are loaded with vertex-id compaction (first-seen
// order), so .parts files written here use the compacted ids; `evaluate`
// applies the same compaction and is therefore always consistent with
// `partition` output for the same input file. Use examples/partition_file
// to keep original ids.
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common/runner.hpp"
#include "bench_common/table.hpp"
#include "gen/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"
#include "partition/validator.hpp"

namespace {

using namespace tlp;

int usage() {
  std::cerr <<
      "usage: tlp_cli [--storage=<tier>] <command> [args]\n"
      "  generate <model> <out.txt> [args]  er|ba|rmat|cl|sbm|dcsbm|ws\n"
      "  stats <graph.txt>\n"
      "  partition <graph.txt> <algo> <p> [seed] [out.parts]\n"
      "  evaluate <graph.txt> <parts-file>\n"
      "  convert <in> <out>                 (.bin edge-list / .tlpc CSR binary)\n"
      "  compare <graph.txt> <p>\n"
      "  algorithms\n"
      "  --storage: in_memory | mmap\n"
      "             (or the TLP_STORAGE environment variable)\n";
  return 2;
}

// Tier selection for every graph the CLI loads (see the header comment).
StorageOptions g_storage;

Graph load(const std::string& path) {
  if (path.ends_with(".tlpc")) {
    Graph g = io::load_csr_file(path, g_storage);
    std::cerr << "loaded " << path << ": " << g.summary() << '\n';
    return g;
  }
  if (path.ends_with(".bin")) {
    return io::with_tier(io::read_binary_file(path), g_storage);
  }
  if (path.ends_with(".mtx")) {
    BuildReport report;
    Graph g = io::with_tier(io::read_matrix_market_file(path, &report),
                            g_storage);
    std::cerr << "loaded " << path << ": " << g.summary() << '\n';
    return g;
  }
  BuildReport report;
  Graph g = io::with_tier(io::read_edge_list_file(path, &report), g_storage);
  std::cerr << "loaded " << path << ": " << g.summary() << " (dropped "
            << report.self_loops << " loops, " << report.duplicate_edges
            << " dups)\n";
  return g;
}

// Strict decimal parse: digits only — no sign, no whitespace, no trailing
// characters, no overflow of T.
template <typename T>
std::optional<T> parse_uint(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

// parse_uint for a command-line argument; reports a bad one on stderr.
template <typename T>
std::optional<T> parse_arg(const std::string& text, const char* what) {
  const std::optional<T> value = parse_uint<T>(text);
  if (!value) std::cerr << "error: bad " << what << " '" << text << "'\n";
  return value;
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string& model = args[0];
  const std::string& out = args[1];
  const auto arg = [&](std::size_t i, double fallback) {
    return args.size() > i + 2 ? std::strtod(args[i + 2].c_str(), nullptr)
                               : fallback;
  };
  Graph g;
  if (model == "er") {
    g = gen::erdos_renyi(static_cast<VertexId>(arg(0, 1000)),
                         static_cast<EdgeId>(arg(1, 5000)), 42);
  } else if (model == "ba") {
    g = gen::barabasi_albert(static_cast<VertexId>(arg(0, 1000)),
                             static_cast<std::size_t>(arg(1, 3)), 42);
  } else if (model == "rmat") {
    g = gen::rmat(static_cast<VertexId>(arg(0, 1024)),
                  static_cast<EdgeId>(arg(1, 8000)), gen::RmatParams{}, 42);
  } else if (model == "cl") {
    g = gen::chung_lu_power_law(static_cast<VertexId>(arg(0, 1000)),
                                static_cast<EdgeId>(arg(1, 5000)),
                                arg(2, 2.1), 42);
  } else if (model == "sbm") {
    g = gen::sbm(static_cast<VertexId>(arg(0, 1000)),
                 static_cast<EdgeId>(arg(1, 5000)),
                 static_cast<VertexId>(arg(2, 10)), arg(3, 0.8), 42);
  } else if (model == "dcsbm") {
    g = gen::dcsbm(static_cast<VertexId>(arg(0, 1000)),
                   static_cast<EdgeId>(arg(1, 5000)), arg(2, 2.1),
                   static_cast<VertexId>(arg(3, 10)), arg(4, 0.6), 42);
  } else if (model == "ws") {
    g = gen::watts_strogatz(static_cast<VertexId>(arg(0, 1000)),
                            static_cast<std::size_t>(arg(1, 6)), arg(2, 0.1),
                            42);
  } else {
    std::cerr << "unknown model '" << model << "'\n";
    return 2;
  }
  if (out.ends_with(".tlpc")) {
    io::write_csr_file(g, out);
  } else if (out.ends_with(".bin")) {
    io::write_binary_file(g, out);
  } else {
    io::write_edge_list_file(g, out);
  }
  std::cerr << "wrote " << out << ": " << g.summary() << '\n';
  return 0;
}

int cmd_stats(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const Graph g = load(args[0]);
  std::cout << compute_stats(g);
  return 0;
}

int cmd_partition(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  const auto p = parse_arg<PartitionId>(args[2], "p");
  const auto seed =
      args.size() > 3 ? parse_arg<std::uint64_t>(args[3], "seed")
                      : std::optional<std::uint64_t>{42};
  if (!p || !seed) return 2;
  const Graph g = load(args[0]);
  PartitionConfig config;
  config.num_partitions = *p;
  config.seed = *seed;

  const PartitionerPtr partitioner = make_partitioner(args[1]);
  const bench::RunResult r = bench::run_partitioner(*partitioner, g, config);
  std::cout << "algorithm:  " << args[1] << "\npartitions: "
            << config.num_partitions << "\nrf:         " << r.rf
            << "\nbalance:    " << r.balance << "\ntime:       " << r.seconds
            << " s\nvalid:      " << (r.valid ? "yes" : "NO") << '\n';

  if (args.size() > 4) {
    const EdgePartition part = partitioner->partition(g, config);
    std::ofstream out(args[4]);
    if (!out) {
      std::cerr << "cannot write " << args[4] << '\n';
      return 1;
    }
    out << "# algo=" << args[1] << " p=" << config.num_partitions
        << " seed=" << config.seed << '\n';
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      out << g.edge(e).u << ' ' << g.edge(e).v << ' ' << part.partition_of(e)
          << '\n';
    }
    std::cerr << "wrote " << args[4] << '\n';
  }
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const Graph g = load(args[0]);
  std::ifstream in(args[1]);
  if (!in) {
    std::cerr << "cannot read " << args[1] << '\n';
    return 1;
  }
  // .parts format: "u v partition" per line; edges matched by endpoints.
  std::map<std::pair<VertexId, VertexId>, PartitionId> lookup;
  std::string line;
  PartitionId max_part = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string u_text;
    std::string v_text;
    std::string part_text;
    std::string extra;
    fields >> u_text >> v_text >> part_text;
    const auto u = parse_uint<VertexId>(u_text);
    const auto v = parse_uint<VertexId>(v_text);
    const auto part = parse_uint<PartitionId>(part_text);
    // kNoPartition marks "unassigned"; it is never a partition id.
    if (!u || !v || !part || *part >= kNoPartition || fields >> extra) {
      std::cerr << "malformed line: " << line << '\n';
      return 1;
    }
    lookup[{std::min(*u, *v), std::max(*u, *v)}] = *part;
    max_part = std::max(max_part, *part);
  }
  EdgePartition partition(max_part + 1, g.num_edges());
  EdgeId missing = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto it = lookup.find({g.edge(e).u, g.edge(e).v});
    if (it == lookup.end()) {
      ++missing;
    } else {
      partition.assign(e, it->second);
    }
  }
  if (missing > 0) {
    std::cerr << "warning: " << missing << " edges missing from parts file\n";
  }
  std::cout << "partitions: " << partition.num_partitions()
            << "\nrf:         " << replication_factor(g, partition)
            << "\nbalance:    " << balance_factor(partition)
            << "\nunassigned: " << partition.unassigned_count() << '\n';
  return 0;
}

int cmd_convert(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const bool text_input = !args[0].ends_with(".tlpc") &&
                          !args[0].ends_with(".bin") &&
                          !args[0].ends_with(".mtx");
  if (text_input && args[1].ends_with(".tlpc")) {
    // Stream text straight to CSR through the external-memory builder: the
    // edge list and the CSR never exist on the heap, so a TLP_BUILD_BUDGET
    // cap holds for arbitrarily large inputs.
    const BuildReport report =
        io::convert_edge_list_to_csr(args[0], args[1]);
    std::cerr << "wrote " << args[1] << " (" << report.kept_edges
              << " edges, " << report.spill_runs << " spill runs)\n";
    return 0;
  }
  const Graph g = load(args[0]);
  if (args[1].ends_with(".tlpc")) {
    io::write_csr_file(g, args[1]);
  } else if (args[1].ends_with(".bin")) {
    io::write_binary_file(g, args[1]);
  } else if (args[1].ends_with(".mtx")) {
    io::write_matrix_market_file(g, args[1]);
  } else {
    io::write_edge_list_file(g, args[1]);
  }
  std::cerr << "wrote " << args[1] << '\n';
  return 0;
}

int cmd_compare(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const auto p = parse_arg<PartitionId>(args[1], "p");
  if (!p) return 2;
  const Graph g = load(args[0]);
  PartitionConfig config;
  config.num_partitions = *p;
  bench::Table table({"Algorithm", "RF", "balance", "time s"});
  for (const std::string& name : registered_partitioners()) {
    const bench::RunResult r =
        bench::run_partitioner(*make_partitioner(name), g, config);
    table.add_row({name, bench::fmt_double(r.rf, 3),
                   bench::fmt_double(r.balance, 3),
                   bench::fmt_double(r.seconds, 3)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::register_builtin_partitioners();
  std::vector<std::string> all(argv + 1, argv + argc);
  try {
    if (const char* env = std::getenv("TLP_STORAGE")) {
      g_storage = StorageOptions::parse(env);
    }
    for (auto it = all.begin(); it != all.end();) {
      if (it->starts_with("--storage=")) {
        g_storage = StorageOptions::parse(it->substr(10));
        it = all.erase(it);
      } else {
        ++it;
      }
    }
    if (all.empty()) return usage();
    const std::string command = all[0];
    const std::vector<std::string> args(all.begin() + 1, all.end());
    if (command == "generate") return cmd_generate(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "partition") return cmd_partition(args);
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "algorithms") {
      for (const std::string& name : registered_partitioners()) {
        std::cout << name << '\n';
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
