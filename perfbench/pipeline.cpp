// perfbench_pipeline: the C++ half of the end-to-end pipeline benchmark.
//
// One process does one step, so that every pipeline repetition is its own
// child process (run.py spawns it and reads its rusage with wait4):
//
//   perfbench_pipeline gen --workload W --seed S --scale X --out EDGES.txt
//       Writes the workload's text edge list. Not part of any measured
//       time.
//
//   perfbench_pipeline run --workload W --input EDGES.txt --work DIR
//       --result RESULT.json --threads N [--trace 0|1] [--tier T]
//       [--inject KIND]
//       Runs the user pipeline once: text edges -> .tlpc -> load -> grow
//       -> refine -> validate -> write, then checks the written partition.
//       Writes one JSON record (timings, layer counters, spans when traced,
//       check outcome) to RESULT.json.
//
//   perfbench_pipeline probe
//       Times a fixed kernel that uses no library code and prints its
//       seconds. run.py runs it before and after every repetition and
//       scales the repetition's times by it, so that the host slowing down
//       or speeding up between runs cancels out (see README.md).
//
// Spans are kept in memory and written with the record at exit; their
// timestamps are CLOCK_MONOTONIC seconds (std::chrono::steady_clock), the
// clock run.py's time.monotonic() reads, so both sides share a time base.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/datasets.hpp"
#include "core/multi_tlp.hpp"
#include "core/refine_rf.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/intersect_kernels.hpp"
#include "graph/io.hpp"
#include "partition/metrics.hpp"
#include "partition/partition_io.hpp"
#include "partition/validator.hpp"
#include "util/numa.hpp"

namespace fs = std::filesystem;

namespace {

enum class Source { kDcsbm, kGenealogy };

/// Generator seed of the DCSBM graph every powerlaw workload uses.
constexpr std::uint64_t kGraphSeed = 1;

/// One benchmark workload: how its input is made and how it is partitioned.
struct Workload {
  const char* name;
  Source source;
  tlp::PartitionId partitions;
  bool parallel;            // multi_tlp (else sequential tlp)
  bool refine;              // gain-heap refinement after growth
  bool bounded_ingest;      // builder budget forcing spill runs
  tlp::StorageTier tier;    // tier the .tlpc is loaded on
};

constexpr Workload kWorkloads[] = {
    {"powerlaw-refine", Source::kDcsbm, 10, false, true, false,
     tlp::StorageTier::kInMemory},
    {"powerlaw-parallel", Source::kDcsbm, 10, true, false, false,
     tlp::StorageTier::kInMemory},
    {"sparse-outofcore", Source::kGenealogy, 32, false, false, true,
     tlp::StorageTier::kMmap},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Disabled, it records nothing; each span is a
/// layer-boundary call with its parent, written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int parent;
    double start;
    double end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span as a child of the innermost open one; returns its id.
  int open(const char* layer, const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, layer, open_, now_s(), 0.0});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }

  /// Closes span `id` (the innermost open one).
  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s();
    open_ = s.parent;
  }

  /// Runs fn inside a span named `name` of `layer`; returns fn's result.
  template <typename Fn>
  auto span(const char* layer, const char* name, Fn&& fn) {
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, open(layer, name)};
    return fn();
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Seconds a fixed kernel that uses no library code takes on this host
/// now: a dependent walk of 2^20 steps over 16 MiB (cache and memory
/// latency, as in graph traversal) and a sort of 2^19 keys (branches).
/// Its inputs are fixed, so it does the same work on every call.
double host_probe_s() {
  constexpr std::size_t kSlots = std::size_t{1} << 21;  // 16 MiB of u64
  // i -> (a*i + c) mod 2^21 with a = 1 mod 4 and c odd is one cycle
  // through every slot, in an order no prefetcher follows.
  std::vector<std::uint64_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[i] =
        (i * 0x5851f42d4c957f2dULL + 0x14057b7ef767814fULL) & (kSlots - 1);
  }
  std::mt19937_64 rng(12345);
  std::vector<std::uint64_t> keys(std::size_t{1} << 19);
  for (std::uint64_t& k : keys) k = rng();

  const double start = now_s();
  std::uint64_t at = 0;
  for (std::size_t step = 0; step < (std::size_t{1} << 20); ++step) {
    at = next[at];
  }
  std::sort(keys.begin(), keys.end());
  const double elapsed = now_s() - start;
  if (at == kSlots || keys.front() > keys.back()) std::abort();
  return elapsed;
}

struct Faults {
  double minor = 0;
  double major = 0;
};

Faults faults_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {static_cast<double>(usage.ru_minflt),
          static_cast<double>(usage.ru_majflt)};
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- gen --

/// Writes "u v" lines for `edges`, buffered.
void write_lines(const std::vector<tlp::Edge>& edges, const fs::path& out) {
  std::ofstream file(out, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("cannot write " + out.string());
  std::string buf;
  buf.reserve(1 << 20);
  char num[16];
  for (const tlp::Edge& e : edges) {
    auto r = std::to_chars(num, num + sizeof num, e.u);
    buf.append(num, r.ptr);
    buf += ' ';
    r = std::to_chars(num, num + sizeof num, e.v);
    buf.append(num, r.ptr);
    buf += '\n';
    if (buf.size() > (1 << 20) - 64) {
      file.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  file.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!file) throw std::runtime_error("write failed: " + out.string());
}

int cmd_gen(const std::map<std::string, std::string>& args) {
  const Workload& w = find_workload(args.at("workload"));
  const std::uint64_t seed = std::stoull(args.at("seed"));
  const double scale = args.count("scale") ? std::stod(args.at("scale")) : 1.0;
  // Each workload's graph is fixed, so every seed gives the same amount of
  // input; the seed picks the order and orientation of its edge lines, so
  // ingest relabels it and growth and refinement take other paths.
  std::vector<tlp::Edge> edges;
  if (w.source == Source::kDcsbm) {
    // gamma 2.2, m = 400k, n = m/7, 150-vertex blocks, p_in 0.6.
    const auto m = static_cast<tlp::EdgeId>(400000 * scale);
    const auto n = static_cast<tlp::VertexId>(m / 7);
    const tlp::Graph g = tlp::gen::dcsbm(
        n, m, 2.2, std::max<tlp::VertexId>(1, n / 150), 0.6, kGraphSeed);
    edges.assign(g.edges().begin(), g.edges().end());
  } else {
    const tlp::Graph g = tlp::bench::make_dataset("G9", 0.3 * scale);
    edges.assign(g.edges().begin(), g.edges().end());
  }
  std::mt19937_64 rng(seed);
  std::shuffle(edges.begin(), edges.end(), rng);
  for (tlp::Edge& e : edges) {
    if (rng() & 1) std::swap(e.u, e.v);
  }
  write_lines(edges, args.at("out"));
  return 0;
}

// ---------------------------------------------------------------- run --

struct Record {
  std::map<std::string, double> values;
  std::vector<std::string> errors;
};

tlp::EdgePartition grow(const Workload& w, std::size_t threads,
                        const tlp::Graph& g, const tlp::PartitionConfig& config,
                        tlp::RunContext& ctx) {
  if (w.parallel) {
    tlp::MultiTlpOptions options;
    options.num_threads = threads;
    options.steal = true;
    return tlp::MultiTlpPartitioner(options).partition(g, config, ctx);
  }
  return tlp::TlpPartitioner().partition(g, config, ctx);
}

/// One pipeline repetition plus its correctness checks.
Record run_pipeline(const Workload& w, const fs::path& input,
                    const fs::path& work, std::size_t threads,
                    tlp::StorageTier tier, const std::string& inject,
                    Tracer& trace) {
  Record rec;
  auto& v = rec.values;
  const fs::path tlpc = work / "graph.tlpc";
  const fs::path partsb = work / "partition.partsb";

  // A bounded builder spills sorted runs; a budget of 1/4 of the text
  // size is about 4 bytes per edge, i.e. a chunk of m/4 edges.
  if (w.bounded_ingest) {
    const auto budget = std::max<std::uintmax_t>(fs::file_size(input) / 4, 1);
    setenv("TLP_BUILD_BUDGET", std::to_string(budget).c_str(), 1);
  } else {
    unsetenv("TLP_BUILD_BUDGET");
  }
  tlp::StorageOptions storage;
  storage.tier = tier;
  tlp::PartitionConfig config;
  config.num_partitions = w.partitions;
  config.storage = storage;
  tlp::RefineOptions refine;
  refine.engine = tlp::RefineEngine::kGainHeap;
  refine.max_passes = 8;
  refine.escape_budget = 64;
  refine.balance_slack = 1.05;

  tlp::RunContext ctx;
  tlp::EdgePartition part;
  tlp::EdgePartition grown;  // traced refine runs: the pre-refine partition
  tlp::ValidationResult valid;
  tlp::BuildReport build;
  double rf = 0.0;
  double balance = 0.0;
  const double t_start = now_s();
  const int root = trace.open("pipeline", "pipeline");
  build = trace.span("graph", "graph.ingest", [&] {
    return tlp::io::convert_edge_list_to_csr(input, tlpc);
  });
  const Faults before = trace.enabled() ? faults_now() : Faults{};
  const tlp::Graph g = trace.span("graph", "graph.load", [&] {
    return tlp::io::load_csr_file(tlpc, storage);
  });
  if (trace.enabled()) {
    const Faults after = faults_now();
    v["graph.minor_faults"] = after.minor - before.minor;
    v["graph.major_faults"] = after.major - before.major;
  }
  const double t_setup = now_s();
  part = trace.span("core", "core.grow",
                    [&] { return grow(w, threads, g, config, ctx); });
  if (w.refine) {
    if (trace.enabled()) grown = part;
    const tlp::RefineResult r = trace.span("refine", "refine.refine", [&] {
      return tlp::refine_partition(g, part, refine, ctx);
    });
    v["refine.moves"] = static_cast<double>(r.moves);
    v["refine.replicas_removed"] = static_cast<double>(r.replicas_removed);
    v["refine.passes"] = r.passes;
    v["refine.escape_moves"] = static_cast<double>(r.escape_moves);
    v["refine.rollbacks"] = static_cast<double>(r.rollbacks);
    v["refine.heap_rebuilds"] = static_cast<double>(r.heap_rebuilds);
  }
  const double t_partition = now_s();
  if (inject == "unassigned") part.assign(0, tlp::kNoPartition);
  if (inject == "divergent") {
    part.assign(0, (part.partition_of(0) + 1) % w.partitions);
  }
  valid = trace.span("partition", "partition.validate",
                     [&] { return tlp::validate(g, part, config); });
  trace.span("partition", "partition.metrics", [&] {
    rf = tlp::replication_factor(g, part);
    balance = tlp::balance_factor(part);
  });
  trace.span("partition", "partition.write",
             [&] { tlp::io::write_partition_binary_file(part, partsb); });
  trace.close(root);
  const double t_end = now_s();

  const tlp::MemoryFootprint fp = g.memory_footprint();
  v["graph.resident_mb"] = static_cast<double>(fp.resident_bytes) / 1e6;
  v["graph.mapped_mb"] = static_cast<double>(fp.mapped_bytes) / 1e6;
  if (!w.refine) {
    v["core.rf_grown"] = rf;
  } else if (trace.enabled()) {
    v["core.rf_grown"] = tlp::replication_factor(g, grown);
  }

  v["pipeline_s"] = t_end - t_start;
  v["setup_s"] = t_setup - t_start;
  v["partition_s"] = t_partition - t_setup;
  v["input_edges"] = static_cast<double>(build.input_edges);
  v["rf"] = rf;
  v["balance"] = balance;
  v["graph.spill_runs"] = static_cast<double>(build.spill_runs);
  v["graph.build_peak_mb"] = static_cast<double>(build.build_peak_bytes) / 1e6;
  v["partition.write_mb"] = static_cast<double>(fs::file_size(partsb)) / 1e6;

  const tlp::Telemetry& t = ctx.telemetry();
  // Counters the partitioners already emit (absent keys read as 0).
  const std::pair<const char*, const char*> counters[] = {
      {"core.stage1_joins", "stage1_joins"},
      {"core.stage2_joins", "stage2_joins"},
      {"core.restarts", "restarts"},
      {"core.peak_frontier", "peak_frontier"},
      {"core.super_steps", "super_steps"},
      {"core.claim_conflicts", "claim_conflicts"},
      {"core.stale_claims", "stale_claims"},
      {"util.threads", "threads"},
      {"util.imbalance", "imbalance"},
      {"util.steals", "steals"},
      {"util.steal_failures", "steal_failures"},
  };
  for (const auto& [name, key] : counters) v[name] = t.counter(key);
  v["core.worker_propose_s"] = t.timer_seconds("worker_propose");
  v["core.worker_update_s"] = t.timer_seconds("worker_update");

  // Check 1: the partition is complete and in range.
  if (!valid.ok()) {
    std::string msg = "validate failed";
    for (const std::string& e : valid.errors) msg += "; " + e;
    rec.errors.push_back(msg);
  }
  // Check 2: the written file reads back as the same partition (so it
  // gives the same RF).
  if (inject == "readback") {
    std::fstream f(partsb, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x7f');
  }
  trace.span("check", "check.readback", [&] {
    const tlp::EdgePartition back =
        tlp::io::read_partition_binary_file(partsb);
    if (back.num_partitions() != part.num_partitions() ||
        back.raw() != part.raw()) {
      rec.errors.push_back("read-back partition differs from the written one");
    }
  });
  return rec;
}

void write_record(const Record& rec, const Tracer& trace, const fs::path& out) {
  std::ofstream file(out, std::ios::trunc);
  file << "{\"ok\": " << (rec.errors.empty() ? "true" : "false")
       << ", \"errors\": [";
  for (std::size_t i = 0; i < rec.errors.size(); ++i) {
    file << (i ? ", " : "") << json_string(rec.errors[i]);
  }
  file << "], \"values\": {";
  bool first = true;
  for (const auto& [key, value] : rec.values) {
    file << (first ? "" : ", ") << json_string(key) << ": "
         << json_number(value);
    first = false;
  }
  file << "}, \"spans\": [";
  for (std::size_t i = 0; i < trace.spans().size(); ++i) {
    const Tracer::Span& s = trace.spans()[i];
    file << (i ? ", " : "") << "{\"name\": " << json_string(s.name)
         << ", \"layer\": " << json_string(s.layer)
         << ", \"parent\": " << s.parent
         << ", \"start\": " << json_number(s.start)
         << ", \"end\": " << json_number(s.end) << "}";
  }
  const tlp::intersect::Kernel kernel = tlp::intersect::active().kind;
  file << "], \"host\": {\"cores\": " << std::thread::hardware_concurrency()
       << ", \"numa_nodes\": " << tlp::numa::system_topology().num_nodes()
       << ", \"kernel\": " << static_cast<int>(kernel)
       << ", \"kernel_name\": "
       << json_string(std::string(tlp::intersect::kernel_name(kernel)))
       << "}}\n";
  if (!file) throw std::runtime_error("cannot write " + out.string());
}

int cmd_run(const std::map<std::string, std::string>& args) {
  const Workload& w = find_workload(args.at("workload"));
  const fs::path work = args.at("work");
  fs::create_directories(work);
  // Spill runs and temporary CSR files stay inside the work directory.
  setenv("TMPDIR", work.c_str(), 1);
  const std::size_t threads = std::stoul(args.at("threads"));
  tlp::StorageTier tier = w.tier;
  if (args.count("tier")) {
    tier = tlp::StorageOptions::parse(args.at("tier")).tier;
  }
  const std::string inject = args.count("inject") ? args.at("inject") : "none";
  if (inject != "none" && inject != "unassigned" && inject != "readback" &&
      inject != "divergent") {
    throw std::invalid_argument("unknown --inject '" + inject + "'");
  }
  Tracer trace(args.count("trace") && args.at("trace") == "1");
  Record rec;
  try {
    rec = run_pipeline(w, args.at("input"), work, threads, tier, inject, trace);
  } catch (const std::exception& e) {
    rec.errors.push_back(std::string("pipeline threw: ") + e.what());
  }
  write_record(rec, trace, args.at("result"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || argc % 2 != 0) {
      throw std::invalid_argument(
          "usage: perfbench_pipeline gen|run|probe --key value ...");
    }
    const std::string cmd = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("bad argument " + key);
      }
      args[key.substr(2)] = argv[i + 1];
    }
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "probe") {
      std::cout << json_number(host_probe_s()) << "\n";
      return 0;
    }
    throw std::invalid_argument("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_pipeline: " << e.what() << "\n";
    return 2;
  }
}
