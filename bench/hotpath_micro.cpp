// Hot-path microbenchmark + bit-identity harness for the flattened growth
// structures (epoch-stamped dense Frontier, flat stage-2 bucket ladder,
// galloping intersections).
//
// The pre-change implementation — candidates in std::unordered_map, stage-2
// buckets in std::map, the exact code this PR replaced — is embedded below
// (namespace legacy) together with a faithful copy of the sequential growth
// loop driving it. That gives two guarantees in one binary:
//   1. Bit-identity: for fixed seeds the flat TlpPartitioner must produce a
//      byte-identical assignment to the legacy loop (for both the
//      modularity rule and TLP_R), and multi_tlp must stay byte-identical
//      across 1/2/8 worker threads.
//   2. A measured baseline: end-to-end single-thread speedup of the flat
//      hot path over the node-based containers, plus frontier-level select
//      latency, written to BENCH_hotpath.json.
// The run also asserts the steady-state allocation story: a warm RunContext
// must show zero new arena misses from the second run onward.
//
// A third axis sweeps the SIMD intersect kernels (scalar, plus avx2 when
// the CPU supports it): per-kernel ns/intersection over edge-sampled
// vertex pairs, per-kernel end-to-end flat time, and the byte-identity of
// every kernel's partition against the scalar one. JSON schema is
// documented in docs/BENCHMARKS.md.
//
//   hotpath_micro            # full fixture (power-law n≈100k)
//   hotpath_micro --smoke    # small fixture for CI perf-smoke (tools/check.sh)
//
// Exit code is nonzero when any identity or warm-allocation check fails;
// the speedups are recorded but not gated here (CI boxes are too noisy).
#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common/table.hpp"
#include "core/frontier.hpp"
#include "core/multi_tlp.hpp"
#include "core/residual.hpp"
#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "graph/intersect_kernels.hpp"
#include "partition/metrics.hpp"
#include "partition/spill.hpp"

namespace tlp::legacy {

/// Verbatim pre-change Graph::common_neighbor_count: linear merge with a
/// per-element full binary search when the cost model favors it — no
/// monotone cursor, no exponential search. Part of the measured baseline.
std::size_t common_neighbor_count(const Graph& g, VertexId u, VertexId v) {
  auto a = g.neighbors(u);
  auto b = g.neighbors(v);
  if (a.size() > b.size()) std::swap(a, b);
  const std::size_t log_b =
      static_cast<std::size_t>(std::bit_width(b.size() + 1));
  if (a.size() * log_b < (a.size() + b.size()) / 2) {
    std::size_t count = 0;
    for (const Neighbor& nb : a) {
      if (std::binary_search(b.begin(), b.end(), Neighbor{nb.vertex, 0},
                             [](const Neighbor& x, const Neighbor& y) {
                               return x.vertex < y.vertex;
                             })) {
        ++count;
      }
    }
    return count;
  }
  std::size_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].vertex < b[j].vertex) {
      ++i;
    } else if (a[i].vertex > b[j].vertex) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Exact M' fraction comparison (verbatim pre-change helper).
bool better_fraction(std::uint64_t a1, std::uint64_t b1, std::uint64_t a2,
                     std::uint64_t b2) {
  if (b1 == 0 && b2 == 0) return a1 > a2;
  if (b1 == 0) return true;
  if (b2 == 0) return false;
  return static_cast<unsigned __int128>(a1) * b2 >
         static_cast<unsigned __int128>(a2) * b1;
}

/// The pre-change Frontier: candidates in std::unordered_map, stage-2
/// buckets in std::map — node-based containers on the hot path. Kept
/// verbatim (minus comments) as the measured baseline.
class Frontier {
 public:
  explicit Frontier(ScratchArena& arena)
      : arena_(&arena), stage1_heap_(arena_->acquire<HeapEntry>(0)) {}

  void clear() {
    candidates_.clear();
    stage1_heap_->clear();
    stage2_buckets_.clear();
  }

  [[nodiscard]] bool empty() const { return candidates_.empty(); }
  [[nodiscard]] std::size_t size() const { return candidates_.size(); }
  [[nodiscard]] bool contains(VertexId v) const {
    return candidates_.contains(v);
  }

  [[nodiscard]] std::uint32_t connections(VertexId v) const {
    const auto it = candidates_.find(v);
    assert(it != candidates_.end());
    return it->second.c;
  }

  template <typename ScoreFn>
  void add_connection(VertexId u, std::uint32_t residual_degree,
                      double score_bound, ScoreFn&& score_fn) {
    auto [it, inserted] = candidates_.try_emplace(u);
    Candidate& cand = it->second;
    if (inserted) {
      cand.c = 1;
      cand.rdeg = residual_degree;
      cand.mu1 = score_fn();
      bucket_push(cand.c, cand.rdeg, u);
      stage1_push(cand.mu1, u);
      return;
    }
    assert(cand.rdeg == residual_degree);
    ++cand.c;
    bucket_push(cand.c, cand.rdeg, u);
    if (score_bound > cand.mu1) {
      const double term = score_fn();
      if (term > cand.mu1) {
        cand.mu1 = term;
        stage1_push(cand.mu1, u);
      }
    }
  }

  void add_connection(VertexId u, double score_term,
                      std::uint32_t residual_degree) {
    add_connection(u, residual_degree, score_term,
                   [score_term] { return score_term; });
  }

  void remove(VertexId v) {
    const auto it = candidates_.find(v);
    assert(it != candidates_.end());
    candidates_.erase(it);
  }

  [[nodiscard]] VertexId select_stage1() {
    auto& heap = *stage1_heap_;
    while (!heap.empty()) {
      const HeapEntry top = heap.front();
      const auto it = candidates_.find(top.vertex);
      if (it != candidates_.end() && it->second.mu1 == top.mu1) {
        return top.vertex;
      }
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
    }
    return kInvalidVertex;
  }

  [[nodiscard]] VertexId select_stage2(EdgeId e_in, EdgeId e_out) {
    VertexId best = kInvalidVertex;
    std::uint64_t best_num = 0;
    std::uint64_t best_den = 1;
    std::uint32_t best_c = 0;
    std::uint32_t best_r = 0;
    for (auto it = stage2_buckets_.begin(); it != stage2_buckets_.end();) {
      const std::uint32_t c = it->first;
      auto& bucket = *it->second;
      while (!bucket.empty() && !bucket_entry_live(c, bucket.front().second)) {
        std::pop_heap(bucket.begin(), bucket.end(), std::greater<>{});
        bucket.pop_back();
      }
      if (bucket.empty()) {
        it = stage2_buckets_.erase(it);
        continue;
      }
      const auto [rdeg, v] = bucket.front();
      const std::uint64_t num = e_in + c;
      const std::uint64_t den = e_out + rdeg - 2ULL * c;
      const bool wins =
          best == kInvalidVertex ||
          better_fraction(num, den, best_num, best_den) ||
          (!better_fraction(best_num, best_den, num, den) &&
           (c > best_c || (c == best_c && (rdeg < best_r ||
                                           (rdeg == best_r && v < best)))));
      if (wins) {
        best = v;
        best_num = num;
        best_den = den;
        best_c = c;
        best_r = rdeg;
      }
      ++it;
    }
    return best;
  }

 private:
  struct Candidate {
    std::uint32_t c = 0;
    std::uint32_t rdeg = 0;
    double mu1 = 0.0;
  };

  struct HeapEntry {
    double mu1;
    VertexId vertex;
    friend bool operator<(const HeapEntry& a, const HeapEntry& b) {
      if (a.mu1 != b.mu1) return a.mu1 < b.mu1;
      return a.vertex > b.vertex;
    }
  };

  using Bucket = ScratchArena::Lease<std::pair<std::uint32_t, VertexId>>;

  ScratchArena* arena_;
  std::unordered_map<VertexId, Candidate> candidates_;
  ScratchArena::Lease<HeapEntry> stage1_heap_;
  std::map<std::uint32_t, Bucket> stage2_buckets_;

  void stage1_push(double mu1, VertexId v) {
    stage1_heap_->push_back({mu1, v});
    std::push_heap(stage1_heap_->begin(), stage1_heap_->end());
  }

  void bucket_push(std::uint32_t c, std::uint32_t rdeg, VertexId v) {
    const auto it = stage2_buckets_.find(c);
    Bucket& bucket = it != stage2_buckets_.end()
                         ? it->second
                         : stage2_buckets_
                               .emplace(c, arena_->acquire<
                                               std::pair<std::uint32_t,
                                                         VertexId>>(0))
                               .first->second;
    bucket->push_back({rdeg, v});
    std::push_heap(bucket->begin(), bucket->end(), std::greater<>{});
  }

  [[nodiscard]] bool bucket_entry_live(std::uint32_t c, VertexId v) const {
    const auto it = candidates_.find(v);
    return it != candidates_.end() && it->second.c == c;
  }
};

/// Faithful copy of the pre-change sequential growth loop (core/tlp.cpp's
/// GrowthRun), driving the legacy Frontier and the pre-change merge-cost
/// model. Telemetry flushes are stripped (they were per-round, not
/// per-join, so the baseline timing is if anything flattered).
class GrowthRun {
 public:
  GrowthRun(const Graph& g, const PartitionConfig& config,
            const TlpOptions& options, RunContext& ctx)
      : g_(g),
        config_(config),
        options_(options),
        residual_(g, ctx.arena()),
        partition_(config.num_partitions, g.num_edges()),
        frontier_(ctx.arena()),
        member_round_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(),
                                                         kNoRound)),
        count_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        touched_(ctx.arena().acquire<VertexId>(0)),
        residual_neighbors_(ctx.arena().acquire<VertexId>(0)),
        seed_order_(ctx.arena().acquire<VertexId>(g.num_vertices())) {
    std::iota(seed_order_->begin(), seed_order_->end(), VertexId{0});
    std::mt19937_64 rng(config.seed);
    std::shuffle(seed_order_->begin(), seed_order_->end(), rng);
  }

  EdgePartition run() {
    const PartitionId p = config_.num_partitions;
    const EdgeId capacity = config_.capacity(g_.num_edges());
    for (PartitionId k = 0; k < p && residual_.unassigned_count() > 0; ++k) {
      const bool last = (k + 1 == p);
      const EdgeId round_capacity =
          (last && options_.empty_frontier == EmptyFrontierPolicy::kRestart)
              ? std::numeric_limits<EdgeId>::max()
              : capacity;
      grow_partition(k, round_capacity);
    }
    if (residual_.unassigned_count() > 0) {
      (void)spill_to_lightest(partition_);
    }
    return std::move(partition_);
  }

 private:
  static constexpr std::uint32_t kNoRound =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool is_member(VertexId v) const {
    return member_round_[v] == current_round_;
  }

  VertexId next_seed() {
    while (seed_cursor_ < seed_order_->size()) {
      const VertexId v = (*seed_order_)[seed_cursor_];
      if (residual_.residual_degree(v) > 0) return v;
      ++seed_cursor_;
    }
    return kInvalidVertex;
  }

  [[nodiscard]] double stage1_term(VertexId u, VertexId v) const {
    const std::size_t dv = g_.degree(v);
    if (dv == 0) return 0.0;
    return static_cast<double>(legacy::common_neighbor_count(g_, u, v)) /
           static_cast<double>(dv);
  }

  void join(VertexId v, PartitionId k) {
    if (frontier_.contains(v)) frontier_.remove(v);
    member_round_[v] = current_round_;

    residual_neighbors_->clear();
    const std::size_t dv = g_.degree(v);
    std::size_t two_hop_cost = 0;
    std::size_t merge_cost = 0;
    for (const Neighbor& nb : g_.neighbors(v)) {
      two_hop_cost += g_.degree(nb.vertex);
      if (residual_.is_assigned(nb.edge)) continue;
      if (is_member(nb.vertex)) {
        residual_.mark_assigned(nb.edge);
        partition_.assign(nb.edge, k);
        ++e_in_;
        --e_out_;
      } else {
        ++e_out_;
        residual_neighbors_->push_back(nb.vertex);
        const std::size_t du = g_.degree(nb.vertex);
        merge_cost += std::min(du + dv, 16 * std::min(du, dv) + 16);
      }
    }
    if (residual_neighbors_->empty() || dv == 0) return;

    if (two_hop_cost < merge_cost) {
      for (const Neighbor& w : g_.neighbors(v)) {
        for (const Neighbor& u : g_.neighbors(w.vertex)) {
          if (count_[u.vertex]++ == 0) touched_->push_back(u.vertex);
        }
      }
      for (const VertexId u : *residual_neighbors_) {
        const double term =
            static_cast<double>(count_[u]) / static_cast<double>(dv);
        frontier_.add_connection(u, term, residual_.residual_degree(u));
      }
      for (const VertexId u : *touched_) count_[u] = 0;
      touched_->clear();
    } else {
      for (const VertexId u : *residual_neighbors_) {
        const double bound =
            static_cast<double>(std::min(g_.degree(u), dv)) /
            static_cast<double>(dv);
        frontier_.add_connection(u, residual_.residual_degree(u), bound,
                                 [this, u, v] { return stage1_term(u, v); });
      }
    }
  }

  [[nodiscard]] bool in_stage1(EdgeId capacity) const {
    if (options_.stage_rule == StageRule::kModularity) {
      return e_in_ <= e_out_;
    }
    const double threshold =
        options_.stage_ratio * static_cast<double>(capacity);
    return static_cast<double>(e_in_) < threshold;
  }

  void grow_partition(PartitionId k, EdgeId round_capacity) {
    current_round_ = k;
    frontier_.clear();
    e_in_ = 0;
    e_out_ = 0;
    std::size_t joins = 0;

    const EdgeId stage_capacity = config_.capacity(g_.num_edges());

    while (e_in_ < round_capacity && residual_.unassigned_count() > 0) {
      if (frontier_.empty()) {
        if (joins > 0 &&
            options_.empty_frontier == EmptyFrontierPolicy::kStrict) {
          break;
        }
        const VertexId seed = next_seed();
        if (seed == kInvalidVertex) break;
        join(seed, k);
        ++joins;
        continue;
      }

      const bool stage1 = in_stage1(stage_capacity);
      const VertexId v = stage1 ? frontier_.select_stage1()
                                : frontier_.select_stage2(e_in_, e_out_);
      if (!options_.allow_overshoot && e_in_ > 0 &&
          e_in_ + frontier_.connections(v) > round_capacity) {
        break;
      }
      join(v, k);
      ++joins;
      total_joins_ += 1;
    }
  }

  const Graph& g_;
  const PartitionConfig& config_;
  const TlpOptions& options_;

  ResidualState residual_;
  EdgePartition partition_;
  Frontier frontier_;
  ScratchArena::Lease<std::uint32_t> member_round_;
  std::uint32_t current_round_ = kNoRound;
  EdgeId e_in_ = 0;
  EdgeId e_out_ = 0;

  ScratchArena::Lease<std::uint32_t> count_;
  ScratchArena::Lease<VertexId> touched_;
  ScratchArena::Lease<VertexId> residual_neighbors_;

  ScratchArena::Lease<VertexId> seed_order_;
  std::size_t seed_cursor_ = 0;
  std::size_t total_joins_ = 0;
};

}  // namespace tlp::legacy

namespace {

using namespace tlp;
using tlp::bench::fmt_double;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over the raw assignment vector — a stable fingerprint for the
/// JSON record (byte comparisons happen in-process).
std::uint64_t fingerprint(const std::vector<PartitionId>& assignment) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const PartitionId p : assignment) {
    h ^= static_cast<std::uint64_t>(p) + 1;
    h *= 1099511628211ULL;
  }
  return h;
}

struct EndToEnd {
  double legacy_s = 0.0;
  double flat_s = 0.0;
  double joins = 0.0;
};

/// Times `reps` warm runs of both loops (one untimed warm-up each) and
/// keeps the fastest — steady-state comparison on a shared-arena context.
EndToEnd time_end_to_end(const Graph& g, const PartitionConfig& config,
                         const TlpOptions& options, int reps) {
  EndToEnd r;
  r.legacy_s = std::numeric_limits<double>::infinity();
  r.flat_s = std::numeric_limits<double>::infinity();

  RunContext legacy_ctx;
  (void)legacy::GrowthRun(g, config, options, legacy_ctx).run();  // warm-up
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)legacy::GrowthRun(g, config, options, legacy_ctx).run();
    r.legacy_s = std::min(r.legacy_s, seconds_since(t0));
  }

  const TlpPartitioner flat{options};
  RunContext flat_ctx;
  (void)flat.partition(g, config, flat_ctx);  // warm-up
  for (int i = 0; i < reps; ++i) {
    flat_ctx.telemetry().clear();
    const auto t0 = std::chrono::steady_clock::now();
    (void)flat.partition(g, config, flat_ctx);
    r.flat_s = std::min(r.flat_s, seconds_since(t0));
  }
  if (const std::vector<double>* joins =
          flat_ctx.telemetry().series("round_joins")) {
    for (const double j : *joins) r.joins += j;
  }
  return r;
}

struct SelectMicro {
  double flat_ns = 0.0;
  double legacy_ns = 0.0;
};

/// Frontier-level select latency: K candidates, then interleaved
/// stage-1/stage-2 selections with light churn (an update every 8
/// selections keeps the lazy heaps honest). Reports ns per selection pair.
template <typename FrontierT, typename AddFn>
double select_loop_ns(FrontierT& f, const AddFn& add, std::size_t k,
                      int iters) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint32_t> rdeg_dist(2, 40);
  std::vector<std::uint32_t> rdeg(k);
  for (std::size_t v = 0; v < k; ++v) {
    rdeg[v] = rdeg_dist(rng);
    add(f, static_cast<VertexId>(v), rdeg[v],
        static_cast<double>((v * 2654435761U) % 1000) / 1000.0);
  }
  const EdgeId e_out = static_cast<EdgeId>(k) + 500;
  std::uniform_int_distribution<std::size_t> pick(0, k - 1);
  VertexId sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    sink ^= f.select_stage1();
    sink ^= f.select_stage2(static_cast<EdgeId>(i % 400), e_out);
    if (i % 8 == 0) {
      const std::size_t v = pick(rng);
      add(f, static_cast<VertexId>(v), rdeg[v],
          static_cast<double>(i % 1000) / 1000.0);
    }
  }
  const double total_s = seconds_since(t0);
  if (sink == kInvalidVertex) std::cout << "";  // keep the loop observable
  return total_s / static_cast<double>(iters) * 1e9;
}

/// Edge-sampled vertex pairs for the intersection micro: real adjacency
/// lists (power-law degrees, hub pairs included) rather than synthetic
/// arrays, so the merge/gallop mix matches what the partitioners see.
std::vector<std::pair<VertexId, VertexId>> sample_pairs(const Graph& g,
                                                        std::size_t want) {
  std::mt19937_64 rng(1234);
  std::uniform_int_distribution<EdgeId> pick(0, g.num_edges() - 1);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    const Edge& e = g.edge(pick(rng));
    pairs.emplace_back(e.u, e.v);
  }
  return pairs;
}

/// ns per common_neighbor_count call over `pairs` through the CURRENTLY
/// ACTIVE kernel (best of `reps` sweeps). The checksum both defeats DCE
/// and cross-checks kernels: every kernel must accumulate the same sum.
std::pair<double, std::uint64_t> intersect_micro_ns(
    const Graph& g, const std::vector<std::pair<VertexId, VertexId>>& pairs,
    int reps) {
  double best_s = std::numeric_limits<double>::infinity();
  std::uint64_t checksum = 0;
  for (int r = 0; r < reps + 1; ++r) {  // rep 0 is the untimed warm-up
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [u, v] : pairs) {
      sum += g.common_neighbor_count(u, v);
    }
    const double s = seconds_since(t0);
    if (r > 0) best_s = std::min(best_s, s);
    checksum = sum;
  }
  return {best_s / static_cast<double>(pairs.size()) * 1e9, checksum};
}

/// One kernel's row of the sweep: micro latency, end-to-end flat time, and
/// identity of its partition against the scalar reference.
struct KernelRow {
  std::string name;
  double intersect_ns = 0.0;
  std::uint64_t checksum = 0;
  double e2e_s = 0.0;
  bool identical_to_scalar = true;
  std::uint64_t fp = 0;
};

SelectMicro select_micro(std::size_t k, int iters) {
  SelectMicro m;
  {
    ScratchArena arena;
    Frontier f(arena, static_cast<VertexId>(k));
    // Updates go through upsert (exact re-statement) so repeated calls are
    // legal for an existing candidate with a changed score.
    const auto add = [](Frontier& fr, VertexId v, std::uint32_t rdeg,
                        double term) { fr.upsert(v, 1, rdeg, term); };
    m.flat_ns = select_loop_ns(f, add, k, iters);
  }
  {
    ScratchArena arena;
    legacy::Frontier f(arena);
    const auto add = [](legacy::Frontier& fr, VertexId v, std::uint32_t rdeg,
                        double term) {
      if (fr.contains(v)) {
        fr.remove(v);
      }
      fr.add_connection(v, term, rdeg);
    };
    m.legacy_ns = select_loop_ns(f, add, k, iters);
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tlp;
  using namespace tlp::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  VertexId n = smoke ? 4000 : 100000;
  EdgeId m = smoke ? 24000 : 800000;
  double gamma = 2.1;
  PartitionId p = smoke ? 8 : 32;
  const std::uint64_t graph_seed = 7;
  const int reps = smoke ? 2 : 4;
  for (int i = 1; i < argc; ++i) {  // fixture overrides for experiments
    if (std::strncmp(argv[i], "--n=", 4) == 0) n = std::stoul(argv[i] + 4);
    if (std::strncmp(argv[i], "--m=", 4) == 0) m = std::stoul(argv[i] + 4);
    if (std::strncmp(argv[i], "--p=", 4) == 0) {
      p = static_cast<PartitionId>(std::stoul(argv[i] + 4));
    }
    if (std::strncmp(argv[i], "--gamma=", 8) == 0) {
      gamma = std::stod(argv[i] + 8);
    }
  }

  std::cout << "== Hot-path micro: flat growth structures vs legacy "
               "node-based containers ==\n";
  const Graph g = gen::chung_lu_power_law(n, m, gamma, graph_seed);
  std::cout << g.summary() << " (power-law gamma " << gamma << "), p = "
            << static_cast<int>(p) << (smoke ? ", smoke fixture" : "")
            << ", active kernel = "
            << intersect::kernel_name(intersect::active_kind()) << "\n\n";

  PartitionConfig config;
  config.num_partitions = p;

  bool all_ok = true;
  std::string identity_json;

  // --- Bit-identity: flat partitioners vs the embedded pre-change loop ---
  {
    Table t({"variant", "identical", "fingerprint"});
    struct Variant {
      std::string name;
      TlpOptions options;
    };
    std::vector<Variant> variants;
    variants.push_back({"tlp", TlpOptions{}});
    TlpOptions r05;
    r05.stage_rule = StageRule::kEdgeRatio;
    r05.stage_ratio = 0.5;
    variants.push_back({"tlp_r0.5", r05});

    for (const Variant& variant : variants) {
      RunContext flat_ctx;
      const EdgePartition flat_part =
          TlpPartitioner{variant.options}.partition(g, config, flat_ctx);
      RunContext legacy_ctx;
      const EdgePartition legacy_part =
          legacy::GrowthRun(g, config, variant.options, legacy_ctx).run();
      const bool identical = flat_part.raw() == legacy_part.raw();
      all_ok = all_ok && identical;
      t.add_row({variant.name, identical ? "yes" : "NO",
                 std::to_string(fingerprint(flat_part.raw()))});
      if (!identity_json.empty()) identity_json += ',';
      identity_json += "{\"variant\":\"" + variant.name +
                       "\",\"vs_legacy_identical\":" +
                       (identical ? "true" : "false") + ",\"fingerprint\":" +
                       std::to_string(fingerprint(flat_part.raw())) + "}";
    }

    // multi_tlp: byte-identical across worker counts.
    std::vector<PartitionId> multi_baseline;
    bool multi_identical = true;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      MultiTlpOptions options;
      options.num_threads = threads;
      RunContext ctx;
      const EdgePartition part =
          MultiTlpPartitioner{options}.partition(g, config, ctx);
      if (multi_baseline.empty()) {
        multi_baseline = part.raw();
      } else {
        multi_identical = multi_identical && part.raw() == multi_baseline;
      }
    }
    all_ok = all_ok && multi_identical;
    t.add_row({"multi_tlp x{1,2,8}", multi_identical ? "yes" : "NO",
               std::to_string(fingerprint(multi_baseline))});
    identity_json += ",{\"variant\":\"multi_tlp\",\"threads\":[1,2,8],"
                     "\"cross_thread_identical\":";
    identity_json += multi_identical ? "true" : "false";
    identity_json += ",\"fingerprint\":" +
                     std::to_string(fingerprint(multi_baseline)) + "}";
    t.print(std::cout);
  }

  // --- Steady-state allocations: warm context must stop missing ---
  std::uint64_t warm_miss_growth = 0;
  {
    RunContext ctx;
    (void)TlpPartitioner{}.partition(g, config, ctx);
    const std::uint64_t misses_after_first = ctx.arena().misses();
    (void)TlpPartitioner{}.partition(g, config, ctx);
    warm_miss_growth = ctx.arena().misses() - misses_after_first;
    all_ok = all_ok && warm_miss_growth == 0;
    std::cout << "\nwarm-run arena miss growth: " << warm_miss_growth
              << (warm_miss_growth == 0 ? " (steady state: no allocations)"
                                        : " — REGRESSION")
              << "\n";
  }

  // --- End-to-end speedup (single thread, modularity rule) ---
  const EndToEnd e2e = time_end_to_end(g, config, TlpOptions{}, reps);
  const double speedup = e2e.legacy_s / e2e.flat_s;
  const double joins_per_s = e2e.joins / e2e.flat_s;
  std::cout << "\nend-to-end (best of " << reps << " warm reps):\n"
            << "  legacy  " << fmt_double(e2e.legacy_s, 4) << " s\n"
            << "  flat    " << fmt_double(e2e.flat_s, 4) << " s  ("
            << fmt_double(joins_per_s, 0) << " joins/s)\n"
            << "  speedup " << fmt_double(speedup, 2) << "x (target >= 1.3x"
            << (smoke ? "; informational on the smoke fixture" : "")
            << ")\n";

  // --- Frontier-level select latency ---
  const SelectMicro micro =
      select_micro(smoke ? 2000 : 20000, smoke ? 20000 : 50000);
  std::cout << "\nselect latency (stage1+stage2 pair, "
            << (smoke ? 2000 : 20000) << " candidates):\n"
            << "  legacy  " << fmt_double(micro.legacy_ns, 0) << " ns\n"
            << "  flat    " << fmt_double(micro.flat_ns, 0) << " ns\n";

  // --- SIMD kernel sweep: per-kernel intersection micro + e2e + identity ---
  std::string kernels_json;
  {
    const intersect::Kernel entry_kind = intersect::active_kind();
    // Scalar is always the first row (it is the identity reference).
    std::vector<intersect::Kernel> sweep{intersect::Kernel::kScalar};
    if (intersect::supported(intersect::Kernel::kAvx2)) {
      sweep.push_back(intersect::Kernel::kAvx2);
    }
    const auto pairs = sample_pairs(g, smoke ? 20000 : 100000);
    const int kreps = smoke ? 2 : 3;

    std::vector<KernelRow> rows;
    std::vector<PartitionId> scalar_raw;
    for (const intersect::Kernel k : sweep) {
      (void)intersect::set_active(k);
      KernelRow row;
      row.name = intersect::kernel_name(k);
      const auto [ns, checksum] = intersect_micro_ns(g, pairs, kreps);
      row.intersect_ns = ns;
      row.checksum = checksum;

      const TlpPartitioner flat{};
      RunContext ctx;
      const EdgePartition part = flat.partition(g, config, ctx);  // warm-up
      double best_s = std::numeric_limits<double>::infinity();
      for (int i = 0; i < reps; ++i) {
        ctx.telemetry().clear();
        const auto t0 = std::chrono::steady_clock::now();
        (void)flat.partition(g, config, ctx);
        best_s = std::min(best_s, seconds_since(t0));
      }
      row.e2e_s = best_s;
      row.fp = fingerprint(part.raw());
      if (k == intersect::Kernel::kScalar) {
        scalar_raw = part.raw();
      } else {
        row.identical_to_scalar =
            part.raw() == scalar_raw && checksum == rows.front().checksum;
      }
      all_ok = all_ok && row.identical_to_scalar;
      rows.push_back(std::move(row));
    }
    (void)intersect::set_active(entry_kind);

    const double scalar_ns = rows.front().intersect_ns;
    const double scalar_e2e = rows.front().e2e_s;
    Table t({"kernel", "intersect ns", "vs scalar", "e2e s", "vs scalar",
             "identical"});
    for (const KernelRow& row : rows) {
      t.add_row({row.name, fmt_double(row.intersect_ns, 1),
                 fmt_double(scalar_ns / row.intersect_ns, 2) + "x",
                 fmt_double(row.e2e_s, 4),
                 fmt_double(scalar_e2e / row.e2e_s, 2) + "x",
                 row.identical_to_scalar ? "yes" : "NO"});
      if (!kernels_json.empty()) kernels_json += ',';
      kernels_json +=
          "{\"name\":\"" + row.name + "\",\"intersect_ns\":" +
          fmt_double(row.intersect_ns, 2) +
          ",\"intersect_speedup_vs_scalar\":" +
          fmt_double(scalar_ns / row.intersect_ns, 3) + ",\"e2e_s\":" +
          fmt_double(row.e2e_s, 6) + ",\"e2e_speedup_vs_scalar\":" +
          fmt_double(scalar_e2e / row.e2e_s, 3) +
          ",\"identical_to_scalar\":" +
          (row.identical_to_scalar ? "true" : "false") + ",\"fingerprint\":" +
          std::to_string(row.fp) + "}";
    }
    std::cout << "\nkernel sweep (" << pairs.size()
              << " edge-sampled intersections; vector target >= 2x scalar "
                 "micro):\n";
    t.print(std::cout);
  }

  std::string json =
      "{\"bench\":\"hotpath\",\"mode\":\"" +
      std::string(smoke ? "smoke" : "full") + "\",\"graph\":{\"n\":" +
      std::to_string(g.num_vertices()) + ",\"m\":" +
      std::to_string(g.num_edges()) +
      ",\"model\":\"chung_lu_power_law\",\"gamma\":" + fmt_double(gamma, 2) +
      ",\"seed\":" + std::to_string(graph_seed) + "},\"p\":" +
      std::to_string(static_cast<int>(p)) + ",\"identity\":[" +
      identity_json + "],\"warm_miss_growth\":" +
      std::to_string(warm_miss_growth) + ",\"end_to_end\":{\"legacy_s\":" +
      fmt_double(e2e.legacy_s, 6) + ",\"flat_s\":" + fmt_double(e2e.flat_s, 6) +
      ",\"speedup\":" + fmt_double(speedup, 4) + ",\"joins\":" +
      fmt_double(e2e.joins, 0) + ",\"joins_per_s\":" +
      fmt_double(joins_per_s, 0) + "},\"select_micro\":{\"legacy_ns\":" +
      fmt_double(micro.legacy_ns, 1) + ",\"flat_ns\":" +
      fmt_double(micro.flat_ns, 1) + "},\"active_kernel\":\"" +
      std::string(intersect::kernel_name(intersect::active_kind())) +
      "\",\"kernels\":[" + kernels_json + "],\"ok\":";
  json += all_ok ? "true" : "false";
  json += "}";
  std::ofstream("BENCH_hotpath.json") << json << '\n';
  std::cout << "\nwrote BENCH_hotpath.json\n";

  if (!all_ok) {
    std::cerr << "FATAL: identity or steady-state allocation check failed\n";
    return 1;
  }
  return 0;
}
