#include "core/tlp.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/frontier.hpp"
#include "core/residual.hpp"
#include "graph/intersect_kernels.hpp"
#include "partition/spill.hpp"
#include "util/simd.hpp"

namespace tlp {
namespace {

/// How many inner-loop iterations ahead the two-hop counting pass issues a
/// write prefetch for its count_[u] target. Far enough to beat a memory
/// round-trip at ~1 increment/cycle, near enough to stay inside most
/// adjacency lists.
constexpr std::size_t kCountPrefetchDistance = 8;

/// Per-round tallies, kept in plain locals during the hot loop and flushed
/// into the telemetry sink once per round (hot joins never touch the
/// string-keyed maps).
struct RoundLocal {
  VertexId seed = kInvalidVertex;
  std::size_t joins = 0;
  std::size_t stage1_joins = 0;
  std::size_t stage2_joins = 0;
  std::size_t restarts = 0;
  EdgeId edges = 0;
  std::vector<double> modularity_samples;
};

/// Whole-run tallies, flushed once at the end of the run.
struct RunLocal {
  std::size_t stage1_joins = 0;
  std::size_t stage2_joins = 0;
  double stage1_degree_sum = 0.0;
  double stage2_degree_sum = 0.0;
  std::size_t restarts = 0;
  EdgeId spilled_edges = 0;
  std::size_t peak_frontier = 0;
  std::size_t peak_members = 0;
  std::size_t capacity_closes = 0;
  std::size_t strict_round_ends = 0;
};

/// One full TLP run over a graph. Owns all per-run mutable state so the
/// public partitioner object stays stateless/reusable; every O(n)/O(m)
/// buffer is leased from the context's scratch arena.
class GrowthRun {
 public:
  GrowthRun(const Graph& g, const PartitionConfig& config,
            const TlpOptions& options, RunContext& ctx)
      : g_(g),
        config_(config),
        options_(options),
        ctx_(ctx),
        residual_(g, ctx.arena()),
        partition_(config.num_partitions, g.num_edges()),
        frontier_(ctx.arena(), g.num_vertices()),
        member_round_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(),
                                                         kNoRound)),
        count_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        touched_(ctx.arena().acquire<VertexId>(0)),
        residual_neighbors_(ctx.arena().acquire<VertexId>(0)),
        terms_(ctx.arena().acquire<double>(0)),
        seed_order_(ctx.arena().acquire<VertexId>(g.num_vertices())) {
    // A fixed random permutation provides the paper's "select vertex x from
    // G randomly" deterministically: each (re)seed takes the next vertex in
    // the permutation that still has residual edges.
    std::iota(seed_order_->begin(), seed_order_->end(), VertexId{0});
    std::mt19937_64 rng(config.seed);
    std::shuffle(seed_order_->begin(), seed_order_->end(), rng);
  }

  EdgePartition run() {
    const PartitionId p = config_.num_partitions;
    const EdgeId capacity = config_.capacity(g_.num_edges());
    for (PartitionId k = 0; k < p && residual_.unassigned_count() > 0; ++k) {
      ctx_.check_cancelled();
      // In the default (restart) mode the final round must absorb whatever
      // remains so that exactly p partitions cover E.
      const bool last = (k + 1 == p);
      const EdgeId round_capacity =
          (last && options_.empty_frontier == EmptyFrontierPolicy::kRestart)
              ? std::numeric_limits<EdgeId>::max()
              : capacity;
      grow_partition(k, round_capacity);
    }
    if (residual_.unassigned_count() > 0) {
      spill_remaining();
    }
    flush_totals();
    return std::move(partition_);
  }

 private:
  static constexpr std::uint32_t kNoRound =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool is_member(VertexId v) const {
    return member_round_[v] == current_round_;
  }

  /// Next seed vertex with residual edges, or kInvalidVertex if exhausted.
  /// Only called when the frontier is empty, which implies no current member
  /// has residual edges — so any vertex with residual degree > 0 is a valid
  /// fresh seed. Residual degrees never grow, so the cursor only advances.
  VertexId next_seed() {
    while (seed_cursor_ < seed_order_->size()) {
      const VertexId v = (*seed_order_)[seed_cursor_];
      if (residual_.residual_degree(v) > 0) {
        assert(!is_member(v));
        return v;
      }
      ++seed_cursor_;
    }
    return kInvalidVertex;
  }

  /// Stage-I score contribution of candidate u via joining member v (Eq. 7):
  /// |N(u) ∩ N(v)| / |N(v)| on the static graph.
  [[nodiscard]] double stage1_term(VertexId u, VertexId v) const {
    const std::size_t dv = g_.degree(v);
    if (dv == 0) return 0.0;
    return static_cast<double>(g_.common_neighbor_count(u, v)) /
           static_cast<double>(dv);
  }

  /// Adds v to the current partition: claims all residual edges between v
  /// and members, extends the frontier with v's remaining residual edges.
  ///
  /// Stage-I scoring strategy is chosen per join: either per-candidate
  /// sorted-list intersections, or one shared counting pass over v's
  /// two-hop neighborhood (cn(u, v) for ALL u at once) — the latter removes
  /// the rdeg(v) * deg(v) blowup when hubs join, which dominates runtime on
  /// power-law graphs.
  void join(VertexId v, PartitionId k) {
    frontier_.remove(v);  // no-op for seeds
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
        assert(e_out_ > 0);
        --e_out_;
      } else {
        ++e_out_;
        residual_neighbors_->push_back(nb.vertex);
        merge_cost += Graph::intersection_cost(g_.degree(nb.vertex), dv);
      }
    }
    if (residual_neighbors_->empty() || dv == 0) return;

    if (two_hop_cost < merge_cost) {
      // Shared counting pass: count_[u] = |N(u) ∩ N(v)| for every two-hop u.
      // Walks the vertex-only adjacency mirror — this loop is pure memory
      // bandwidth and never needs the edge ids. Two software prefetches
      // hide the pass's two cache-miss streams: the NEXT one-hop
      // neighbor's adjacency head (so list w+1 is in flight while list w
      // is scanned) and the count_[u] cells a few iterations ahead (the
      // increments are random-access over an O(n) array).
      const auto hops = g_.neighbor_ids(v);
      for (std::size_t i = 0; i < hops.size(); ++i) {
        if (i + 1 < hops.size()) g_.prefetch_neighbor_ids(hops[i + 1]);
        const auto ids = g_.neighbor_ids(hops[i]);
        for (std::size_t j = 0; j < ids.size(); ++j) {
          if (j + kCountPrefetchDistance < ids.size()) {
            simd::prefetch_write(&count_[ids[j + kCountPrefetchDistance]]);
          }
          const VertexId u = ids[j];
          if (count_[u]++ == 0) touched_->push_back(u);
        }
      }
      // Batched Eq. 7 terms through the active kernel: one gather+divide
      // sweep instead of a scalar division per candidate. Every kernel
      // performs the same correctly-rounded IEEE double division, so the
      // terms — and hence the partition — are kernel-invariant.
      const std::size_t n = residual_neighbors_->size();
      terms_->resize(n);
      intersect::active().stage1_terms(count_->data(),
                                       residual_neighbors_->data(), n,
                                       static_cast<double>(dv),
                                       terms_->data());
      for (std::size_t i = 0; i < n; ++i) {
        const VertexId u = (*residual_neighbors_)[i];
        frontier_.add_connection(u, residual_.residual_degree(u),
                                 (*terms_)[i]);
      }
      for (const VertexId u : *touched_) count_[u] = 0;
      touched_->clear();
    } else {
      for (const VertexId u : *residual_neighbors_) {
        // Upper bound on the Eq. 7 term: |N(u) ∩ N(v)| <= min(deg u, deg v).
        const double bound =
            static_cast<double>(std::min(g_.degree(u), dv)) /
            static_cast<double>(dv);
        frontier_.add_connection(u, residual_.residual_degree(u), bound,
                                 [this, u, v] { return stage1_term(u, v); });
      }
    }
  }

  /// True while the current partition is in Stage I under the configured
  /// rule. TLP: M(P_k) <= 1, i.e. e_in <= e_out (Algorithm 1 line 5; covers
  /// the empty-partition M=0 case and routes e_out=0 to Stage II).
  [[nodiscard]] bool in_stage1(EdgeId capacity) const {
    if (options_.stage_rule == StageRule::kModularity) {
      return e_in_ <= e_out_;
    }
    // Strict comparison implements Table V: R = 0 means Stage II only (the
    // empty partition is not "in Stage I"), R = 1 means Stage I throughout.
    const double threshold =
        options_.stage_ratio * static_cast<double>(capacity);
    return static_cast<double>(e_in_) < threshold;
  }

  void grow_partition(PartitionId k, EdgeId round_capacity) {
    current_round_ = k;
    frontier_.clear();
    e_in_ = 0;
    e_out_ = 0;
    RoundLocal round;

    // The TLP_R stage threshold is defined against the nominal capacity C,
    // not the uncapped last round.
    const EdgeId stage_capacity = config_.capacity(g_.num_edges());

    while (e_in_ < round_capacity && residual_.unassigned_count() > 0) {
      if (frontier_.empty()) {
        if (round.joins > 0 &&
            options_.empty_frontier == EmptyFrontierPolicy::kStrict) {
          ++totals_.strict_round_ends;
          break;  // Algorithm 1 line 11-12
        }
        const VertexId seed = next_seed();
        if (seed == kInvalidVertex) break;
        if (round.joins > 0) ++round.restarts;
        if (round.seed == kInvalidVertex) round.seed = seed;
        join(seed, k);
        ++round.joins;
        totals_.peak_frontier =
            std::max(totals_.peak_frontier, frontier_.size());
        continue;
      }

      const bool stage1 = in_stage1(stage_capacity);
      const VertexId v = stage1 ? frontier_.select_stage1()
                                : frontier_.select_stage2(e_in_, e_out_);
      assert(v != kInvalidVertex);
      if (!options_.allow_overshoot && e_in_ > 0 &&
          e_in_ + frontier_.connections(v) > round_capacity) {
        ++totals_.capacity_closes;
        break;  // joining v would blow the capacity; close the round
      }
      join(v, k);
      ++round.joins;
      if (stage1) {
        ++round.stage1_joins;
        ++totals_.stage1_joins;
        totals_.stage1_degree_sum += static_cast<double>(g_.degree(v));
      } else {
        ++round.stage2_joins;
        ++totals_.stage2_joins;
        totals_.stage2_degree_sum += static_cast<double>(g_.degree(v));
      }
      totals_.peak_frontier = std::max(totals_.peak_frontier, frontier_.size());
      if (options_.modularity_sample_stride != 0 &&
          round.joins % options_.modularity_sample_stride == 0) {
        round.modularity_samples.push_back(
            e_out_ == 0 ? std::numeric_limits<double>::infinity()
                        : static_cast<double>(e_in_) /
                              static_cast<double>(e_out_));
      }
    }

    round.edges = e_in_;
    totals_.peak_members = std::max(totals_.peak_members, round.joins);
    totals_.restarts += round.restarts;
    flush_round(k, round);
  }

  /// Strict-mode fallback: distribute edges left after p rounds to the
  /// lightest partitions (keeps the result a complete p-partition).
  void spill_remaining() {
    totals_.spilled_edges += spill_to_lightest(partition_);
  }

  void flush_round(PartitionId k, const RoundLocal& round) {
    Telemetry& t = ctx_.telemetry();
    t.append("round_seed", round.seed == kInvalidVertex
                               ? -1.0
                               : static_cast<double>(round.seed));
    t.append("round_joins", static_cast<double>(round.joins));
    t.append("round_stage1_joins", static_cast<double>(round.stage1_joins));
    t.append("round_stage2_joins", static_cast<double>(round.stage2_joins));
    t.append("round_restarts", static_cast<double>(round.restarts));
    t.append("round_edges", static_cast<double>(round.edges));
    if (!round.modularity_samples.empty()) {
      const std::string key = "round" + std::to_string(k) + "_modularity";
      for (const double m : round.modularity_samples) t.append(key, m);
    }
  }

  void flush_totals() {
    Telemetry& t = ctx_.telemetry();
    t.add("stage1_joins", static_cast<double>(totals_.stage1_joins));
    t.add("stage2_joins", static_cast<double>(totals_.stage2_joins));
    t.add("stage1_degree_sum", totals_.stage1_degree_sum);
    t.add("stage2_degree_sum", totals_.stage2_degree_sum);
    t.add("restarts", static_cast<double>(totals_.restarts));
    t.add("spilled_edges", static_cast<double>(totals_.spilled_edges));
    t.add("capacity_closes", static_cast<double>(totals_.capacity_closes));
    t.add("strict_round_ends",
          static_cast<double>(totals_.strict_round_ends));
    t.set_max("peak_frontier", static_cast<double>(totals_.peak_frontier));
    t.set_max("peak_members", static_cast<double>(totals_.peak_members));
  }

  const Graph& g_;
  const PartitionConfig& config_;
  const TlpOptions& options_;
  RunContext& ctx_;

  ResidualState residual_;
  EdgePartition partition_;
  Frontier frontier_;
  ScratchArena::Lease<std::uint32_t> member_round_;
  std::uint32_t current_round_ = kNoRound;
  EdgeId e_in_ = 0;   ///< |E(P_k)| of the partition being grown
  EdgeId e_out_ = 0;  ///< residual external edges of the current partition

  // Scratch reused across joins (two-hop counting and neighbor staging).
  ScratchArena::Lease<std::uint32_t> count_;
  ScratchArena::Lease<VertexId> touched_;
  ScratchArena::Lease<VertexId> residual_neighbors_;
  ScratchArena::Lease<double> terms_;  ///< batched Eq. 7 terms per join

  ScratchArena::Lease<VertexId> seed_order_;
  std::size_t seed_cursor_ = 0;

  RunLocal totals_;
};

}  // namespace

std::string TlpPartitioner::name() const {
  if (options_.stage_rule == StageRule::kModularity) return "tlp";
  // %g keeps every distinct ratio distinct (tlp_r0.25 vs tlp_r0.2) without
  // trailing-zero noise.
  char buf[32];
  std::snprintf(buf, sizeof buf, "tlp_r%g", options_.stage_ratio);
  return buf;
}

EdgePartition TlpPartitioner::do_partition(const Graph& g,
                                           const PartitionConfig& config,
                                           RunContext& ctx) const {
  if (options_.stage_rule == StageRule::kEdgeRatio &&
      (options_.stage_ratio < 0.0 || options_.stage_ratio > 1.0)) {
    throw std::invalid_argument("TlpPartitioner: stage_ratio must be in [0,1]");
  }
  GrowthRun run(g, config, options_, ctx);
  return run.run();
}

TlpPartitioner make_tlp_r(double ratio) {
  TlpOptions options;
  options.stage_rule = StageRule::kEdgeRatio;
  options.stage_ratio = ratio;
  return TlpPartitioner(options);
}

}  // namespace tlp
