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
#include "core/stage1_scorer.hpp"
#include "partition/spill.hpp"

namespace tlp {
namespace {

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
        assignment_(static_cast<std::size_t>(g.num_edges()), kNoPartition),
        frontier_(ctx.arena(), g.num_vertices()),
        scorer_(g, ctx.arena(), assignment_),
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
    // Residual edges can be left only in strict mode; their words may hold
    // Stage-I count codes, which the spill must see as unassigned.
    const bool spill = residual_.unassigned_count() > 0;
    if (spill) Stage1Scorer::clear_counts(assignment_);
    EdgePartition partition(p, std::move(assignment_));
    if (spill) totals_.spilled_edges += spill_to_lightest(partition);
    flush_totals();
    return partition;
  }

 private:
  static constexpr std::size_t kCancelPollJoins = 4096;

  /// Next seed vertex with residual edges, or kInvalidVertex if exhausted.
  /// Only called when the frontier is empty, which implies no current member
  /// has residual edges — so any vertex with residual degree > 0 is a valid
  /// fresh seed. Residual degrees never grow, so the cursor only advances.
  VertexId next_seed() {
    while (seed_cursor_ < seed_order_->size()) {
      const VertexId v = (*seed_order_)[seed_cursor_];
      if (residual_.residual_degree(v) > 0) {
        assert(!frontier_.is_member(v));
        return v;
      }
      ++seed_cursor_;
    }
    return kInvalidVertex;
  }

  /// Adds v to the current partition: claims all residual edges between v
  /// and members, extends the frontier with v's remaining residual edges.
  ///
  /// Each new connection carries the Eq. 7 bound
  /// min(deg u, deg v) / deg v; the exact term |N(u) ∩ N(v)| / |N(v)|
  /// comes from the shared Stage-I scorer, and only when the bound beats
  /// u's running μs1. The scorer sets N(v)'s bits on the first such term
  /// and clears them when the join's scope ends; it counts each edge once
  /// per run and keeps the count in the edge's assignment word.
  ///
  /// The loop reads, for each neighbour u, u's frontier slot (member?
  /// candidate? its c, r, μs1) and its degree: random accesses into
  /// n-sized arrays. One pass first hints both for every neighbour, so the
  /// misses of all of N(v) overlap instead of being taken one neighbour at
  /// a time.
  void join(VertexId v, PartitionId k) {
    frontier_.add_member(v);

    const std::size_t dv = g_.degree(v);
    const auto neighbors = g_.neighbors(v);
    for (const Neighbor& nb : neighbors) {
      frontier_.prefetch(nb.vertex);
      g_.prefetch_degree(nb.vertex);
    }
    Stage1Scorer::Join scores(scorer_, v);
    for (const Neighbor& nb : neighbors) {
      if (residual_.is_assigned(nb.edge)) continue;
      const VertexId u = nb.vertex;
      if (frontier_.is_member(u)) {
        residual_.mark_assigned(nb.edge, v, u);
        assignment_[static_cast<std::size_t>(nb.edge)] = k;
        ++e_in_;
        assert(e_out_ > 0);
        --e_out_;
      } else {
        ++e_out_;
        // Upper bound on the Eq. 7 term: |N(u) ∩ N(v)| <= min(deg u, deg v).
        const double bound =
            static_cast<double>(std::min(g_.degree(u), dv)) /
            static_cast<double>(dv);
        frontier_.add_connection(
            u, residual_.residual_degree(u), bound,
            [&scores, u, e = nb.edge] { return scores.term(u, e); });
      }
    }
  }

  /// μs1(u) from scratch (Eq. 7) over the members that reach u by a
  /// residual edge — exactly the set of members whose joins called
  /// add_connection(u). The frontier calls it on a switch back to Stage I,
  /// for each candidate touched while Stage II was live.
  [[nodiscard]] double rescore_mu1(VertexId u) {
    return scorer_.mu1(u, [this](const Neighbor& nb) {
      return !residual_.is_assigned(nb.edge) && frontier_.is_member(nb.vertex);
    });
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
    frontier_.clear();
    e_in_ = 0;
    e_out_ = 0;
    RoundLocal round;

    // The TLP_R stage threshold is defined against the nominal capacity C,
    // not the uncapped last round.
    const EdgeId stage_capacity = config_.capacity(g_.num_edges());

    while (e_in_ < round_capacity && residual_.unassigned_count() > 0) {
      // One round can be the whole run (p = 1), so the cancel token is
      // also polled every kCancelPollJoins loop steps (one join each).
      if (++steps_ % kCancelPollJoins == 0) ctx_.check_cancelled();
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
      const VertexId v =
          stage1 ? frontier_.select_stage1(
                       [this](VertexId u) { return rescore_mu1(u); })
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
    t.add("stage_switches", static_cast<double>(frontier_.stage_switches()));
    t.add("stage1_intersections",
          static_cast<double>(scorer_.intersections()));
    t.set_max("peak_frontier", static_cast<double>(totals_.peak_frontier));
    t.set_max("peak_members", static_cast<double>(totals_.peak_members));
  }

  const Graph& g_;
  const PartitionConfig& config_;
  const TlpOptions& options_;
  RunContext& ctx_;

  ResidualState residual_;
  /// The output's assignment words; a residual edge's word holds
  /// kNoPartition or its Stage-I count code (core/stage1_scorer.hpp).
  std::vector<PartitionId> assignment_;
  Frontier frontier_;
  EdgeId e_in_ = 0;   ///< |E(P_k)| of the partition being grown
  EdgeId e_out_ = 0;  ///< residual external edges of the current partition

  Stage1Scorer scorer_;

  ScratchArena::Lease<VertexId> seed_order_;
  std::size_t seed_cursor_ = 0;
  std::size_t steps_ = 0;  ///< growth-loop steps, for the cancel poll

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
  Stage1Scorer::require_untagged_ids(config.num_partitions);
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
