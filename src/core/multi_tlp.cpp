#include "core/multi_tlp.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "core/frontier.hpp"
#include "core/residual.hpp"
#include "core/stage1_scorer.hpp"
#include "partition/replica_set.hpp"
#include "partition/spill.hpp"

namespace tlp {
namespace {

class MultiRun {
 public:
  MultiRun(const Graph& g, const PartitionConfig& config,
           const MultiTlpOptions& options, RunContext& ctx)
      : g_(g),
        config_(config),
        options_(options),
        ctx_(ctx),
        residual_(g, ctx.arena()),
        partition_(config.num_partitions, g.num_edges()),
        member_(ctx.arena(), g.num_vertices(), config.num_partitions),
        touched_(ctx.arena().acquire<std::uint8_t>(g.num_vertices(), 0)),
        epoch_(ctx.arena().acquire<std::uint32_t>(g.num_edges(), 0)),
        commit_mark_(ctx.arena().acquire<std::uint32_t>(g.num_edges(), 0)),
        claimant_(ctx.arena().acquire<PartitionId>(g.num_edges(),
                                                   kNoPartition)),
        events_(ctx.arena().acquire<EdgeId>(0)),
        joined_(ctx.arena().acquire<VertexId>(config.num_partitions,
                                              kInvalidVertex)),
        seed_order_(ctx.arena().acquire<VertexId>(g.num_vertices())),
        scorer_(g, ctx.arena()),
        refreshed_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        cmark_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        rmark_(ctx.arena().acquire<std::uint32_t>(g.num_vertices(), 0)),
        c_dirty_(ctx.arena().acquire<VertexId>(0)),
        rdeg_dirty_(ctx.arena().acquire<VertexId>(0)) {
    std::iota(seed_order_->begin(), seed_order_->end(), VertexId{0});
    std::mt19937_64 rng(config.seed);
    std::shuffle(seed_order_->begin(), seed_order_->end(), rng);

    // Per-PARTITION state leases from the per-partition child arena
    // ctx.child(k), so a warm rerun hands each partition its own buffers
    // back (its frontier grows to the size of that partition's region).
    parts_.reserve(config.num_partitions);
    for (PartitionId k = 0; k < config.num_partitions; ++k) {
      parts_.emplace_back(ctx.child(k).arena());
    }
  }

  EdgePartition run() {
    const EdgeId capacity = config_.capacity(g_.num_edges());
    const PartitionId p = config_.num_partitions;
    Telemetry& t = ctx_.telemetry();
    while (residual_.unassigned_count() > 0) {
      ctx_.check_cancelled();  // one cancellation poll per super-step
      ++step_;
      {
        const auto timer = t.time("worker_propose");
        for (PartitionId k = 0; k < p; ++k) propose(k, capacity);
      }
      if (!commit()) break;
      const auto timer = t.time("worker_update");
      for (PartitionId k = 0; k < p; ++k) update_frontier(k);
    }
    spill_remaining();
    flush_telemetry();
    return std::move(partition_);
  }

 private:
  struct Part {
    /// The frontier grows its dense candidate slots on demand (hint 0): a
    /// partition only ever touches its local region, so pre-sizing all p
    /// frontiers to n vertices each would waste O(n·p) memory. Unlike the
    /// sequential run, a candidate's c/rdeg/μs1 can DECREASE here (another
    /// partition may claim its edges), so candidates are re-stated eagerly
    /// via Frontier::upsert with exact values.
    explicit Part(ScratchArena& arena)
        : frontier(arena), attempts(arena.acquire<EdgeId>(0)) {}

    Frontier frontier;
    /// Claim attempts of the current proposal (won or contested alike).
    ScratchArena::Lease<EdgeId> attempts;
    EdgeId e_in = 0;
    EdgeId e_out = 0;
    std::size_t joins = 0;
    std::size_t stage1_joins = 0;
    std::size_t stage2_joins = 0;
    std::size_t fresh_cursor = 0;
    std::size_t seed_cursor = 0;
    VertexId first_seed = kInvalidVertex;
    VertexId proposal = kInvalidVertex;
    bool proposal_is_seed = false;
    bool proposal_stage1 = false;
    bool closed = false;
    std::size_t capacity_closes = 0;
    std::size_t peak_frontier = 0;
  };

  /// Whole-run tallies in plain locals; flushed once into the telemetry
  /// sink. All accumulated at the commit in partition-id order.
  struct Totals {
    std::size_t stage1_joins = 0;
    std::size_t stage2_joins = 0;
    double stage1_degree_sum = 0.0;
    double stage2_degree_sum = 0.0;
    EdgeId spilled_edges = 0;
    std::size_t peak_members = 0;
    std::size_t claim_conflicts = 0;
    std::size_t stale_claims = 0;
    std::size_t seed_collisions = 0;
  };

  /// Pre-step membership of x in k, reconstructed from the post-step sets:
  /// a partition joins at most one vertex per step, so only joined_[k]
  /// differs.
  [[nodiscard]] bool member_pre(VertexId x, PartitionId k) const {
    return member_.contains(x, k) && x != joined_[k];
  }

  /// Exact μs1 of candidate v for partition k: max over members of k that v
  /// can still reach via an unassigned edge (Eq. 7 on the static graph).
  [[nodiscard]] double mu_s1(VertexId v, PartitionId k) const {
    double best = 0.0;
    for (const Neighbor& nb : g_.neighbors(v)) {
      if (residual_.is_assigned(nb.edge) || !member_.contains(nb.vertex, k)) {
        continue;
      }
      const std::size_t dm = g_.degree(nb.vertex);
      if (dm == 0) continue;
      best = std::max(best, static_cast<double>(g_.common_neighbor_count(
                                v, nb.vertex)) /
                                static_cast<double>(dm));
    }
    return best;
  }

  [[nodiscard]] VertexId next_seed(PartitionId k) {
    Part& part = parts_[k];
    const std::size_t n = seed_order_->size();
    // Prefer virgin territory: a vertex no partition has touched yet.
    // Several partitions seeding in the same step will propose the SAME
    // fresh vertex; the commit's seed dedup lets the lowest id keep it
    // and the losers re-scan next step against the then-updated touched_
    // marks, which serialises initial seeding and spreads the seeds away
    // from already-growing regions (the behaviour the round-robin
    // scheduler got for free). `touched_` is monotone, so the cursor
    // never has to back up.
    while (part.fresh_cursor < n) {
      const VertexId v = (*seed_order_)[part.fresh_cursor];
      if (residual_.residual_degree(v) > 0 && touched_[v] == 0) return v;
      ++part.fresh_cursor;
    }
    // Fallback: anything with residual edges that is not already a member.
    while (part.seed_cursor < n) {
      const VertexId v = (*seed_order_)[part.seed_cursor];
      // Skipping is permanent only for conditions that never un-happen:
      // exhausted residual degree or prior membership of k.
      if (residual_.residual_degree(v) == 0 || member_.contains(v, k)) {
        ++part.seed_cursor;
        continue;
      }
      return v;
    }
    return kInvalidVertex;
  }

  /// Super-step phase A for partition k: select the next join from the
  /// pre-step state and claim its residual member edges. Only the claim
  /// bits change here, so every partition proposes against the same state.
  /// The first claimant of an edge records the step in epoch_, which is how
  /// the commit distinguishes this step's claims from stale attempts on
  /// edges assigned in earlier steps.
  void propose(PartitionId k, EdgeId capacity) {
    Part& part = parts_[k];
    part.proposal = kInvalidVertex;
    if (part.closed) return;
    if (part.e_in >= capacity) {
      part.closed = true;
      return;
    }
    VertexId v;
    if (part.frontier.empty()) {
      v = next_seed(k);
      if (v == kInvalidVertex) return;  // permanently out of seeds
      part.proposal_is_seed = true;
    } else {
      const bool stage1 = part.e_in <= part.e_out;
      v = stage1 ? part.frontier.select_stage1()
                 : part.frontier.select_stage2(part.e_in, part.e_out);
      assert(v != kInvalidVertex);
      if (!options_.allow_overshoot && part.e_in > 0 &&
          part.e_in + part.frontier.at(v).c > capacity) {
        part.closed = true;
        ++part.capacity_closes;
        return;
      }
      part.proposal_is_seed = false;
      part.proposal_stage1 = stage1;
    }
    part.proposal = v;
    part.attempts->clear();
    for (const Neighbor& nb : g_.neighbors(v)) {
      // The far endpoint is a pre-step member of k — or v itself for a
      // self-loop, which becomes internal the moment v joins.
      if (nb.vertex != v && !member_.contains(nb.vertex, k)) continue;
      if (residual_.try_claim(nb.edge)) {
        epoch_[nb.edge] = step_;
      }
      part.attempts->push_back(nb.edge);
    }
  }

  /// Super-step phase B: seed dedup, claim resolution, and all state
  /// commits, in partition-id order. Returns false when no partition could
  /// act (growth is finished).
  bool commit() {
    const PartitionId p = config_.num_partitions;
    // Seed dedup: the lowest partition id keeps a contested seed vertex;
    // losers idle this step (their cursors re-evaluate next step, when the
    // vertex is touched). A cancelled seed's claim attempts can only be
    // self-loops of the seed vertex — which the keeper also attempts — so
    // skipping the loser's attempts below never orphans a claimed edge.
    bool progressed = false;
    for (PartitionId k = 0; k < p; ++k) {
      joined_[k] = kInvalidVertex;
      Part& part = parts_[k];
      if (part.proposal == kInvalidVertex) continue;
      if (part.proposal_is_seed) {
        for (PartitionId q = 0; q < k; ++q) {
          if (parts_[q].proposal_is_seed &&
              parts_[q].proposal == part.proposal) {
            part.proposal = kInvalidVertex;
            ++totals_.seed_collisions;
            break;
          }
        }
        if (part.proposal == kInvalidVertex) continue;
      }
      progressed = true;
    }
    if (!progressed) return false;

    // Claim resolution: scan surviving proposals in ascending partition-id
    // order. The first claimant of an edge whose epoch says "claimed this
    // step" is the lowest id and wins. Attempts on edges assigned in
    // earlier steps are stale and dropped.
    events_->clear();
    for (PartitionId k = 0; k < p; ++k) {
      if (parts_[k].proposal == kInvalidVertex) continue;
      for (const EdgeId e : *parts_[k].attempts) {
        if (epoch_[e] != step_) {
          ++totals_.stale_claims;
          continue;
        }
        if (commit_mark_[e] == step_) {
          ++totals_.claim_conflicts;
          continue;
        }
        commit_mark_[e] = step_;
        claimant_[e] = k;
        events_->push_back(e);
      }
    }

    // Edge commits + e_out removals, against PRE-step memberships (the
    // membership inserts happen below): an assigned edge leaves the
    // external set of every partition holding exactly one of its
    // endpoints.
    for (const EdgeId e : *events_) {
      const PartitionId j = claimant_[e];
      partition_.assign(e, j);
      residual_.commit_claim(e);
      ++parts_[j].e_in;
      const Edge& edge = g_.edge(e);
      if (edge.u == edge.v) continue;  // self-loops are never external
      for (PartitionId q = 0; q < p; ++q) {
        const bool mu = member_.contains(edge.u, q);
        const bool mv = member_.contains(edge.v, q);
        assert(!(mu && mv));  // co-members' edges can never still be residual
        if (mu != mv) {
          assert(parts_[q].e_out > 0);
          --parts_[q].e_out;
        }
      }
    }

    // Memberships + join tallies, in partition-id order.
    for (PartitionId k = 0; k < p; ++k) {
      Part& part = parts_[k];
      if (part.proposal == kInvalidVertex) continue;
      const VertexId v = part.proposal;
      joined_[k] = v;
      member_.insert(v, k);
      touched_[v] = 1;
      ++part.joins;
      if (part.proposal_is_seed) {
        if (part.first_seed == kInvalidVertex) part.first_seed = v;
      } else if (part.proposal_stage1) {
        ++part.stage1_joins;
        ++totals_.stage1_joins;
        totals_.stage1_degree_sum += static_cast<double>(g_.degree(v));
      } else {
        ++part.stage2_joins;
        ++totals_.stage2_joins;
        totals_.stage2_degree_sum += static_cast<double>(g_.degree(v));
      }
    }
    // e_out additions: each join's still-residual incident edges with a
    // non-member far endpoint become external to k. For far endpoints
    // (never the join itself) k-membership did not change this step, so
    // the post-step test below equals the pre-step one.
    for (PartitionId k = 0; k < p; ++k) {
      const VertexId v = joined_[k];
      if (v == kInvalidVertex) continue;
      for (const Neighbor& nb : g_.neighbors(v)) {
        if (nb.vertex == v || residual_.is_assigned(nb.edge)) continue;
        if (member_.contains(nb.vertex, k)) continue;
        ++parts_[k].e_out;
      }
    }
    return true;
  }

  /// Refreshes (or removes) candidate u of partition k from the post-step
  /// state, and marks it so the incremental join path does not double-count
  /// the connection a full refresh already saw.
  void refresh_candidate(VertexId u, PartitionId k, std::uint32_t mark) {
    Part& part = parts_[k];
    if (member_.contains(u, k)) return;  // it is this step's join itself
    std::uint32_t c = 0;
    for (const Neighbor& nb : g_.neighbors(u)) {
      if (!residual_.is_assigned(nb.edge) && member_.contains(nb.vertex, k)) {
        ++c;
      }
    }
    if (c == 0) {
      part.frontier.remove(u);
      return;
    }
    part.frontier.upsert(u, c, residual_.residual_degree(u), mu_s1(u, k));
    refreshed_[u] = mark;
    touched_[u] = 1;
  }

  /// Folds partition k's own join into its frontier: remove the new member
  /// and connect its still-residual neighbors. c grows by one per edge and
  /// μs1 is a running max over static terms, so only the new member's
  /// Eq. 7 term needs computing, by the Stage-I scorer sequential TLP uses.
  void apply_join(VertexId v, PartitionId k, std::uint32_t mark) {
    Part& part = parts_[k];
    part.frontier.remove(v);
    auto& frontier = part.frontier;
    Stage1Scorer::Join scores(scorer_, v);
    for (const Neighbor& nb : g_.neighbors(v)) {
      if (nb.vertex == v || residual_.is_assigned(nb.edge)) continue;
      const VertexId u = nb.vertex;
      if (member_.contains(u, k)) continue;
      if (refreshed_[u] == mark) continue;  // refresh counted v already
      const double term = scores.term(u);
      if (frontier.contains(u)) {
        const auto& cand = frontier.at(u);
        frontier.upsert(u, cand.c + 1, residual_.residual_degree(u),
                        std::max(cand.mu1, term));
      } else {
        frontier.upsert(u, 1, residual_.residual_degree(u), term);
        touched_[u] = 1;
      }
    }
  }

  /// Super-step phase C for partition k: fold the step's committed events
  /// into k's frontier. Apart from the touched_ flags (read only by the
  /// next step's seed selection), it writes only k's own state, so the
  /// order in which partitions are updated does not change the result.
  void update_frontier(PartitionId k) {
    Part& part = parts_[k];
    if (part.closed) return;  // its frontier is never consulted again
    const VertexId vk = joined_[k];
    const std::uint32_t mark = ++update_mark_;
    c_dirty_->clear();
    rdeg_dirty_->clear();
    for (const EdgeId e : *events_) {
      const Edge& edge = g_.edge(e);
      const bool self = edge.u == edge.v;
      // A claimed edge with exactly one PRE-step endpoint in k took a
      // connection from the far endpoint: full refresh (c, μs1 and rdeg
      // all change). Both endpoints lost residual degree either way:
      // rekey their candidate entries.
      if (!self) {
        const bool mu = member_pre(edge.u, k);
        const bool mv = member_pre(edge.v, k);
        assert(!(mu && mv));
        if (mu != mv) {
          const VertexId other = mu ? edge.v : edge.u;
          if (cmark_[other] != mark) {
            cmark_[other] = mark;
            c_dirty_->push_back(other);
          }
        }
      }
      for (const VertexId x : {edge.u, edge.v}) {
        if (rmark_[x] != mark) {
          rmark_[x] = mark;
          rdeg_dirty_->push_back(x);
        }
        if (self) break;
      }
    }
    for (const VertexId u : *c_dirty_) refresh_candidate(u, k, mark);
    if (vk != kInvalidVertex) apply_join(vk, k, mark);
    for (const VertexId u : *rdeg_dirty_) {
      if (refreshed_[u] == mark) continue;  // already rebuilt
      if (!part.frontier.contains(u)) continue;
      const auto& cand = part.frontier.at(u);
      part.frontier.upsert(u, cand.c, residual_.residual_degree(u),
                           cand.mu1);
    }
    part.peak_frontier =
        std::max(part.peak_frontier, part.frontier.size());
  }

  void spill_remaining() {
    totals_.spilled_edges = spill_to_lightest(partition_);
  }

  void flush_telemetry() {
    Telemetry& t = ctx_.telemetry();
    std::size_t peak_frontier = 0;
    std::size_t capacity_closes = 0;
    // One round_* entry per (concurrently grown) partition, in partition
    // order, mirroring the sequential TLP schema.
    for (const Part& part : parts_) {
      t.append("round_seed", part.first_seed == kInvalidVertex
                                 ? -1.0
                                 : static_cast<double>(part.first_seed));
      t.append("round_joins", static_cast<double>(part.joins));
      t.append("round_stage1_joins",
               static_cast<double>(part.stage1_joins));
      t.append("round_stage2_joins",
               static_cast<double>(part.stage2_joins));
      t.append("round_restarts", 0.0);
      t.append("round_edges", static_cast<double>(part.e_in));
      totals_.peak_members = std::max(totals_.peak_members, part.joins);
      peak_frontier = std::max(peak_frontier, part.peak_frontier);
      capacity_closes += part.capacity_closes;
    }
    t.add("stage1_joins", static_cast<double>(totals_.stage1_joins));
    t.add("stage2_joins", static_cast<double>(totals_.stage2_joins));
    t.add("stage1_degree_sum", totals_.stage1_degree_sum);
    t.add("stage2_degree_sum", totals_.stage2_degree_sum);
    t.add("restarts", 0.0);
    t.add("spilled_edges", static_cast<double>(totals_.spilled_edges));
    t.add("capacity_closes", static_cast<double>(capacity_closes));
    t.add("strict_round_ends", 0.0);
    t.add("super_steps", static_cast<double>(step_));
    t.add("claim_conflicts", static_cast<double>(totals_.claim_conflicts));
    t.add("stale_claims", static_cast<double>(totals_.stale_claims));
    t.add("seed_collisions", static_cast<double>(totals_.seed_collisions));
    t.set_max("peak_frontier", static_cast<double>(peak_frontier));
    t.set_max("peak_members", static_cast<double>(totals_.peak_members));
  }

  const Graph& g_;
  const PartitionConfig& config_;
  const MultiTlpOptions& options_;
  RunContext& ctx_;

  ResidualState residual_;
  EdgePartition partition_;
  ReplicaSetPool member_;
  ScratchArena::Lease<std::uint8_t> touched_;
  /// Super-step in which each edge was first claimed (0 = never).
  ScratchArena::Lease<std::uint32_t> epoch_;
  /// Super-step in which each edge's claim was committed (0 = never).
  ScratchArena::Lease<std::uint32_t> commit_mark_;
  /// Final claimant of each committed edge.
  ScratchArena::Lease<PartitionId> claimant_;
  /// Edges committed in the current super-step, in partition-scan order.
  ScratchArena::Lease<EdgeId> events_;
  /// Vertex joined by each partition this super-step (or kInvalidVertex).
  ScratchArena::Lease<VertexId> joined_;
  ScratchArena::Lease<VertexId> seed_order_;
  Stage1Scorer scorer_;
  ScratchArena::Lease<std::uint32_t> refreshed_;  ///< full-refresh marks
  ScratchArena::Lease<std::uint32_t> cmark_;      ///< c_dirty_ dedup marks
  ScratchArena::Lease<std::uint32_t> rmark_;      ///< rdeg_dirty_ dedup marks
  ScratchArena::Lease<VertexId> c_dirty_;
  ScratchArena::Lease<VertexId> rdeg_dirty_;

  std::vector<Part> parts_;
  Totals totals_;
  std::uint32_t step_ = 0;
  std::uint32_t update_mark_ = 0;  ///< bumped once per (partition, step)
};

}  // namespace

EdgePartition MultiTlpPartitioner::do_partition(const Graph& g,
                                                const PartitionConfig& config,
                                                RunContext& ctx) const {
  MultiRun run(g, config, options_, ctx);
  return run.run();
}

}  // namespace tlp
