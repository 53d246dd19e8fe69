#include "core/multi_tlp.hpp"

#include <algorithm>
#include <bit>
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
        seed_order_(ctx.arena().acquire<VertexId>(g.num_vertices())),
        scorer_(g, ctx.arena()),
        claimed_(ctx.arena().acquire<VertexId>(0)) {
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
    bool progressed = true;
    while (progressed && residual_.unassigned_count() > 0) {
      ctx_.check_cancelled();  // one cancellation poll per cycle
      progressed = false;
      for (PartitionId k = 0; k < p; ++k) {
        if (step(k, capacity)) progressed = true;
      }
    }
    flush_telemetry(spill_to_lightest(partition_));
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
    explicit Part(ScratchArena& arena) : frontier(arena) {}

    Frontier frontier;
    EdgeId e_in = 0;
    EdgeId e_out = 0;
    std::size_t joins = 0;
    std::size_t stage1_joins = 0;
    std::size_t stage2_joins = 0;
    double stage1_degree_sum = 0.0;
    double stage2_degree_sum = 0.0;
    std::size_t fresh_cursor = 0;
    std::size_t seed_cursor = 0;
    VertexId first_seed = kInvalidVertex;
    bool closed = false;
    std::size_t capacity_closes = 0;
    std::size_t peak_frontier = 0;
  };

  /// Exact μs1 of candidate u for partition k (Eq. 7 over the members of k
  /// that u can still reach via an unassigned edge).
  [[nodiscard]] double mu_s1(VertexId u, PartitionId k) {
    return scorer_.mu1(u, [this, k](const Neighbor& nb) {
      return !residual_.is_assigned(nb.edge) && member_.contains(nb.vertex, k);
    });
  }

  [[nodiscard]] VertexId next_seed(PartitionId k) {
    Part& part = parts_[k];
    const std::size_t n = seed_order_->size();
    // Prefer virgin territory: a vertex no partition has touched yet. The
    // partitions that seed in the same cycle take turns, so each sees the
    // touched_ marks of the seeds and frontiers before it and spreads away
    // from already-growing regions. `touched_` is monotone, so the cursor
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

  /// Partition k's turn: select (or seed) the next two-stage join, commit
  /// it, and fold it into every open frontier. Returns false when k is
  /// closed or out of seeds.
  bool step(PartitionId k, EdgeId capacity) {
    Part& part = parts_[k];
    if (part.closed) return false;
    if (part.e_in >= capacity) {
      part.closed = true;
      return false;
    }
    VertexId v;
    if (part.frontier.empty()) {
      v = next_seed(k);
      if (v == kInvalidVertex) return false;  // permanently out of seeds
      if (part.first_seed == kInvalidVertex) part.first_seed = v;
    } else {
      const bool stage1 = part.e_in <= part.e_out;
      v = stage1 ? part.frontier.select_stage1()
                 : part.frontier.select_stage2(part.e_in, part.e_out);
      assert(v != kInvalidVertex);
      if (!options_.allow_overshoot && part.e_in > 0 &&
          part.e_in + part.frontier.at(v).c > capacity) {
        part.closed = true;
        ++part.capacity_closes;
        return false;
      }
      const auto degree = static_cast<double>(g_.degree(v));
      if (stage1) {
        ++part.stage1_joins;
        part.stage1_degree_sum += degree;
      } else {
        ++part.stage2_joins;
        part.stage2_degree_sum += degree;
      }
    }
    ++part.joins;
    join(v, k);
    for (PartitionId q = 0; q < config_.num_partitions; ++q) {
      if (q == k) {
        apply_join(v, k);
      } else if (!parts_[q].closed && !claimed_->empty()) {
        fold(v, q);
      }
    }
    part.peak_frontier = std::max(part.peak_frontier, part.frontier.size());
    return true;
  }

  /// Commits v's join of partition k: claims every residual edge from v to
  /// a member of k (recording its far endpoint in claimed_), then makes v a
  /// member. A claimed edge leaves the external set of every partition
  /// holding exactly one endpoint (k among them); each residual edge to a
  /// non-member becomes external to k.
  void join(VertexId v, PartitionId k) {
    Part& part = parts_[k];
    claimed_->clear();
    const std::uint64_t* const wv = member_.words(v);
    for (const Neighbor& nb : g_.neighbors(v)) {
      if (residual_.is_assigned(nb.edge)) continue;
      const VertexId u = nb.vertex;
      if (!member_.contains(u, k)) {
        ++part.e_out;
        continue;
      }
      residual_.mark_assigned(nb.edge, v, u);
      partition_.assign(nb.edge, k);
      ++part.e_in;
      claimed_->push_back(u);
      const std::uint64_t* const wu = member_.words(u);
      for (std::size_t w = 0; w < member_.words_per_vertex(); ++w) {
        for (std::uint64_t x = wu[w] ^ wv[w]; x != 0; x &= x - 1) {
          Part& q = parts_[w * 64 + std::countr_zero(x)];
          assert(q.e_out > 0);
          --q.e_out;
        }
      }
    }
    member_.insert(v, k);
    touched_[v] = 1;
  }

  /// Re-states candidate u of partition q from the current state: c, rdeg
  /// and μs1 all from scratch, or removal when u has no connection left.
  void refresh(VertexId u, PartitionId q) {
    assert(!member_.contains(u, q));
    std::uint32_t c = 0;
    for (const Neighbor& nb : g_.neighbors(u)) {
      if (!residual_.is_assigned(nb.edge) && member_.contains(nb.vertex, q)) {
        ++c;
      }
    }
    Frontier& frontier = parts_[q].frontier;
    if (c == 0) {
      frontier.remove(u);
      return;
    }
    frontier.upsert(u, c, residual_.residual_degree(u), mu_s1(u, q));
    touched_[u] = 1;
  }

  /// Re-keys candidate u of partition q to its current residual degree
  /// (its c and μs1 did not change). No-op when u is not a candidate.
  void rekey(VertexId u, PartitionId q) {
    Frontier& frontier = parts_[q].frontier;
    if (!frontier.contains(u)) return;
    const auto& cand = frontier.at(u);
    frontier.upsert(u, cand.c, residual_.residual_degree(u), cand.mu1);
  }

  /// Folds another partition's join of v into q's frontier. Each claimed
  /// edge {v, u} left the residual graph: if exactly one endpoint is a
  /// member of q, the other one lost a connection (full refresh); either
  /// way both endpoints lost residual degree (rekey). v is refreshed at
  /// most once, however many of its claimed edges reach members of q.
  void fold(VertexId v, PartitionId q) {
    const bool v_member = member_.contains(v, q);
    bool v_lost = false;
    for (const VertexId u : *claimed_) {
      if (member_.contains(u, q)) {
        assert(!v_member);  // co-members' edges are never still residual
        v_lost = true;
      } else if (v_member) {
        refresh(u, q);
      } else {
        rekey(u, q);
      }
    }
    if (v_lost) {
      refresh(v, q);
    } else {
      rekey(v, q);
    }
  }

  /// Folds partition k's own join into its frontier: remove the new member
  /// and connect its still-residual neighbors. c grows by one per edge and
  /// μs1 is a running max over static terms, so only the new member's
  /// Eq. 7 term needs computing, by the Stage-I scorer sequential TLP uses.
  /// The claimed edges' far endpoints are members, so no candidate of k
  /// lost a connection or residual degree.
  void apply_join(VertexId v, PartitionId k) {
    Frontier& frontier = parts_[k].frontier;
    frontier.remove(v);
    Stage1Scorer::Join scores(scorer_, v);
    for (const Neighbor& nb : g_.neighbors(v)) {
      if (residual_.is_assigned(nb.edge)) continue;
      const VertexId u = nb.vertex;
      assert(!member_.contains(u, k));
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

  /// Flushes the run's tallies into the telemetry sink once: one round_*
  /// entry per (concurrently grown) partition, in partition order,
  /// mirroring the sequential TLP schema, and totals over all partitions.
  void flush_telemetry(EdgeId spilled_edges) {
    Telemetry& t = ctx_.telemetry();
    double stage1_joins = 0.0;
    double stage2_joins = 0.0;
    double stage1_degree_sum = 0.0;
    double stage2_degree_sum = 0.0;
    double capacity_closes = 0.0;
    double stage_switches = 0.0;
    std::size_t peak_frontier = 0;
    std::size_t peak_members = 0;
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
      stage1_joins += static_cast<double>(part.stage1_joins);
      stage2_joins += static_cast<double>(part.stage2_joins);
      stage1_degree_sum += part.stage1_degree_sum;
      stage2_degree_sum += part.stage2_degree_sum;
      capacity_closes += static_cast<double>(part.capacity_closes);
      stage_switches += static_cast<double>(part.frontier.stage_switches());
      peak_frontier = std::max(peak_frontier, part.peak_frontier);
      peak_members = std::max(peak_members, part.joins);
    }
    t.add("stage1_joins", stage1_joins);
    t.add("stage2_joins", stage2_joins);
    t.add("stage1_degree_sum", stage1_degree_sum);
    t.add("stage2_degree_sum", stage2_degree_sum);
    t.add("restarts", 0.0);
    t.add("spilled_edges", static_cast<double>(spilled_edges));
    t.add("capacity_closes", capacity_closes);
    t.add("strict_round_ends", 0.0);
    t.add("stage_switches", stage_switches);
    t.set_max("peak_frontier", static_cast<double>(peak_frontier));
    t.set_max("peak_members", static_cast<double>(peak_members));
  }

  const Graph& g_;
  const PartitionConfig& config_;
  const MultiTlpOptions& options_;
  RunContext& ctx_;

  ResidualState residual_;
  EdgePartition partition_;
  ReplicaSetPool member_;
  ScratchArena::Lease<std::uint8_t> touched_;
  ScratchArena::Lease<VertexId> seed_order_;
  Stage1Scorer scorer_;
  /// Far endpoints of the edges the current join claimed.
  ScratchArena::Lease<VertexId> claimed_;

  std::vector<Part> parts_;
};

}  // namespace

EdgePartition MultiTlpPartitioner::do_partition(const Graph& g,
                                                const PartitionConfig& config,
                                                RunContext& ctx) const {
  MultiRun run(g, config, options_, ctx);
  return run.run();
}

}  // namespace tlp
