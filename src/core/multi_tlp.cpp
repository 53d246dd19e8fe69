#include "core/multi_tlp.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/frontier.hpp"
#include "core/residual.hpp"
#include "graph/intersect_kernels.hpp"
#include "partition/replica_set.hpp"
#include "partition/spill.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace tlp {
namespace {

/// Write-prefetch lookahead for the two-hop counting pass (same rationale
/// as the sequential run in core/tlp.cpp).
constexpr std::size_t kCountPrefetchDistance = 8;

class MultiRun {
 public:
  MultiRun(const Graph& g, const PartitionConfig& config,
           const MultiTlpOptions& options, RunContext& ctx, ThreadPool* pool,
           std::size_t num_workers)
      : g_(g),
        config_(config),
        options_(options),
        ctx_(ctx),
        pool_(pool),
        num_workers_(num_workers),
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
        seed_order_(ctx.arena().acquire<VertexId>(g.num_vertices())) {
    std::iota(seed_order_->begin(), seed_order_->end(), VertexId{0});
    std::mt19937_64 rng(config.seed);
    std::shuffle(seed_order_->begin(), seed_order_->end(), rng);

    // Child contexts are created and cleared on the calling thread before
    // any worker touches them; worker w of every run reuses child(w)'s
    // arena, so repeated parallel runs stay warm.
    const VertexId n = g.num_vertices();
    workers_.reserve(num_workers_);
    for (std::size_t w = 0; w < num_workers_; ++w) {
      RunContext& child = ctx.child(w);
      child.telemetry().clear();
      ScratchArena& arena = child.arena();
      workers_.push_back(Worker{
          &child,
          arena.acquire<std::uint32_t>(n, 0),  // count
          arena.acquire<VertexId>(0),          // count_touched
          arena.acquire<VertexId>(0),          // batch_ids
          arena.acquire<double>(0),            // batch_terms
          arena.acquire<std::uint32_t>(n, 0),  // refreshed
          arena.acquire<std::uint32_t>(n, 0),  // cmark
          arena.acquire<std::uint32_t>(n, 0),  // rmark
          arena.acquire<VertexId>(0),          // c_dirty
          arena.acquire<VertexId>(0),          // rdeg_dirty
          arena.acquire<VertexId>(0),          // touched_out
          0,
      });
    }
    // Per-PARTITION state lives in a per-partition child arena (children
    // [W, W + p); workers use [0, W)). A shared arena is not thread-safe;
    // under static ownership partition k's task always runs on worker
    // k % W, so an arena only its own partition touches is race-free.
    parts_.reserve(config.num_partitions);
    for (PartitionId k = 0; k < config.num_partitions; ++k) {
      parts_.emplace_back(ctx.child(num_workers_ + k).arena());
    }
    busy_.assign(num_workers_, 0.0);
    step_busy_.assign(num_workers_, 0.0);
  }

  EdgePartition run() {
    const EdgeId capacity = config_.capacity(g_.num_edges());
    while (residual_.unassigned_count() > 0) {
      ctx_.check_cancelled();  // one cancellation poll per super-step
      ++step_;
      flush_touched();
      run_phase("worker_propose", [&](std::size_t /*worker*/, PartitionId k) {
        propose(k, capacity);
      });
      if (!commit()) break;
      run_phase("worker_update", [&](std::size_t w, PartitionId k) {
        update_frontier(workers_[w], k);
      });
      record_step_balance();
    }
    spill_remaining();
    flush_telemetry();
    // Merge per-worker telemetry (phase timers) into the parent in fixed
    // worker order; wall-time values vary, keys and counters do not.
    for (const Worker& worker : workers_) {
      ctx_.telemetry().merge_from(worker.ctx->telemetry());
    }
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

  /// Worker-private scratch, leased from the worker's child-context arena.
  /// Nothing algorithmic lives here — dropping or adding workers only
  /// changes which thread executes a partition's work.
  struct Worker {
    RunContext* ctx;
    ScratchArena::Lease<std::uint32_t> count;  ///< two-hop counting pass
    ScratchArena::Lease<VertexId> count_touched;
    ScratchArena::Lease<VertexId> batch_ids;    ///< eligible candidates
    ScratchArena::Lease<double> batch_terms;    ///< batched Eq. 7 terms
    ScratchArena::Lease<std::uint32_t> refreshed;  ///< full-refresh marks
    ScratchArena::Lease<std::uint32_t> cmark;      ///< c_dirty dedup marks
    ScratchArena::Lease<std::uint32_t> rmark;      ///< rdeg_dirty dedup marks
    ScratchArena::Lease<VertexId> c_dirty;
    ScratchArena::Lease<VertexId> rdeg_dirty;
    /// Vertices whose touched_ flag must be raised; flushed serially at the
    /// top of the next super-step (touched_ is shared, flags are idempotent
    /// and order-independent, so the union is worker-count-invariant).
    ScratchArena::Lease<VertexId> touched_out;
    std::uint32_t epoch = 0;  ///< bumped once per (partition, step) handled
  };

  /// Whole-run tallies in plain locals; flushed once into the telemetry
  /// sink. All accumulated serially at barriers in partition-id order, so
  /// the values (including the double sums) are worker-count-invariant.
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

  /// Runs `task(worker, k)` exactly once for every partition k, under the
  /// per-worker child-context phase timer `timer_key`, and accumulates each
  /// worker's busy time (entry-to-exit of its phase body, i.e. excluding
  /// the barrier wait) into step_busy_. Two schedules, one result: inline
  /// (W == 1) or static ownership (worker k % W runs partition k, in
  /// ascending k) — which thread runs a partition-task only moves
  /// wall-clock time, never the task's effect (docs/THREADING.md).
  void run_phase(const char* timer_key,
                 const std::function<void(std::size_t, PartitionId)>& task) {
    const PartitionId p = config_.num_partitions;
    if (pool_ == nullptr) {
      const auto timer = workers_[0].ctx->telemetry().time(timer_key);
      for (PartitionId k = 0; k < p; ++k) task(0, k);
      return;  // no busy tracking inline: imbalance is 1 by definition
    }
    pool_->run_indexed(num_workers_, [&](std::size_t w) {
      const auto timer = workers_[w].ctx->telemetry().time(timer_key);
      const auto start = std::chrono::steady_clock::now();
      for (PartitionId k = static_cast<PartitionId>(w); k < p;
           k += static_cast<PartitionId>(num_workers_)) {
        task(w, k);
      }
      step_busy_[w] += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    });
  }

  /// Barrier-side (serial) bookkeeping after a committed super-step:
  /// appends each worker's busy seconds for the step to the worker_busy
  /// series (W entries per step, worker-minor) and folds them into the
  /// whole-run totals behind the imbalance gauge. Wall-clock values — the
  /// series varies across runs and worker counts by design.
  void record_step_balance() {
    if (num_workers_ <= 1) return;
    for (std::size_t w = 0; w < num_workers_; ++w) {
      ctx_.telemetry().append("worker_busy", step_busy_[w]);
      busy_[w] += step_busy_[w];
      step_busy_[w] = 0.0;
    }
  }

  void flush_touched() {
    for (Worker& worker : workers_) {
      for (const VertexId v : *worker.touched_out) touched_[v] = 1;
      worker.touched_out->clear();
    }
  }

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
    // fresh vertex; the barrier's seed dedup lets the lowest id keep it
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

  /// Super-step phase A for one owned partition: select the next join from
  /// the frozen pre-step state and claim its residual member edges. Only
  /// atomic bitmap operations touch shared mutable state here; everything
  /// else read is frozen until the barrier. The CAS winner records the
  /// step in epoch_ (it is the unique writer for that edge), which is how
  /// the serial commit distinguishes this step's claims from stale attempts
  /// on edges assigned in earlier steps.
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

  /// Super-step barrier (serial): seed dedup, deterministic claim
  /// resolution, and all state commits, in partition-id order. Returns
  /// false when no partition could act (growth is finished).
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
    // step" is the lowest id and wins — independent of which thread won
    // the phase-A CAS. Attempts on edges assigned in earlier steps are
    // stale and dropped.
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

    // Memberships + join tallies, in partition-id order (the double sums
    // must accumulate in a worker-count-independent order).
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
  void refresh_candidate(Worker& worker, VertexId u, PartitionId k,
                         std::uint32_t mark) {
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
    worker.refreshed[u] = mark;
    worker.touched_out->push_back(u);
  }

  /// Folds partition k's own join into its frontier: remove the new member
  /// and connect its still-residual neighbors. c grows by one per edge and
  /// μs1 is a running max over static terms, so only the new member's
  /// Eq. 7 term needs computing; like sequential TLP, a single two-hop
  /// counting pass computes |N(u) ∩ N(v)| for every neighbor at once when
  /// that is cheaper than per-pair intersections.
  void apply_join(Worker& worker, VertexId v, PartitionId k,
                  std::uint32_t mark) {
    Part& part = parts_[k];
    part.frontier.remove(v);
    std::size_t two_hop_cost = 0;
    std::size_t merge_cost = 0;
    bool any = false;
    for (const Neighbor& nb : g_.neighbors(v)) {
      two_hop_cost += g_.degree(nb.vertex);
      if (nb.vertex == v || residual_.is_assigned(nb.edge)) continue;
      if (member_.contains(nb.vertex, k)) continue;
      if (worker.refreshed[nb.vertex] == mark) continue;
      any = true;
      merge_cost += Graph::intersection_cost(g_.degree(nb.vertex),
                                             g_.degree(v));
    }
    if (!any) return;
    const bool use_counting = two_hop_cost < merge_cost;
    const double dv =
        static_cast<double>(std::max<std::size_t>(1, g_.degree(v)));
    auto& frontier = part.frontier;
    const auto connect = [&](VertexId u, double term) {
      if (frontier.contains(u)) {
        const auto& cand = frontier.at(u);
        frontier.upsert(u, cand.c + 1, residual_.residual_degree(u),
                        std::max(cand.mu1, term));
      } else {
        frontier.upsert(u, 1, residual_.residual_degree(u), term);
        worker.touched_out->push_back(u);
      }
    };
    if (use_counting) {
      // Two-hop counting pass with the sequential run's prefetch pair:
      // next one-hop list head, plus the count cells a few iterations
      // ahead (random-access increments over an O(n) array).
      const auto hops = g_.neighbor_ids(v);
      for (std::size_t i = 0; i < hops.size(); ++i) {
        if (i + 1 < hops.size()) g_.prefetch_neighbor_ids(hops[i + 1]);
        const auto ids = g_.neighbor_ids(hops[i]);
        for (std::size_t j = 0; j < ids.size(); ++j) {
          if (j + kCountPrefetchDistance < ids.size()) {
            simd::prefetch_write(
                &worker.count[ids[j + kCountPrefetchDistance]]);
          }
          const VertexId u = ids[j];
          if (worker.count[u]++ == 0) worker.count_touched->push_back(u);
        }
      }
      // Batched Eq. 7 divides through the active kernel. Candidates are
      // collected in adjacency order, so the upserts happen in exactly the
      // order the per-pair path produces — and every kernel performs the
      // same correctly-rounded IEEE division, keeping the result
      // worker-count- AND kernel-invariant.
      worker.batch_ids->clear();
      for (const Neighbor& nb : g_.neighbors(v)) {
        if (nb.vertex == v || residual_.is_assigned(nb.edge)) continue;
        if (member_.contains(nb.vertex, k)) continue;
        if (worker.refreshed[nb.vertex] == mark) continue;
        worker.batch_ids->push_back(nb.vertex);
      }
      const std::size_t n = worker.batch_ids->size();
      worker.batch_terms->resize(n);
      intersect::active().stage1_terms(worker.count->data(),
                                       worker.batch_ids->data(), n, dv,
                                       worker.batch_terms->data());
      for (std::size_t i = 0; i < n; ++i) {
        connect((*worker.batch_ids)[i], (*worker.batch_terms)[i]);
      }
      for (const VertexId x : *worker.count_touched) worker.count[x] = 0;
      worker.count_touched->clear();
    } else {
      for (const Neighbor& nb : g_.neighbors(v)) {
        if (nb.vertex == v || residual_.is_assigned(nb.edge)) continue;
        const VertexId u = nb.vertex;
        if (member_.contains(u, k)) continue;
        if (worker.refreshed[u] == mark) continue;  // refresh counted v already
        connect(u, static_cast<double>(g_.common_neighbor_count(u, v)) / dv);
      }
    }
  }

  /// Super-step phase C for one owned partition: fold the step's committed
  /// events into k's frontier. Everything read here (events, memberships,
  /// the bitmap, residual degrees) is frozen until the next barrier, and
  /// everything written is owned by k's worker, so the phase runs without
  /// locks and its outcome is worker-count-invariant.
  void update_frontier(Worker& worker, PartitionId k) {
    Part& part = parts_[k];
    if (part.closed) return;  // its frontier is never consulted again
    const VertexId vk = joined_[k];
    const std::uint32_t mark = ++worker.epoch;
    worker.c_dirty->clear();
    worker.rdeg_dirty->clear();
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
          if (worker.cmark[other] != mark) {
            worker.cmark[other] = mark;
            worker.c_dirty->push_back(other);
          }
        }
      }
      for (const VertexId x : {edge.u, edge.v}) {
        if (worker.rmark[x] != mark) {
          worker.rmark[x] = mark;
          worker.rdeg_dirty->push_back(x);
        }
        if (self) break;
      }
    }
    for (const VertexId u : *worker.c_dirty) {
      refresh_candidate(worker, u, k, mark);
    }
    if (vk != kInvalidVertex) apply_join(worker, vk, k, mark);
    for (const VertexId u : *worker.rdeg_dirty) {
      if (worker.refreshed[u] == mark) continue;  // already rebuilt
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
    // One round_* entry per (concurrently grown) partition, mirroring the
    // sequential TLP schema; flushed by the main thread in partition order
    // so the series are worker-count-invariant.
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
    t.set("threads", static_cast<double>(num_workers_));
    // Scheduler telemetry. imbalance (plus threads and the worker_busy
    // series) is the only key allowed to differ across worker counts —
    // everything else is worker-count-invariant.
    double imbalance = 1.0;  // trivially balanced inline
    if (num_workers_ > 1) {
      double total = 0.0;
      double busiest = 0.0;
      for (const double b : busy_) {
        total += b;
        busiest = std::max(busiest, b);
      }
      const double mean = total / static_cast<double>(num_workers_);
      if (mean > 0.0) imbalance = busiest / mean;
    }
    t.set("imbalance", imbalance);
    t.set_max("peak_frontier", static_cast<double>(peak_frontier));
    t.set_max("peak_members", static_cast<double>(totals_.peak_members));
  }

  const Graph& g_;
  const PartitionConfig& config_;
  const MultiTlpOptions& options_;
  RunContext& ctx_;
  ThreadPool* pool_;  ///< nullptr = inline single-worker execution
  std::size_t num_workers_;

  ResidualState residual_;
  EdgePartition partition_;
  ReplicaSetPool member_;
  ScratchArena::Lease<std::uint8_t> touched_;
  /// Super-step in which each edge's claim CAS was won (0 = never).
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

  std::vector<Part> parts_;
  std::vector<Worker> workers_;
  /// Wall-clock busy seconds per worker: whole run / current super-step.
  std::vector<double> busy_;
  std::vector<double> step_busy_;
  Totals totals_;
  std::uint32_t step_ = 0;
};

}  // namespace

EdgePartition MultiTlpPartitioner::do_partition(const Graph& g,
                                                const PartitionConfig& config,
                                                RunContext& ctx) const {
  std::size_t requested = options_.num_threads;
  if (requested == 0) {
    requested = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(requested, config.num_partitions));
  if (workers == 1) {
    MultiRun run(g, config, options_, ctx, nullptr, 1);
    return run.run();
  }
  ThreadPool pool(workers);
  MultiRun run(g, config, options_, ctx, &pool, workers);
  return run.run();
}

}  // namespace tlp
