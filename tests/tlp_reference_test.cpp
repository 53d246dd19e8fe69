// Differential test against the repo's only growth oracle: a deliberately
// naive, paper-literal TLP that rescans and rescores the whole frontier from
// scratch at every step (Algorithm 1 as written, Eqs. 7/9 recomputed each
// time, the stage switch on M(P_k) or on the TLP_R edge ratio). It must
// produce EXACTLY the same partition as the optimized incremental
// implementation. This pins the running-max μs1 cache, the bucketed μs2
// selection, the Stage-I scorer's probe and hub-gallop paths (the hub-heavy
// power-law case), the stage-lazy frontier's rebuild on each switch and its
// μs1 rescore on a return to Stage I, the residual bookkeeping, both stage
// rules, and every tie-break.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "core/tlp.hpp"
#include "gen/generators.hpp"
#include "partition/run_context.hpp"
#include "graph/graph.hpp"

namespace tlp {
namespace {

/// Brute-force TLP mirroring GrowthRun's semantics 1:1 (restart policy,
/// overshoot allowed, last round uncapped, either stage rule), but with
/// O(frontier * degree) recomputation per step and no caching at all.
class NaiveTlp {
 public:
  NaiveTlp(const Graph& g, const PartitionConfig& config,
           const TlpOptions& options = {})
      : g_(g),
        config_(config),
        options_(options),
        assigned_(static_cast<std::size_t>(g.num_edges()), false),
        rdeg_(g.num_vertices()),
        member_round_(g.num_vertices(), kNoRound),
        seed_order_(g.num_vertices()) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      rdeg_[v] = static_cast<std::uint32_t>(g.degree(v));
    }
    std::iota(seed_order_.begin(), seed_order_.end(), VertexId{0});
    std::mt19937_64 rng(config.seed);
    std::shuffle(seed_order_.begin(), seed_order_.end(), rng);
  }

  EdgePartition run() {
    EdgePartition partition(config_.num_partitions, g_.num_edges());
    EdgeId unassigned = g_.num_edges();
    const EdgeId capacity = config_.capacity(g_.num_edges());
    for (PartitionId k = 0; k < config_.num_partitions && unassigned > 0;
         ++k) {
      const bool last = (k + 1 == config_.num_partitions);
      const EdgeId cap =
          last ? std::numeric_limits<EdgeId>::max() : capacity;
      grow(k, cap, partition, unassigned);
    }
    return partition;
  }

 private:
  static constexpr std::uint32_t kNoRound =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool member(VertexId v) const {
    return member_round_[v] == round_;
  }

  /// Candidate connection count: unassigned edges from v into the members.
  [[nodiscard]] std::uint32_t connections(VertexId v) const {
    std::uint32_t c = 0;
    for (const Neighbor& nb : g_.neighbors(v)) {
      if (!assigned_[static_cast<std::size_t>(nb.edge)] && member(nb.vertex)) {
        ++c;
      }
    }
    return c;
  }

  /// Frontier = all non-members with >= 1 residual edge into the members.
  [[nodiscard]] std::vector<VertexId> frontier() const {
    std::vector<VertexId> result;
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      if (!member(v) && connections(v) > 0) result.push_back(v);
    }
    return result;
  }

  /// Eq. 7 from scratch: max over residual-member neighbors m of
  /// |N(v) ∩ N(m)| / |N(m)| on the static graph.
  [[nodiscard]] double mu_s1(VertexId v) const {
    double best = 0.0;
    for (const Neighbor& nb : g_.neighbors(v)) {
      if (assigned_[static_cast<std::size_t>(nb.edge)] || !member(nb.vertex)) {
        continue;
      }
      const std::size_t dm = g_.degree(nb.vertex);
      if (dm == 0) continue;
      best = std::max(best,
                      static_cast<double>(g_.common_neighbor_count(
                          v, nb.vertex)) /
                          static_cast<double>(dm));
    }
    return best;
  }

  /// Same test as GrowthRun::in_stage1: TLP is in Stage I while
  /// M(P_k) <= 1; TLP_R while e_in < R*C, with C the nominal capacity even
  /// in the uncapped last round.
  [[nodiscard]] bool in_stage1() const {
    if (options_.stage_rule == StageRule::kModularity) return e_in_ <= e_out_;
    return static_cast<double>(e_in_) <
           options_.stage_ratio *
               static_cast<double>(config_.capacity(g_.num_edges()));
  }

  VertexId select_stage1() const {
    VertexId best = kInvalidVertex;
    double best_score = -1.0;
    for (const VertexId v : frontier()) {
      const double score = mu_s1(v);
      if (score > best_score || (score == best_score && v < best)) {
        best = v;
        best_score = score;
      }
    }
    return best;
  }

  VertexId select_stage2() const {
    // Maximize M' = (e_in + c)/(e_out + r - 2c) with the same exact
    // arithmetic and tie-breaks as Frontier::select_stage2 (ties: larger c,
    // then smaller r, then smaller id).
    VertexId best = kInvalidVertex;
    unsigned __int128 bn = 0;
    unsigned __int128 bd = 1;
    std::uint32_t bc = 0;
    std::uint32_t br = 0;
    for (const VertexId v : frontier()) {
      const std::uint32_t c = connections(v);
      const std::uint32_t r = rdeg_[v];
      const unsigned __int128 num = e_in_ + c;
      const unsigned __int128 den = e_out_ + r - 2ULL * c;
      const auto better = [](unsigned __int128 a1, unsigned __int128 b1,
                             unsigned __int128 a2, unsigned __int128 b2) {
        if (b1 == 0 && b2 == 0) return a1 > a2;
        if (b1 == 0) return true;
        if (b2 == 0) return false;
        return a1 * b2 > a2 * b1;
      };
      const bool wins =
          best == kInvalidVertex || better(num, den, bn, bd) ||
          (!better(bn, bd, num, den) &&
           (c > bc || (c == bc && (r < br || (r == br && v < best)))));
      if (wins) {
        best = v;
        bn = num;
        bd = den;
        bc = c;
        br = r;
      }
    }
    return best;
  }

  void join(VertexId v, PartitionId k, EdgePartition& partition,
            EdgeId& unassigned) {
    member_round_[v] = round_;
    for (const Neighbor& nb : g_.neighbors(v)) {
      if (assigned_[static_cast<std::size_t>(nb.edge)]) continue;
      if (member(nb.vertex)) {
        assigned_[static_cast<std::size_t>(nb.edge)] = true;
        partition.assign(nb.edge, k);
        --rdeg_[v];
        --rdeg_[nb.vertex];
        --unassigned;
        ++e_in_;
        --e_out_;
      } else {
        ++e_out_;
      }
    }
  }

  VertexId next_seed() {
    while (seed_cursor_ < seed_order_.size()) {
      const VertexId v = seed_order_[seed_cursor_];
      if (rdeg_[v] > 0) return v;
      ++seed_cursor_;
    }
    return kInvalidVertex;
  }

  void grow(PartitionId k, EdgeId cap, EdgePartition& partition,
            EdgeId& unassigned) {
    round_ = k;
    e_in_ = 0;
    e_out_ = 0;
    while (e_in_ < cap && unassigned > 0) {
      const auto fr = frontier();
      VertexId v;
      if (fr.empty()) {
        v = next_seed();
        if (v == kInvalidVertex) break;
      } else {
        v = in_stage1() ? select_stage1() : select_stage2();
      }
      join(v, k, partition, unassigned);
    }
  }

  const Graph& g_;
  const PartitionConfig& config_;
  const TlpOptions options_;
  std::vector<bool> assigned_;
  std::vector<std::uint32_t> rdeg_;
  std::vector<std::uint32_t> member_round_;
  std::uint32_t round_ = kNoRound;
  EdgeId e_in_ = 0;
  EdgeId e_out_ = 0;
  std::vector<VertexId> seed_order_;
  std::size_t seed_cursor_ = 0;
};

class TlpReference : public ::testing::TestWithParam<int> {};

TEST_P(TlpReference, OptimizedMatchesNaiveExactly) {
  const int variant = GetParam();
  Graph g;
  PartitionConfig config;
  config.seed = 1000 + variant;
  switch (variant % 6) {
    case 0:
      g = gen::erdos_renyi(60, 240, variant);
      config.num_partitions = 4;
      break;
    case 1:
      g = gen::barabasi_albert(80, 3, variant);
      config.num_partitions = 5;
      break;
    case 2:
      g = gen::sbm(72, 500, 6, 0.85, variant);
      config.num_partitions = 3;
      break;
    case 3:
      g = gen::caveman_graph(5, 8);
      config.num_partitions = 5;
      break;
    case 4:
      g = gen::chung_lu_power_law(90, 400, 2.1, variant);
      config.num_partitions = 6;
      break;
    default:
      g = gen::watts_strogatz(70, 4, 0.2, variant);
      config.num_partitions = 4;
      break;
  }

  const EdgePartition fast = TlpPartitioner{}.partition(g, config);
  const EdgePartition slow = NaiveTlp(g, config).run();
  ASSERT_EQ(fast.raw(), slow.raw())
      << "optimized TLP diverged from the paper-literal reference on "
      << g.summary() << " p=" << config.num_partitions;
}

INSTANTIATE_TEST_SUITE_P(Differential, TlpReference, ::testing::Range(0, 18));

// Hub-heavy power-law fixture under both stage rules: the hubs make the
// μs1 update take its two-hop counting branch many times per run, and
// R = 0 / 0.5 / 1 cover Stage II only, a mid-round switch, and Stage I
// throughout.
TEST(TlpReferencePowerLaw, BothStageRulesMatchNaiveExactly) {
  const Graph g = gen::chung_lu_power_law(1000, 6000, 2.1, 7);
  PartitionConfig config;
  config.num_partitions = 8;
  config.seed = 7;
  for (const TlpOptions& options :
       {TlpOptions{}, make_tlp_r(0.0).options(), make_tlp_r(0.5).options(),
        make_tlp_r(1.0).options()}) {
    const TlpPartitioner fast_tlp(options);
    SCOPED_TRACE(fast_tlp.name());
    const EdgePartition fast = fast_tlp.partition(g, config);
    const EdgePartition slow = NaiveTlp(g, config, options).run();
    ASSERT_EQ(fast.raw(), slow.raw());
  }
}

// Rounds that return from Stage II to Stage I: the frontier left each
// μs1 touched in Stage II stale and rebuilt it through GrowthRun's rescore.
// A round that reaches Stage II switches once on the way in, so more
// switches than such rounds means some round went back.
TEST(TlpReferenceStageReturn, RescoredRoundsMatchNaiveExactly) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = gen::sbm(72, 500, 6, 0.85, seed);
    PartitionConfig config;
    config.num_partitions = 3;
    config.seed = 1000 + seed;
    SCOPED_TRACE(seed);
    RunContext ctx;
    const EdgePartition fast = TlpPartitioner{}.partition(g, config, ctx);
    const Telemetry& t = ctx.telemetry();
    const std::vector<double>* stage2 = t.series("round_stage2_joins");
    ASSERT_NE(stage2, nullptr);
    const auto reached = std::count_if(stage2->begin(), stage2->end(),
                                       [](double j) { return j > 0.0; });
    EXPECT_GT(t.counter("stage_switches"), static_cast<double>(reached));
    const EdgePartition slow = NaiveTlp(g, config).run();
    ASSERT_EQ(fast.raw(), slow.raw());
  }
}

}  // namespace
}  // namespace tlp
