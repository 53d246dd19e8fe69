// Tests for the Frontier candidate structure — this is where the paper's
// Eq. 7 (μs1) and Eq. 9 (μs2) selection rules live, so the hand-computed
// examples here are the ground truth for the scoring math, and the
// randomized differential suite pits the flat (epoch-tagged slot array +
// bucket ladder) implementation against a naive O(|frontier|)-scan oracle.
// Only the index of the stage last selected from is kept current, so the
// stage-run scripts pin what a switch rebuilds.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "core/frontier.hpp"

namespace tlp {
namespace {

TEST(Frontier, StartsEmpty) {
  Frontier f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.select_stage1(), kInvalidVertex);
  EXPECT_EQ(f.select_stage2(0, 0), kInvalidVertex);
}

TEST(Frontier, InsertAndConnectionCounting) {
  Frontier f;
  f.add_connection(7, /*rdeg=*/4, 0.5);
  EXPECT_TRUE(f.contains(7));
  EXPECT_EQ(f.connections(7), 1u);
  f.add_connection(7, 4, 0.2);
  EXPECT_EQ(f.connections(7), 2u);
  EXPECT_EQ(f.size(), 1u);
}

TEST(Frontier, ClearAndRemove) {
  Frontier f;
  f.add_connection(1, 2, 0.1);
  f.add_connection(2, 3, 0.9);
  f.remove(2);
  EXPECT_FALSE(f.contains(2));
  EXPECT_EQ(f.select_stage1(), 1u);
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.select_stage1(), kInvalidVertex);
}

TEST(Frontier, RemoveOfNonCandidateIsNoOp) {
  Frontier f;
  f.add_connection(1, 2, 0.1);
  f.remove(99);  // never inserted
  f.remove(1);
  f.remove(1);  // second removal of the same vertex
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
}

TEST(Frontier, AtExposesCandidateState) {
  Frontier f;
  f.add_connection(5, 7, 0.25);
  f.add_connection(5, 7, 0.75);
  const Frontier::Candidate& cand = f.at(5);
  EXPECT_EQ(cand.c, 2u);
  EXPECT_EQ(cand.rdeg, 7u);
  EXPECT_DOUBLE_EQ(cand.mu1, 0.75);
}

TEST(FrontierStage1, PicksMaxMu1) {
  Frontier f;
  f.add_connection(10, 5, 0.4);  // μs1(10) = 0.4
  f.add_connection(20, 5, 0.6);  // μs1(20) = 0.6
  f.add_connection(30, 5, 0.5);  // μs1(30) = 0.5
  EXPECT_EQ(f.select_stage1(), 20u);
}

TEST(FrontierStage1, RunningMaxUpgradesCandidate) {
  Frontier f;
  f.add_connection(10, 5, 0.4);
  f.add_connection(20, 5, 0.6);
  // Vertex 10 gains a closer member: its μs1 = max(0.4, 0.9) = 0.9.
  f.add_connection(10, 5, 0.9);
  EXPECT_EQ(f.select_stage1(), 10u);
  // Lower later term must NOT downgrade the max.
  f.add_connection(10, 5, 0.1);
  EXPECT_EQ(f.select_stage1(), 10u);
}

TEST(FrontierStage1, TieBreaksToSmallerId) {
  Frontier f;
  f.add_connection(42, 3, 0.7);
  f.add_connection(17, 3, 0.7);
  EXPECT_EQ(f.select_stage1(), 17u);
}

TEST(FrontierStage1, SelectionSurvivesRemovalOfTop) {
  Frontier f;
  f.add_connection(1, 2, 0.9);
  f.add_connection(2, 2, 0.8);
  f.add_connection(3, 2, 0.7);
  EXPECT_EQ(f.select_stage1(), 1u);
  f.remove(1);
  EXPECT_EQ(f.select_stage1(), 2u);
  f.remove(2);
  EXPECT_EQ(f.select_stage1(), 3u);
}

// Hand-computed μs2 (Eq. 9): maximizing μs2 = 1 - 1/(1+ΔM) is equivalent to
// maximizing M' = (e_in + c) / (e_out + rdeg - 2c).
TEST(FrontierStage2, HandComputedSelection) {
  Frontier f;
  // Candidate A (id 1): c=1, rdeg=4. With e_in=5, e_out=4:
  //   M'(A) = (5+1)/(4+4-2) = 6/6 = 1.0
  f.add_connection(1, 4, 0.0);
  // Candidate B (id 2): c=2, rdeg=3:
  //   M'(B) = (5+2)/(4+3-4) = 7/3 ≈ 2.33  -> winner
  f.add_connection(2, 3, 0.0);
  f.add_connection(2, 3, 0.0);
  // Candidate C (id 3): c=1, rdeg=7 (hub with many external edges):
  //   M'(C) = (5+1)/(4+7-2) = 6/9 ≈ 0.67
  f.add_connection(3, 7, 0.0);
  EXPECT_EQ(f.select_stage2(5, 4), 2u);
}

TEST(FrontierStage2, ZeroDenominatorWins) {
  Frontier f;
  // Candidate 1: c=2, rdeg=2, e_out=2 -> denominator 2+2-4=0 (absorbing it
  // closes the partition boundary entirely): M' = infinity.
  f.add_connection(1, 2, 0.0);
  f.add_connection(1, 2, 0.0);
  // Candidate 2: huge c but nonzero denominator.
  f.add_connection(2, 9, 0.0);
  f.add_connection(2, 9, 0.0);
  f.add_connection(2, 9, 0.0);
  EXPECT_EQ(f.select_stage2(100, 2), 1u);
}

TEST(FrontierStage2, WithinSameCPrefersSmallerResidualDegree) {
  Frontier f;
  f.add_connection(5, 9, 0.0);  // c=1, rdeg=9
  f.add_connection(6, 3, 0.0);  // c=1, rdeg=3 -> smaller denominator, wins
  EXPECT_EQ(f.select_stage2(1, 5), 6u);
}

TEST(FrontierStage2, ExactTieBreaksToLargerC) {
  Frontier f;
  // e_in=1, e_out=3. A(c=1, rdeg=3): 2/(3+3-2)=2/4=1/2.
  // B(c=2, rdeg=7): 3/(3+7-4)=3/6=1/2. Tie -> larger c (B, id 2) wins.
  f.add_connection(1, 3, 0.0);
  f.add_connection(2, 7, 0.0);
  f.add_connection(2, 7, 0.0);
  EXPECT_EQ(f.select_stage2(1, 3), 2u);
}

TEST(FrontierStage2, StageSelectionsAreIndependent) {
  // Stage-2 ranking must ignore μs1 and vice versa.
  Frontier f;
  f.add_connection(1, 8, 0.99);  // great μs1, poor M'
  f.add_connection(2, 2, 0.01);  // poor μs1, great M'
  EXPECT_EQ(f.select_stage1(), 1u);
  EXPECT_EQ(f.select_stage2(3, 3), 2u);
}

// While Stage II is live the lazy overload never scores; the switch back
// rescores exactly the candidates connected since the switch, once each.
TEST(FrontierStages, StageTwoSkipsThunkAndSwitchBackRescoresTouched) {
  Frontier f;
  int thunks = 0;
  const auto connect = [&](VertexId u, double term) {
    f.add_connection(u, 9, 1.0, [&thunks, term] {
      ++thunks;
      return term;
    });
  };
  connect(1, 0.3);
  connect(2, 0.6);
  EXPECT_EQ(thunks, 2);  // both indexes are live before the first select
  EXPECT_EQ(f.select_stage1(), 2u);
  EXPECT_EQ(f.select_stage2(0, 4), 1u);  // ties at c=1, rdeg=9: smaller id
  EXPECT_EQ(f.stage_switches(), 1u);

  connect(1, 0.9);
  connect(3, 0.1);
  connect(1, 0.2);
  EXPECT_EQ(thunks, 2);  // Stage II is live: no Stage-I scoring at all
  EXPECT_EQ(f.select_stage2(0, 6), 1u);  // c(1) = 3

  std::multiset<VertexId> rescored;
  const auto rescore = [&rescored](VertexId v) {
    rescored.insert(v);
    return v == 1 ? 0.9 : 0.1;  // the exact running max of each
  };
  EXPECT_EQ(f.select_stage1(rescore), 1u);
  EXPECT_EQ(rescored, (std::multiset<VertexId>{1, 3}));  // 2 was untouched
  EXPECT_EQ(f.stage_switches(), 2u);
  EXPECT_DOUBLE_EQ(f.at(1).mu1, 0.9);

  rescored.clear();
  EXPECT_EQ(f.select_stage1(rescore), 1u);  // no switch: nothing rescored
  EXPECT_TRUE(rescored.empty());
  f.clear();
  connect(4, 0.5);
  EXPECT_EQ(f.select_stage2(0, 1), 4u);  // first select of a round
  EXPECT_EQ(f.stage_switches(), 2u);
}

// The eager path (concurrent growth): c, rdeg, and μs1 may all be re-stated
// in any direction.
TEST(FrontierUpsert, RestatesAllKeys) {
  Frontier f;
  f.upsert(4, 3, 9, 0.8);
  EXPECT_EQ(f.at(4).c, 3u);
  EXPECT_EQ(f.at(4).rdeg, 9u);
  EXPECT_EQ(f.select_stage1(), 4u);
  // A rival partition stole edges: c and rdeg DROP, μs1 drops too.
  f.upsert(4, 1, 5, 0.2);
  f.upsert(6, 2, 5, 0.5);
  EXPECT_EQ(f.at(4).c, 1u);
  EXPECT_EQ(f.at(4).rdeg, 5u);
  EXPECT_EQ(f.select_stage1(), 6u);  // stale 0.8 entry must not resurface
  // Stage 2 must use the re-stated (c, rdeg), not the push-time ones:
  // e_in=2, e_out=3: M'(4) = 3/(3+5-2) = 1/2, M'(6) = 4/(3+5-4) = 1. 6 wins.
  EXPECT_EQ(f.select_stage2(2, 3), 6u);
  f.remove(6);
  EXPECT_EQ(f.select_stage2(2, 3), 4u);
}

// Two rounds on the same Frontier must not leak stale candidates — even
// when a vertex reappears in the next round with the SAME (c, rdeg) state,
// so its old bucket entries look live again.
TEST(Frontier, EpochReuseAcrossRounds) {
  Frontier f;
  f.add_connection(1, 3, 0.5);
  f.add_connection(2, 3, 0.7);
  f.add_connection(2, 3, 0.7);  // c(2) = 2
  EXPECT_EQ(f.select_stage1(), 2u);
  f.clear();

  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.contains(1));
  EXPECT_FALSE(f.contains(2));
  EXPECT_EQ(f.select_stage1(), kInvalidVertex);
  EXPECT_EQ(f.select_stage2(0, 0), kInvalidVertex);

  // Round 2: vertex 1 reappears with the same c=1/rdeg=3 but a LOWER μs1;
  // vertex 2 stays out. The round-1 heap entries (μs1 0.5 and 0.7) and
  // bucket entries must not influence any selection.
  f.add_connection(1, 3, 0.1);
  f.add_connection(9, 4, 0.2);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.select_stage1(), 9u);
  // Stage 2 with e_in=0, e_out=2: M'(1) = 1/(2+3-2) = 1/3,
  // M'(9) = 1/(2+4-2) = 1/4 -> vertex 1 wins; vertex 2 must never surface.
  EXPECT_EQ(f.select_stage2(0, 2), 1u);
  f.remove(1);
  EXPECT_EQ(f.select_stage2(0, 2), 9u);
  f.remove(9);
  EXPECT_EQ(f.select_stage2(0, 2), kInvalidVertex);
}

}  // namespace

/// Sets the epoch directly, so a test reaches the wrap in a few clears.
struct FrontierTestPeer {
  static void set_epoch(Frontier& f, std::uint32_t epoch) { f.round_ = epoch; }
};

namespace {

// Membership lives in the same slot as candidacy: joining drops v as a
// candidate, and no selection can return a member.
TEST(FrontierMembers, MemberIsNeverContained) {
  Frontier f;
  f.add_connection(3, 4, 0.9);
  f.add_connection(5, 4, 0.1);
  EXPECT_FALSE(f.is_member(3));
  f.add_member(3);
  EXPECT_TRUE(f.is_member(3));
  EXPECT_FALSE(f.contains(3));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.select_stage1(), 5u);  // 3's higher μs1 entry is stale
  EXPECT_EQ(f.select_stage2(0, 2), 5u);
  f.add_member(7);  // a seed: never a candidate, far past the slots so far
  EXPECT_TRUE(f.is_member(7));
  EXPECT_FALSE(f.contains(7));
  EXPECT_EQ(f.size(), 1u);
  f.remove(5);
  f.add_member(5);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.select_stage1(), kInvalidVertex);
  EXPECT_EQ(f.select_stage2(0, 0), kInvalidVertex);
}

TEST(FrontierMembers, RemoveOfACandidateIsNoJoin) {
  Frontier f;
  f.add_connection(2, 3, 0.5);
  f.remove(2);
  EXPECT_FALSE(f.contains(2));
  EXPECT_FALSE(f.is_member(2));
  f.add_connection(2, 3, 0.5);  // may come back as a candidate
  EXPECT_TRUE(f.contains(2));
  EXPECT_FALSE(f.is_member(2));
  EXPECT_FALSE(f.is_member(1000));  // past the slots: neither
}

TEST(FrontierMembers, ClearEndsEveryMembership) {
  Frontier f;
  for (VertexId v = 0; v < 6; ++v) f.add_member(v);
  f.add_connection(8, 2, 0.3);
  f.clear();
  for (VertexId v = 0; v < 9; ++v) {
    EXPECT_FALSE(f.is_member(v)) << v;
    EXPECT_FALSE(f.contains(v)) << v;
  }
  // A member of the last round is an ordinary vertex in this one.
  f.add_connection(2, 5, 0.4);
  EXPECT_TRUE(f.contains(2));
  EXPECT_EQ(f.select_stage1(), 2u);
}

// Tags written at epoch 1 must not come back when the epoch wraps to 1
// again: the wrap re-zeros both tags of every slot.
TEST(FrontierMembers, ClearEndsEveryMembershipAcrossEpochWrap) {
  ScratchArena arena;
  Frontier f(arena, 16);  // pre-sized, like a growth run's
  f.add_member(1);        // tagged with epoch 1
  f.add_connection(2, 3, 0.5);
  FrontierTestPeer::set_epoch(f, 0xFFFFFFFEu);
  f.add_member(3);
  f.add_connection(4, 3, 0.5);
  f.clear();  // epoch 0xFFFFFFFF
  EXPECT_FALSE(f.is_member(3));
  EXPECT_FALSE(f.contains(4));
  f.add_member(5);
  f.add_connection(6, 3, 0.5);
  EXPECT_TRUE(f.is_member(5));
  f.clear();  // wraps to epoch 1
  for (VertexId v = 0; v < 16; ++v) {
    EXPECT_FALSE(f.is_member(v)) << v;
    EXPECT_FALSE(f.contains(v)) << v;
  }
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.select_stage1(), kInvalidVertex);
  f.add_member(2);
  EXPECT_TRUE(f.is_member(2));
  EXPECT_FALSE(f.is_member(1));
}

// ---------------------------------------------------------------------------
// Randomized differential suite: the flat Frontier vs a naive oracle that
// stores candidates in a std::map and scans ALL of them per selection with
// the documented ranking rules.
// ---------------------------------------------------------------------------

struct OracleCandidate {
  std::uint32_t c = 0;
  std::uint32_t rdeg = 0;
  double mu1 = 0.0;
};

class OracleFrontier {
 public:
  void add_connection(VertexId u, std::uint32_t rdeg, double term) {
    auto [it, inserted] = cands_.try_emplace(u);
    if (inserted) {
      it->second = {1, rdeg, term};
      return;
    }
    ++it->second.c;
    it->second.mu1 = std::max(it->second.mu1, term);
  }

  void upsert(VertexId v, std::uint32_t c, std::uint32_t rdeg, double mu1) {
    cands_[v] = {c, rdeg, mu1};
  }

  void remove(VertexId v) { cands_.erase(v); }
  void clear() { cands_.clear(); }
  [[nodiscard]] bool contains(VertexId v) const { return cands_.contains(v); }
  [[nodiscard]] std::size_t size() const { return cands_.size(); }

  /// argmax μs1, ties by smaller id (the map iterates ids ascending, so the
  /// first strict improvement wins).
  [[nodiscard]] VertexId select_stage1() const {
    VertexId best = kInvalidVertex;
    double best_mu = -1.0;
    for (const auto& [v, cand] : cands_) {
      if (cand.mu1 > best_mu) {
        best_mu = cand.mu1;
        best = v;
      }
    }
    return best;
  }

  /// argmax M' = (e_in + c)/(e_out + rdeg - 2c) over ALL candidates, exact
  /// fraction compare; ties by larger c, then smaller rdeg, then smaller id.
  [[nodiscard]] VertexId select_stage2(EdgeId e_in, EdgeId e_out) const {
    VertexId best = kInvalidVertex;
    OracleCandidate bc;
    for (const auto& [v, cand] : cands_) {
      if (best == kInvalidVertex) {
        best = v;
        bc = cand;
        continue;
      }
      const auto num = [&](const OracleCandidate& x) {
        return static_cast<std::uint64_t>(e_in) + x.c;
      };
      const auto den = [&](const OracleCandidate& x) {
        return static_cast<std::uint64_t>(e_out) + x.rdeg - 2ULL * x.c;
      };
      const auto better = [](std::uint64_t n1, std::uint64_t d1,
                             std::uint64_t n2, std::uint64_t d2) {
        if (d1 == 0 && d2 == 0) return n1 > n2;
        if (d1 == 0) return true;
        if (d2 == 0) return false;
        return static_cast<unsigned __int128>(n1) * d2 >
               static_cast<unsigned __int128>(n2) * d1;
      };
      const bool wins =
          better(num(cand), den(cand), num(bc), den(bc)) ||
          (!better(num(bc), den(bc), num(cand), den(cand)) &&
           (cand.c > bc.c ||
            (cand.c == bc.c && cand.rdeg < bc.rdeg)));  // id: map order
      if (wins) {
        best = v;
        bc = cand;
      }
    }
    return best;
  }

  [[nodiscard]] std::uint64_t sum_c() const {
    std::uint64_t total = 0;
    for (const auto& [v, cand] : cands_) total += cand.c;
    return total;
  }

  [[nodiscard]] const std::map<VertexId, OracleCandidate>& all() const {
    return cands_;
  }

 private:
  std::map<VertexId, OracleCandidate> cands_;
};

/// Sequential-semantics script: rdeg frozen per (vertex, round), c only
/// grows (capped at rdeg so Stage-2 denominators stay valid), rounds end
/// with clear() so epoch reuse is exercised throughout.
TEST(FrontierDifferential, SequentialScriptMatchesOracle) {
  constexpr VertexId kIds = 48;
  std::mt19937 rng(20260806);
  Frontier flat;
  OracleFrontier oracle;
  std::vector<std::uint32_t> round_rdeg(kIds, 0);  // 0 = free this round

  const auto roll = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };

  for (int op = 0; op < 3000; ++op) {
    const std::uint32_t kind = roll(0, 99);
    if (kind < 55) {  // add_connection
      const VertexId u = roll(0, kIds - 1);
      if (!oracle.contains(u)) round_rdeg[u] = roll(1, 10);
      const std::uint32_t rdeg = round_rdeg[u];
      const bool at_cap = oracle.contains(u) && oracle.all().at(u).c >= rdeg;
      if (at_cap) continue;  // keep c <= rdeg (residual edges are real edges)
      const double term = roll(0, 1000) / 1000.0;
      flat.add_connection(u, rdeg, term);
      oracle.add_connection(u, rdeg, term);
    } else if (kind < 70) {  // remove a random live candidate
      if (oracle.size() == 0) continue;
      auto it = oracle.all().begin();
      std::advance(it, roll(0, static_cast<std::uint32_t>(oracle.size()) - 1));
      const VertexId v = it->first;
      flat.remove(v);
      oracle.remove(v);
    } else if (kind < 97) {  // compare both selections
      ASSERT_EQ(flat.size(), oracle.size());
      ASSERT_EQ(flat.select_stage1(), oracle.select_stage1())
          << "stage1 diverged at op " << op;
      const EdgeId e_in = roll(0, 100);
      const EdgeId e_out = oracle.sum_c() + roll(0, 5);
      ASSERT_EQ(flat.select_stage2(e_in, e_out),
                oracle.select_stage2(e_in, e_out))
          << "stage2 diverged at op " << op;
    } else {  // end of round
      flat.clear();
      oracle.clear();
      std::fill(round_rdeg.begin(), round_rdeg.end(), 0u);
    }
  }
}

/// Eager-semantics script (the concurrent growth API): upsert re-states
/// c/rdeg/μs1 in any direction, candidates vanish when rivals take their
/// last connection.
TEST(FrontierDifferential, EagerScriptMatchesOracle) {
  constexpr VertexId kIds = 40;
  std::mt19937 rng(777);
  Frontier flat;
  OracleFrontier oracle;

  const auto roll = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };

  for (int op = 0; op < 2500; ++op) {
    const std::uint32_t kind = roll(0, 99);
    if (kind < 60) {  // upsert with arbitrary (but valid: c <= rdeg) state
      const VertexId v = roll(0, kIds - 1);
      const std::uint32_t rdeg = roll(1, 12);
      const std::uint32_t c = roll(1, rdeg);
      const double mu1 = roll(0, 1000) / 1000.0;
      flat.upsert(v, c, rdeg, mu1);
      oracle.upsert(v, c, rdeg, mu1);
    } else if (kind < 72) {  // candidate lost its last connection
      if (oracle.size() == 0) continue;
      auto it = oracle.all().begin();
      std::advance(it, roll(0, static_cast<std::uint32_t>(oracle.size()) - 1));
      const VertexId v = it->first;
      flat.remove(v);
      oracle.remove(v);
    } else {  // compare both selections
      ASSERT_EQ(flat.size(), oracle.size());
      ASSERT_EQ(flat.select_stage1(), oracle.select_stage1())
          << "stage1 diverged at op " << op;
      const EdgeId e_in = roll(0, 50);
      const EdgeId e_out = oracle.sum_c() + roll(0, 8);
      ASSERT_EQ(flat.select_stage2(e_in, e_out),
                oracle.select_stage2(e_in, e_out))
          << "stage2 diverged at op " << op;
    }
  }
}

/// How a stage-run script states candidates.
enum class Connect { kValue, kLazy, kUpsert };

/// Stage-run script: selections stay in one stage for runs of random
/// length (often one select, sometimes dozens) and then switch, so each
/// index spends long stretches dormant and is rebuilt from the touched
/// list. The lazy flavour's thunk must never run while Stage II is live,
/// and a switch back may rescore only candidates connected since the
/// switch. The upsert flavour often re-states one key and keeps the other,
/// which leaves a candidate's older touch records behind its current c.
/// Joins make random vertices members (a candidate or not, as growth does
/// with its selections and seeds); no flavour connects a member again, and
/// every select also checks contains()/is_member() of every id.
void run_stage_script(Connect how, std::uint32_t seed) {
  constexpr VertexId kIds = 48;
  std::mt19937 rng(seed);
  Frontier flat;
  OracleFrontier oracle;
  std::vector<std::uint32_t> round_rdeg(kIds, 0);
  const auto roll = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
  };

  bool stage1 = true;
  bool selected = false;  // a select since the last clear()
  int run_left = 1;
  std::set<VertexId> since_switch;
  std::set<VertexId> members;
  int joins = 0;
  int stage2_thunks = 0;
  int switches = 0;
  const auto rescore = [&](VertexId v) {
    EXPECT_TRUE(since_switch.contains(v)) << "rescored untouched " << v;
    return oracle.all().at(v).mu1;
  };

  for (int op = 0; op < 6000; ++op) {
    const std::uint32_t kind = roll(0, 99);
    if (kind < 50) {
      const VertexId u = roll(0, kIds - 1);
      if (members.contains(u)) continue;  // residual edges lead outward
      if (how == Connect::kUpsert) {
        const bool live = oracle.contains(u);
        OracleCandidate next{roll(1, 12), 0, roll(0, 1000) / 1000.0};
        next.rdeg = roll(next.c, 12);
        if (live && roll(0, 1) == 0) {
          const OracleCandidate& cur = oracle.all().at(u);
          if (roll(0, 1) == 0) {
            next.mu1 = cur.mu1;  // only c/rdeg move
          } else {
            next.c = cur.c;  // only μs1 moves
            next.rdeg = cur.rdeg;
          }
        }
        flat.upsert(u, next.c, next.rdeg, next.mu1);
        oracle.upsert(u, next.c, next.rdeg, next.mu1);
      } else {
        if (!oracle.contains(u)) round_rdeg[u] = roll(1, 10);
        const std::uint32_t rdeg = round_rdeg[u];
        if (oracle.contains(u) && oracle.all().at(u).c >= rdeg) continue;
        const double term = roll(0, 1000) / 1000.0;
        if (how == Connect::kValue) {
          flat.add_connection(u, rdeg, term);
        } else {
          const double bound = std::min(1.0, term + roll(0, 300) / 1000.0);
          flat.add_connection(u, rdeg, bound, [&, term] {
            if (selected && !stage1) ++stage2_thunks;
            return term;
          });
        }
        oracle.add_connection(u, rdeg, term);
      }
      since_switch.insert(u);
    } else if (kind < 59) {  // remove a random live candidate
      if (oracle.size() == 0) continue;
      auto it = oracle.all().begin();
      std::advance(it, roll(0, static_cast<std::uint32_t>(oracle.size()) - 1));
      const VertexId v = it->first;
      flat.remove(v);
      oracle.remove(v);
    } else if (kind < 65) {  // a vertex joins the partition
      const VertexId v = roll(0, kIds - 1);
      if (members.contains(v)) continue;
      flat.add_member(v);
      oracle.remove(v);
      members.insert(v);
      ++joins;
    } else if (kind < 98) {  // select in the current stage
      for (VertexId v = 0; v < kIds; ++v) {
        ASSERT_EQ(flat.contains(v), oracle.contains(v)) << v << " op " << op;
        ASSERT_EQ(flat.is_member(v), members.contains(v)) << v << " op " << op;
      }
      bool switching = false;
      if (--run_left <= 0) {
        switching = selected;
        stage1 = !stage1;
        run_left = roll(0, 3) == 0 ? static_cast<int>(roll(10, 60))
                                   : static_cast<int>(roll(1, 3));
        if (switching) ++switches;
      }
      ASSERT_EQ(flat.size(), oracle.size());
      if (stage1) {
        const VertexId got = how == Connect::kLazy
                                 ? flat.select_stage1(rescore)
                                 : flat.select_stage1();
        ASSERT_EQ(got, oracle.select_stage1()) << "stage1 diverged at op "
                                               << op;
      } else {
        const EdgeId e_in = roll(0, 100);
        const EdgeId e_out = oracle.sum_c() + roll(0, 5);
        ASSERT_EQ(flat.select_stage2(e_in, e_out),
                  oracle.select_stage2(e_in, e_out))
            << "stage2 diverged at op " << op;
      }
      ASSERT_EQ(flat.stage_switches(), static_cast<std::size_t>(switches));
      // Connections before a round's first select, or before a switch,
      // are already in both indexes.
      if (!selected || switching) since_switch.clear();
      selected = true;
    } else {  // end of round
      flat.clear();
      oracle.clear();
      std::fill(round_rdeg.begin(), round_rdeg.end(), 0u);
      selected = false;
      since_switch.clear();
      members.clear();
    }
  }
  EXPECT_EQ(stage2_thunks, 0);
  EXPECT_GT(switches, 100);
  EXPECT_GT(joins, 100);
}

TEST(FrontierDifferential, StageRunsMatchOracleValueOverload) {
  run_stage_script(Connect::kValue, 31);
}

TEST(FrontierDifferential, StageRunsMatchOracleLazyOverload) {
  run_stage_script(Connect::kLazy, 32);
}

TEST(FrontierDifferential, StageRunsMatchOracleUpsert) {
  run_stage_script(Connect::kUpsert, 33);
}

}  // namespace
}  // namespace tlp
