#include "metis/refine.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

namespace tlp::metis {
namespace {

/// Sum of edge weights from v into each of the two sides.
struct SideWeights {
  Weight same = 0;
  Weight other = 0;
};

SideWeights side_weights(const WGraph& g, const std::vector<PartitionId>& parts,
                         VertexId v) {
  SideWeights w;
  for (const WNeighbor& nb : g.neighbors(v)) {
    if (parts[nb.vertex] == parts[v]) {
      w.same += nb.weight;
    } else {
      w.other += nb.weight;
    }
  }
  return w;
}

}  // namespace

Weight fm_refine_bisection(const WGraph& g, std::vector<PartitionId>& parts,
                           Weight target0, double imbalance, int max_passes) {
  const VertexId n = g.num_vertices();
  const Weight total = g.total_vertex_weight();
  const Weight target1 = total - target0;
  // Allowed maxima; always leave room for at least the heaviest single move.
  const auto max0 = static_cast<Weight>(static_cast<double>(target0) * imbalance);
  const auto max1 = static_cast<Weight>(static_cast<double>(target1) * imbalance);

  Weight side0 = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (parts[v] == 0) side0 += g.vertex_weight(v);
  }
  Weight cut = weighted_cut(g, parts);

  std::vector<Weight> gain(n);
  for (int pass = 0; pass < max_passes; ++pass) {
    // Gain of moving v to the other side = ext - int.
    std::set<std::pair<Weight, VertexId>, std::greater<>> queue;
    for (VertexId v = 0; v < n; ++v) {
      const SideWeights w = side_weights(g, parts, v);
      gain[v] = w.other - w.same;
      queue.insert({gain[v], v});
    }

    std::vector<VertexId> moved;            // move sequence this pass
    std::vector<bool> locked(n, false);
    Weight running_cut = cut;
    Weight best_cut = cut;
    std::size_t best_prefix = 0;
    Weight running_side0 = side0;
    Weight best_side0 = side0;

    while (!queue.empty()) {
      // Pop the best-gain movable vertex whose move keeps balance feasible.
      auto it = queue.begin();
      VertexId v = kInvalidVertex;
      for (; it != queue.end(); ++it) {
        const VertexId cand = it->second;
        const Weight vw = g.vertex_weight(cand);
        const bool to1 = parts[cand] == 0;
        const Weight new_side0 = to1 ? running_side0 - vw : running_side0 + vw;
        if ((to1 ? total - new_side0 <= max1 : new_side0 <= max0)) {
          v = cand;
          break;
        }
      }
      if (v == kInvalidVertex) break;
      queue.erase(it);
      locked[v] = true;

      const Weight vw = g.vertex_weight(v);
      running_side0 += parts[v] == 0 ? -vw : vw;
      running_cut -= gain[v];
      parts[v] ^= 1u;
      moved.push_back(v);

      // Update neighbor gains (classic FM delta: ±2 * w(v,u)).
      for (const WNeighbor& nb : g.neighbors(v)) {
        if (locked[nb.vertex]) continue;
        queue.erase({gain[nb.vertex], nb.vertex});
        // After v switched sides: if u is now on v's side, moving u away
        // loses w; otherwise it gains w — relative to before, the delta is
        // -2w when same side now, +2w when different.
        if (parts[nb.vertex] == parts[v]) {
          gain[nb.vertex] -= 2 * nb.weight;
        } else {
          gain[nb.vertex] += 2 * nb.weight;
        }
        queue.insert({gain[nb.vertex], nb.vertex});
      }

      if (running_cut < best_cut ||
          (running_cut == best_cut &&
           std::abs(running_side0 - target0) < std::abs(best_side0 - target0))) {
        best_cut = running_cut;
        best_prefix = moved.size();
        best_side0 = running_side0;
      }
    }

    // Roll back moves beyond the best prefix.
    for (std::size_t i = moved.size(); i > best_prefix; --i) {
      parts[moved[i - 1]] ^= 1u;
    }
    side0 = best_side0;
    const bool improved = best_cut < cut;
    cut = best_cut;
    if (!improved) break;
  }
  return cut;
}

Weight kway_refine(const WGraph& g, std::vector<PartitionId>& parts,
                   PartitionId k, double imbalance, int max_passes,
                   std::uint64_t seed, const RunContext* ctx) {
  const VertexId n = g.num_vertices();
  const Weight total = g.total_vertex_weight();
  const auto max_part = static_cast<Weight>(
      imbalance * static_cast<double>(total) / static_cast<double>(k) + 1.0);

  std::vector<Weight> part_weight(k, 0);
  for (VertexId v = 0; v < n; ++v) part_weight[parts[v]] += g.vertex_weight(v);

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::mt19937_64 rng(seed);

  std::vector<Weight> conn(k, 0);       // connectivity of v to each part
  std::vector<PartitionId> touched;     // parts with conn != 0 (for reset)

  for (int pass = 0; pass < max_passes; ++pass) {
    if (ctx != nullptr) ctx->check_cancelled();
    std::shuffle(order.begin(), order.end(), rng);
    std::size_t moves = 0;
    for (const VertexId v : order) {
      touched.clear();
      bool boundary = false;
      for (const WNeighbor& nb : g.neighbors(v)) {
        const PartitionId q = parts[nb.vertex];
        if (conn[q] == 0) touched.push_back(q);
        conn[q] += nb.weight;
        if (q != parts[v]) boundary = true;
      }
      if (boundary) {
        const PartitionId from = parts[v];
        const Weight vw = g.vertex_weight(v);
        PartitionId best = from;
        Weight best_gain = 0;
        for (const PartitionId q : touched) {
          if (q == from) continue;
          if (part_weight[q] + vw > max_part) continue;
          const Weight move_gain = conn[q] - conn[from];
          const bool balance_win =
              move_gain == 0 && part_weight[q] + vw < part_weight[from];
          if (move_gain > best_gain || (move_gain == best_gain && best != from &&
                                        part_weight[q] < part_weight[best]) ||
              (best == from && balance_win)) {
            best = q;
            best_gain = move_gain;
          }
        }
        if (best != from) {
          parts[v] = best;
          part_weight[from] -= vw;
          part_weight[best] += vw;
          ++moves;
        }
      }
      for (const PartitionId q : touched) conn[q] = 0;
    }
    if (moves == 0) break;
  }
  return weighted_cut(g, parts);
}

}  // namespace tlp::metis
