// ResidualState: which edges are still unassigned, and per-vertex residual
// degrees. This is the "unpartitioned graph data" the paper's local method
// operates on — partitions only ever claim residual edges. Both O(m)/O(n)
// tables come from the run's ScratchArena so repeated runs reuse capacity.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "graph/graph.hpp"
#include "partition/run_context.hpp"

namespace tlp {

/// Per-vertex residual degrees packed to the narrowest unsigned width that
/// can hold the graph's maximum degree (u8/u16/u32). Most graphs — even
/// billion-edge ones — have max degree under 64k, so the table shrinks from
/// 4n bytes to n or 2n; on a memory-budgeted ingest-then-partition pipeline
/// that is the difference between the O(n) state fitting in cache or not.
/// The width is fixed at construction, so the switch below is perfectly
/// predicted on the hot path.
class PackedDegreeArray {
 public:
  PackedDegreeArray(ScratchArena& arena, std::size_t n,
                    std::size_t max_value)
      : width_(max_value <= 0xFF ? 1 : max_value <= 0xFFFF ? 2 : 4) {
    switch (width_) {
      case 1:
        d8_ = arena.acquire<std::uint8_t>(n, 0);
        break;
      case 2:
        d16_ = arena.acquire<std::uint16_t>(n, 0);
        break;
      default:
        d32_ = arena.acquire<std::uint32_t>(n, 0);
        break;
    }
  }

  [[nodiscard]] std::uint32_t get(std::size_t i) const {
    switch (width_) {
      case 1:
        return d8_[i];
      case 2:
        return d16_[i];
      default:
        return d32_[i];
    }
  }

  /// Precondition: v fits the construction-time width.
  void set(std::size_t i, std::uint32_t v) {
    switch (width_) {
      case 1:
        assert(v <= 0xFF);
        d8_[i] = static_cast<std::uint8_t>(v);
        break;
      case 2:
        assert(v <= 0xFFFF);
        d16_[i] = static_cast<std::uint16_t>(v);
        break;
      default:
        d32_[i] = v;
        break;
    }
  }

  /// Precondition: get(i) > 0.
  void decrement(std::size_t i) {
    switch (width_) {
      case 1:
        --d8_[i];
        break;
      case 2:
        --d16_[i];
        break;
      default:
        --d32_[i];
        break;
    }
  }

  /// Bytes per entry actually chosen (1, 2, or 4).
  [[nodiscard]] unsigned width() const { return width_; }

 private:
  unsigned width_;
  ScratchArena::Lease<std::uint8_t> d8_;
  ScratchArena::Lease<std::uint16_t> d16_;
  ScratchArena::Lease<std::uint32_t> d32_;
};

class ResidualState {
 public:
  ResidualState(const Graph& g, ScratchArena& arena);

  [[nodiscard]] bool is_assigned(EdgeId e) const {
    // Bit-packed: the whole table stays cache-resident even for large m.
    const auto id = static_cast<std::size_t>(e);
    return (assigned_[id >> 6] >> (id & 63)) & 1u;
  }

  /// Number of unassigned edges incident to v.
  [[nodiscard]] std::uint32_t residual_degree(VertexId v) const {
    return residual_degree_.get(v);
  }

  /// Bytes per residual-degree entry (1/2/4, chosen from max degree).
  [[nodiscard]] unsigned residual_degree_width() const {
    return residual_degree_.width();
  }

  [[nodiscard]] EdgeId unassigned_count() const { return unassigned_; }

  /// Marks e = {a, b} assigned and decrements both endpoints' residual
  /// degrees. The caller passes the endpoints it already holds, so the
  /// serial join path never loads the m-entry edge array.
  /// Precondition: e is unassigned.
  void mark_assigned(EdgeId e, VertexId a, VertexId b) {
    assert(!is_assigned(e));
    assert(std::minmax(a, b) ==
           std::minmax(graph_->edge(e).u, graph_->edge(e).v));
    const auto id = static_cast<std::size_t>(e);
    assigned_[id >> 6] |= std::uint64_t{1} << (id & 63);
    assert(residual_degree_.get(a) > 0 && residual_degree_.get(b) > 0);
    residual_degree_.decrement(a);
    residual_degree_.decrement(b);
    --unassigned_;
  }

 private:
  const Graph* graph_;
  /// One bit per edge: assigned_[w] holds edges [64w, 64w+63].
  ScratchArena::Lease<std::uint64_t> assigned_;
  PackedDegreeArray residual_degree_;
  EdgeId unassigned_ = 0;
};

}  // namespace tlp
