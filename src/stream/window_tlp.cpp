#include "stream/window_tlp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "core/frontier.hpp"

namespace tlp::stream {
namespace {

/// The bounded in-memory buffer: a dynamic multigraph over the unassigned
/// edges currently inside the window. Adjacency entries are cleaned lazily
/// (assigned slots are swap-removed when a vertex's list is next scanned).
/// All three tables lease their storage from the caller's arena, so
/// repeated partition_stream calls on a shared RunContext stop rebuilding
/// them from cold allocations (the ROADMAP's warm-arena streaming item).
class WindowBuffer {
 public:
  WindowBuffer(VertexId num_vertices, ScratchArena& arena)
      : slots_(arena.acquire<Slot>(0)),
        adjacency_(arena.acquire<std::vector<std::size_t>>(num_vertices)),
        live_degree_(arena.acquire<std::uint32_t>(num_vertices, 0)) {}

  struct Slot {
    VertexId u;
    VertexId v;
    EdgeId global_id;
    bool assigned = false;
  };

  [[nodiscard]] EdgeId live_edges() const { return live_edges_; }
  [[nodiscard]] std::uint32_t live_degree(VertexId v) const {
    return live_degree_[v];
  }

  /// Inserts an unassigned edge; returns its slot index.
  std::size_t add(const StreamEdge& e) {
    const std::size_t slot = slots_->size();
    slots_->push_back(Slot{e.edge.u, e.edge.v, e.id});
    adjacency_[e.edge.u].push_back(slot);
    adjacency_[e.edge.v].push_back(slot);
    ++live_degree_[e.edge.u];
    ++live_degree_[e.edge.v];
    ++live_edges_;
    return slot;
  }

  [[nodiscard]] const Slot& slot(std::size_t index) const {
    return slots_[index];
  }

  /// Marks a slot assigned and updates live degrees.
  void assign(std::size_t index) {
    Slot& s = slots_[index];
    assert(!s.assigned);
    s.assigned = true;
    --live_degree_[s.u];
    --live_degree_[s.v];
    --live_edges_;
  }

  /// Calls fn(other_endpoint, slot_index) for every live edge at v, lazily
  /// compacting v's adjacency list.
  template <typename Fn>
  void for_each_live(VertexId v, Fn&& fn) {
    auto& list = adjacency_[v];
    std::size_t write = 0;
    for (std::size_t read = 0; read < list.size(); ++read) {
      const std::size_t index = list[read];
      const Slot& s = slots_[index];
      if (s.assigned) continue;  // drop lazily
      list[write++] = index;
      fn(s.u == v ? s.v : s.u, index);
    }
    list.resize(write);
  }

  /// Any vertex with a live edge, scanning from a rotating cursor; returns
  /// kInvalidVertex when the buffer is empty.
  [[nodiscard]] VertexId any_live_vertex() {
    while (seed_cursor_ < slots_->size()) {
      if (!slots_[seed_cursor_].assigned) return slots_[seed_cursor_].u;
      ++seed_cursor_;
    }
    // Older slots may have been refilled after the cursor passed; fall back
    // to a full scan (rare: only when the stream interleaves adversarially).
    for (std::size_t i = 0; i < slots_->size(); ++i) {
      if (!slots_[i].assigned) return slots_[i].u;
    }
    return kInvalidVertex;
  }

 private:
  ScratchArena::Lease<Slot> slots_;
  ScratchArena::Lease<std::vector<std::size_t>> adjacency_;
  ScratchArena::Lease<std::uint32_t> live_degree_;
  EdgeId live_edges_ = 0;
  std::size_t seed_cursor_ = 0;
};

class WindowRun {
 public:
  WindowRun(EdgeStream& source, const PartitionConfig& config,
            EdgeId window_capacity, WindowStats& stats, RunContext& ctx)
      : source_(source),
        config_(config),
        window_capacity_(window_capacity),
        stats_(stats),
        ctx_(ctx),
        buffer_(source.num_vertices(), ctx.arena()),
        assignment_(static_cast<std::size_t>(source.total_edges()),
                    kNoPartition),
        count_(ctx.arena().acquire<std::uint32_t>(source.num_vertices(), 0)),
        touched_(ctx.arena().acquire<VertexId>(0)),
        residual_neighbors_(ctx.arena().acquire<VertexId>(0)),
        load_(ctx.arena().acquire<EdgeId>(config.num_partitions, 0)),
        frontier_(ctx.arena()) {}

  std::vector<PartitionId> run() {
    const PartitionId p = config_.num_partitions;
    const EdgeId capacity = config_.capacity(source_.total_edges());
    refill();
    for (PartitionId k = 0; k + 1 < p && buffer_.live_edges() > 0; ++k) {
      ctx_.check_cancelled();
      grow(k, capacity);
      refill();
    }
    drain(p - 1);
    return std::move(assignment_);
  }

 private:
  void assign_slot(std::size_t slot, PartitionId k) {
    assignment_[static_cast<std::size_t>(buffer_.slot(slot).global_id)] = k;
    buffer_.assign(slot);
    ++load_[k];
  }

  /// Tops the window up from the stream. New edges with both endpoints in
  /// the current partition are claimed immediately; edges with exactly one
  /// member endpoint extend the frontier. Only called when the frontier is
  /// empty or between rounds, so no candidate's frozen residual degree can
  /// be invalidated — except brand-new candidates created here, which are
  /// inserted after all adds so their degrees are final.
  void refill() {
    std::vector<std::size_t> fresh;
    bool streamed = false;
    while (buffer_.live_edges() < window_capacity_) {
      const std::optional<StreamEdge> e = source_.next();
      if (!e.has_value()) break;
      streamed = true;
      if (e->edge.is_self_loop()) {
        // Degenerate: a self-loop never spans partitions; assign to the
        // lightest partition directly.
        const auto lightest = static_cast<PartitionId>(std::distance(
            load_->begin(),
            std::min_element(load_->begin(), load_->end())));
        assignment_[static_cast<std::size_t>(e->id)] = lightest;
        ++load_[lightest];
        ++stats_.self_loops;
        continue;
      }
      fresh.push_back(buffer_.add(*e));
    }
    if (streamed) ++stats_.refills;
    // Between rounds nothing is active, and the frontier still tags the
    // closed round's members.
    if (!round_open_) return;

    for (const std::size_t slot : fresh) {
      const auto& s = buffer_.slot(slot);
      if (s.assigned) continue;
      const bool mu = frontier_.is_member(s.u);
      const bool mv = frontier_.is_member(s.v);
      if (mu && mv) {
        assign_slot(slot, round_partition_);
        ++e_in_;
      } else if (mu || mv) {
        ++e_out_;
        connect_candidate(mu ? s.v : s.u, mu ? s.u : s.v);
      }
    }
  }

  /// Window-local Stage-I term for a refill-created candidate (Eq. 7 on the
  /// buffered graph): |N_w(u) ∩ N_w(member)| / |N_w(member)|, intersecting
  /// via the shared count_ scratch (epoch-free: reset after use).
  [[nodiscard]] double stage1_term(VertexId u, VertexId member) {
    const std::uint32_t dm = buffer_.live_degree(member);
    if (dm == 0) return 0.0;
    touched_->clear();
    buffer_.for_each_live(u, [&](VertexId w, std::size_t) {
      if (count_[w]++ == 0) touched_->push_back(w);
    });
    std::size_t common = 0;
    buffer_.for_each_live(member, [&](VertexId w, std::size_t) {
      if (count_[w] != 0) ++common;
    });
    for (const VertexId w : *touched_) count_[w] = 0;
    return static_cast<double>(common) / static_cast<double>(dm);
  }

  void connect_candidate(VertexId u, VertexId member) {
    const double term = stage1_term(u, member);
    frontier_.add_connection(u, buffer_.live_degree(u), term);
  }

  /// Adds v to the current partition (round_partition_), claiming its live
  /// edges to members and extending the frontier. Stage-I terms come from
  /// one shared counting pass over v's buffered two-hop neighborhood.
  /// Window neighborhoods are live-edge neighborhoods — assigned edges have
  /// left memory, which is the windowing approximation of Eq. 7's static
  /// N(v) (documented in DESIGN.md).
  void join(VertexId v) {
    assert(!frontier_.is_member(v));
    frontier_.add_member(v);
    const std::uint32_t deg_at_join =
        std::max<std::uint32_t>(1, buffer_.live_degree(v));

    residual_neighbors_->clear();
    buffer_.for_each_live(v, [&](VertexId u, std::size_t slot) {
      if (frontier_.is_member(u)) {
        assign_slot(slot, round_partition_);
        ++e_in_;
        assert(e_out_ > 0);
        --e_out_;
      } else {
        ++e_out_;
        residual_neighbors_->push_back(u);
      }
    });
    if (residual_neighbors_->empty()) return;

    // Shared counting pass: count_[x] = |N_w(x) ∩ N_w(v)| over live edges.
    touched_->clear();
    buffer_.for_each_live(v, [&](VertexId w, std::size_t) {
      buffer_.for_each_live(w, [&](VertexId x, std::size_t) {
        if (count_[x]++ == 0) touched_->push_back(x);
      });
    });
    const double dv = static_cast<double>(deg_at_join);
    for (const VertexId u : *residual_neighbors_) {
      const double term = static_cast<double>(count_[u]) / dv;
      frontier_.add_connection(u, buffer_.live_degree(u), term);
    }
    for (const VertexId x : *touched_) count_[x] = 0;
  }

  void grow(PartitionId k, EdgeId capacity) {
    round_open_ = true;
    round_partition_ = k;
    frontier_.clear();
    e_in_ = 0;
    e_out_ = 0;

    while (e_in_ < capacity) {
      if (frontier_.empty()) {
        if (buffer_.live_edges() == 0) {
          refill();
          // Fresh edges at a member made candidates: grow from those. A
          // reseed could pick a member itself, which must not join twice.
          if (!frontier_.empty()) continue;
        }
        const VertexId seed = buffer_.any_live_vertex();
        if (seed == kInvalidVertex) break;  // stream + buffer exhausted
        ++stats_.reseeds;
        join(seed);
        continue;
      }
      const bool stage1 = e_in_ <= e_out_;
      const VertexId v = stage1 ? frontier_.select_stage1()
                                : frontier_.select_stage2(e_in_, e_out_);
      assert(v != kInvalidVertex);
      join(v);
      if (stage1) {
        ++stats_.stage1_joins;
      } else {
        ++stats_.stage2_joins;
      }
    }
    // The round is closed: the between-rounds refill must not keep feeding
    // this partition through the (now finished) member set.
    round_open_ = false;
  }

  /// Final partition absorbs whatever is left in the buffer and the stream.
  void drain(PartitionId k) {
    for (;;) {
      VertexId v = buffer_.any_live_vertex();
      while (v != kInvalidVertex) {
        buffer_.for_each_live(v, [&](VertexId, std::size_t slot) {
          assign_slot(slot, k);
          ++stats_.drained_edges;
        });
        v = buffer_.any_live_vertex();
      }
      const std::optional<StreamEdge> e = source_.next();
      if (!e.has_value()) break;
      assignment_[static_cast<std::size_t>(e->id)] = k;
      ++load_[k];
      ++stats_.drained_edges;
    }
  }

  EdgeStream& source_;
  const PartitionConfig& config_;
  EdgeId window_capacity_;
  WindowStats& stats_;
  RunContext& ctx_;

  WindowBuffer buffer_;
  std::vector<PartitionId> assignment_;
  ScratchArena::Lease<std::uint32_t> count_;
  ScratchArena::Lease<VertexId> touched_;
  ScratchArena::Lease<VertexId> residual_neighbors_;
  ScratchArena::Lease<EdgeId> load_;

  Frontier frontier_;
  bool round_open_ = false;
  PartitionId round_partition_ = 0;
  EdgeId e_in_ = 0;
  EdgeId e_out_ = 0;
};

}  // namespace

EdgePartition WindowTlpPartitioner::do_partition(const Graph& g,
                                                 const PartitionConfig& config,
                                                 RunContext& ctx) const {
  GraphEdgeStream source(g, config.seed);
  std::vector<PartitionId> assignment = partition_stream(source, config, ctx);
  return EdgePartition(config.num_partitions, std::move(assignment));
}

std::vector<PartitionId> WindowTlpPartitioner::partition_stream(
    EdgeStream& source, const PartitionConfig& config,
    WindowStats* stats) const {
  RunContext ctx;
  return partition_stream(source, config, ctx, stats);
}

std::vector<PartitionId> WindowTlpPartitioner::partition_stream(
    EdgeStream& source, const PartitionConfig& config, RunContext& ctx,
    WindowStats* stats) const {
  if (config.num_partitions == 0) {
    throw std::invalid_argument(
        "WindowTlpPartitioner: num_partitions must be >= 1");
  }
  const EdgeId capacity = config.capacity(source.total_edges());
  const EdgeId window = options_.window_capacity != 0
                            ? options_.window_capacity
                            : 2 * capacity;
  WindowStats local;
  local.window_capacity = window;
  std::vector<PartitionId> assignment = [&] {
    WindowRun run(source, config, window, local, ctx);
    return run.run();
  }();
  Telemetry& t = ctx.telemetry();
  t.set("window_capacity", static_cast<double>(local.window_capacity));
  t.add("refills", static_cast<double>(local.refills));
  t.add("reseeds", static_cast<double>(local.reseeds));
  t.add("drained_edges", static_cast<double>(local.drained_edges));
  t.add("self_loops", static_cast<double>(local.self_loops));
  t.add("stage1_joins", static_cast<double>(local.stage1_joins));
  t.add("stage2_joins", static_cast<double>(local.stage2_joins));
  if (stats != nullptr) *stats = local;
  return assignment;
}

}  // namespace tlp::stream
