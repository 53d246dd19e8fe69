#include "graph/builder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "graph/csr_format.hpp"
#include "graph/io.hpp"
#include "util/simd.hpp"

namespace tlp {
namespace {

/// Smallest chunk the external regime will work with: below this the run
/// count explodes and the merge heap dominates, defeating the budget.
constexpr std::size_t kMinChunkEdges = 256;

/// Reverse-run file: magic, u64 count, then {owner, nb, edge} records in
/// strictly ascending (owner, nb) order. Internal to the builder (the edge
/// runs are the public, fuzzed surface; this one never outlives a build).
constexpr std::array<char, 4> kReverseRunMagic = {'T', 'L', 'R', 'R'};
constexpr std::size_t kReverseBufferRecords = std::size_t{1} << 10;

/// One adjacency record of the larger endpoint, awaiting its owner's turn.
struct ReverseEntry {
  VertexId owner = 0;  // edge endpoint v (the larger one)
  VertexId nb = 0;     // edge endpoint u
  EdgeId edge = 0;
};

/// Empty relabel slot. A filled slot never equals it: that would need the
/// dense id 0xFFFFFFFF, and RelabelTable stops at 2^32 - 1 ids.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
constexpr unsigned kInitialLog2Slots = 4;

/// The merge order of canonical edges and of reverse records, as one u64.
/// No canonical edge (u < v) packs to ~0, so ~0 can stand for "none yet".
constexpr std::uint64_t pack(VertexId hi, VertexId lo) {
  return (std::uint64_t{hi} << 32) | lo;
}
constexpr auto edge_key = [](const Edge& e) { return pack(e.u, e.v); };
constexpr Edge unpack_edge(std::uint64_t key) {
  return Edge{static_cast<VertexId>(key >> 32), static_cast<VertexId>(key)};
}
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// Stable LSD radix sort of `data` by the u64 key(record), one byte per
/// pass. A byte that is the same in every key costs no pass, so keys of
/// ids below 2^21 take six passes, not eight. `scratch` is the second
/// buffer; it is resized to data.size() and its contents are left
/// unspecified (the two vectors may trade storage).
template <typename T, typename KeyFn>
void radix_sort(std::vector<T>& data, std::vector<T>& scratch, KeyFn key) {
  const std::size_t n = data.size();
  if (n < 2) return;
  scratch.resize(n);
  std::array<std::array<std::size_t, 256>, 8> counts{};
  for (const T& record : data) {
    const std::uint64_t k = key(record);
    for (unsigned d = 0; d < 8; ++d) ++counts[d][(k >> (8 * d)) & 0xFF];
  }
  T* src = data.data();
  T* dst = scratch.data();
  for (unsigned d = 0; d < 8; ++d) {
    auto& count = counts[d];
    if (count[(key(src[0]) >> (8 * d)) & 0xFF] == n) continue;
    std::size_t sum = 0;
    for (std::size_t& c : count) {
      const std::size_t here = c;
      c = sum;
      sum += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(key(src[i]) >> (8 * d)) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data.data()) data.swap(scratch);
}

/// Min-heap of (packed key, source) for the k-way run merges. Ties break
/// on the source index, so a merge pops in one fixed order.
class MergeHeap {
 public:
  struct Item {
    std::uint64_t key;
    std::size_t source;
  };

  explicit MergeHeap(std::size_t sources) { items_.reserve(sources); }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] const Item& top() const { return items_.front(); }

  void push(std::uint64_t key, std::size_t source) {
    std::size_t i = items_.size();
    items_.push_back(Item{key, source});
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(items_[i], items_[parent])) break;
      std::swap(items_[i], items_[parent]);
      i = parent;
    }
  }
  /// The top's source advanced to `key`.
  void replace_top(std::uint64_t key) {
    items_.front().key = key;
    sift_down();
  }
  /// The top's source ran dry.
  void pop() {
    items_.front() = items_.back();
    items_.pop_back();
    if (!items_.empty()) sift_down();
  }

 private:
  static bool less(const Item& a, const Item& b) {
    return a.key < b.key || (a.key == b.key && a.source < b.source);
  }
  void sift_down() {
    const std::size_t n = items_.size();
    std::size_t i = 0;
    for (;;) {
      std::size_t best = i;
      const std::size_t l = 2 * i + 1;
      if (l < n && less(items_[l], items_[best])) best = l;
      if (l + 1 < n && less(items_[l + 1], items_[best])) best = l + 1;
      if (best == i) return;
      std::swap(items_[i], items_[best]);
      i = best;
    }
  }

  std::vector<Item> items_;
};

/// Frees a vector's storage; `v = {}` would keep its capacity.
template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

[[noreturn]] void fail_build(const std::string& what) {
  throw std::runtime_error("tlp::GraphBuilder: " + what);
}

std::filesystem::path make_temp_path(const std::filesystem::path& dir,
                                     const char* stem, const char* ext) {
  static std::atomic<unsigned> counter{0};
  std::random_device rd;
  return dir / (std::string(stem) + "-" + std::to_string(rd()) + "-" +
                std::to_string(counter.fetch_add(1)) + ext);
}

std::size_t parse_budget_env() {
  const char* env = std::getenv("TLP_BUILD_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  std::string_view s(env);
  if (s == "off" || s == "0") return 0;
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{}) {
    throw std::invalid_argument(
        "tlp: bad TLP_BUILD_BUDGET '" + std::string(s) + "'");
  }
  std::string_view suffix(ptr, s.data() + s.size() - ptr);
  if (suffix == "k" || suffix == "K") {
    value <<= 10;
  } else if (suffix == "m" || suffix == "M") {
    value <<= 20;
  } else if (suffix == "g" || suffix == "G") {
    value <<= 30;
  } else if (!suffix.empty()) {
    throw std::invalid_argument(
        "tlp: bad TLP_BUILD_BUDGET suffix '" + std::string(suffix) + "'");
  }
  return value;
}

}  // namespace

std::size_t RelabelTable::home_slot(VertexId raw, unsigned log2_slots) {
  return static_cast<std::size_t>(
      (std::uint64_t{raw} * 0x9E3779B97F4A7C15ULL) >> (64 - log2_slots));
}

VertexId RelabelTable::intern(VertexId raw) {
  if (slots_.empty()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home_slot(raw, log2_slots_);; i = (i + 1) & mask) {
    const std::uint64_t slot = slots_[i];
    if (slot == kEmptySlot) {
      if (2 * (std::size_t{size_} + 1) > slots_.size()) {
        grow();
        return intern(raw);
      }
      if (size_ == kInvalidVertex) {
        fail_build("more than 2^32 - 1 distinct vertex ids");
      }
      slots_[i] = pack(raw, size_);
      return size_++;
    }
    if (static_cast<VertexId>(slot >> 32) == raw) {
      return static_cast<VertexId>(slot);
    }
  }
}

void RelabelTable::prefetch(VertexId raw) const {
  if (!slots_.empty()) {
    simd::prefetch_read(slots_.data() + home_slot(raw, log2_slots_));
  }
}

void RelabelTable::grow() {
  const unsigned log2 = slots_.empty() ? kInitialLog2Slots : log2_slots_ + 1;
  std::vector<std::uint64_t> next(std::size_t{1} << log2, kEmptySlot);
  const std::size_t mask = next.size() - 1;
  for (const std::uint64_t slot : slots_) {
    if (slot == kEmptySlot) continue;
    std::size_t i = home_slot(static_cast<VertexId>(slot >> 32), log2);
    while (next[i] != kEmptySlot) i = (i + 1) & mask;
    next[i] = slot;
  }
  peak_bytes_ = std::max(peak_bytes_, (slots_.size() + next.size()) *
                                          sizeof(std::uint64_t));
  slots_.swap(next);
  log2_slots_ = log2;
}

void RelabelTable::clear() {
  release(slots_);
  log2_slots_ = 0;
  size_ = 0;
  peak_bytes_ = 0;
}

GraphBuilder::GraphBuilder(bool relabel)
    : relabel_(relabel), budget_(parse_budget_env()) {}

GraphBuilder::~GraphBuilder() { remove_runs(); }

void GraphBuilder::set_memory_budget(std::size_t bytes) {
  if (offered_ != 0) {
    fail_build("set_memory_budget must precede the first add_edge");
  }
  budget_ = bytes;
}

std::size_t GraphBuilder::chunk_capacity() const {
  // Half the budget for the chunk itself; the other half is the radix-sort
  // scratch while filling, and the merge structures afterwards.
  return std::max(budget_ / (2 * sizeof(Edge)), kMinChunkEdges);
}

void GraphBuilder::note_live_bytes(std::size_t bytes) {
  live_bytes_ = bytes;
  peak_bytes_ = std::max(peak_bytes_, bytes);
}

void GraphBuilder::remove_runs() {
  for (const auto& path : runs_) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  runs_.clear();
  run_edges_ = 0;
}

void GraphBuilder::reset() {
  release(edges_);
  release(scratch_);
  remove_runs();
  relabel_table_.clear();
  max_id_plus_one_ = 0;
  offered_ = 0;
  dropped_self_loops_ = 0;
  live_bytes_ = 0;
  peak_bytes_ = 0;
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  if (relabel_) {
    u = relabel_table_.intern(u);
    v = relabel_table_.intern(v);
  } else {
    if (u == kInvalidVertex || v == kInvalidVertex) {
      throw std::invalid_argument(
          "tlp::GraphBuilder: vertex id 4294967295 (kInvalidVertex) is "
          "reserved without relabel");
    }
    max_id_plus_one_ = std::max({max_id_plus_one_, u + 1, v + 1});
  }
  ++offered_;
  if (!external()) {
    edges_.push_back(Edge{u, v});
    return;
  }
  // External regime: canonicalize now (ids are final after interning) so
  // runs hold exactly what the merge wants; self-loops never reach a run.
  // Interning/max-tracking above still ran, so self-loop-only vertices
  // exist in the final graph exactly as in the in-memory regime.
  if (u == v) {
    ++dropped_self_loops_;
    return;
  }
  if (edges_.capacity() == 0) {
    edges_.reserve(chunk_capacity());
    note_live_bytes((edges_.capacity() + scratch_.capacity()) * sizeof(Edge));
  }
  edges_.push_back(Edge{u, v}.canonical());
  if (edges_.size() >= chunk_capacity()) spill_chunk();
}

void GraphBuilder::add_edges(std::span<const Edge> edges) {
  if (relabel_) {
    for (const Edge& e : edges) {
      relabel_table_.prefetch(e.u);
      relabel_table_.prefetch(e.v);
    }
  }
  for (const Edge& e : edges) add_edge(e.u, e.v);
}

void GraphBuilder::spill_chunk() {
  if (edges_.empty()) return;
  radix_sort(edges_, scratch_, edge_key);
  note_live_bytes((edges_.capacity() + scratch_.capacity()) * sizeof(Edge));
  const auto last = std::unique(edges_.begin(), edges_.end());
  edges_.erase(last, edges_.end());
  const std::filesystem::path dir =
      storage_.spill_dir.empty() ? std::filesystem::temp_directory_path()
                                 : storage_.spill_dir;
  const auto path = make_temp_path(dir, "tlp-run", ".tlpr");
  io::write_edge_run(path, edges_.data(), edges_.size());
  runs_.push_back(path);
  run_edges_ += edges_.size();
  edges_.clear();
}

template <typename Fn>
void GraphBuilder::for_each_merged_edge(Fn&& fn) const {
  // Resident chunk is always empty here in the external regime (the final
  // chunk is spilled before the merge), so the k-way heap covers it all;
  // the budget==0 path merges the single sorted resident vector trivially.
  if (runs_.empty()) {
    std::uint64_t prev = kNoKey;
    for (const Edge& e : edges_) {
      if (edge_key(e) == prev) continue;
      fn(e);
      prev = edge_key(e);
    }
    return;
  }
  std::vector<io::EdgeRunReader> readers;
  readers.reserve(runs_.size());
  for (const auto& path : runs_) readers.emplace_back(path);

  MergeHeap heap(readers.size());
  Edge e{};
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (readers[i].next(e)) heap.push(edge_key(e), i);
  }
  std::uint64_t prev = kNoKey;
  while (!heap.empty()) {
    const auto [key, run] = heap.top();
    if (key != prev) {  // cross-run duplicates collapse here
      fn(unpack_edge(key));
      prev = key;
    }
    if (readers[run].next(e)) {
      heap.replace_top(edge_key(e));
    } else {
      heap.pop();
    }
  }
}

/// Drops the self-loops of the resident list, canonicalizes the rest, then
/// sorts and deduplicates it in place; returns the self-loop count.
std::size_t GraphBuilder::clean_resident_edges() {
  std::size_t out = 0;
  for (const Edge& e : edges_) {
    if (!e.is_self_loop()) edges_[out++] = e.canonical();
  }
  const std::size_t self_loops = edges_.size() - out;
  edges_.resize(out);
  radix_sort(edges_, scratch_, edge_key);
  note_live_bytes((edges_.capacity() + scratch_.capacity()) * sizeof(Edge));
  release(scratch_);
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  return self_loops;
}

Graph GraphBuilder::build(BuildReport* report) {
  if (external()) {
    const std::filesystem::path dir =
        storage_.spill_dir.empty() ? std::filesystem::temp_directory_path()
                                   : storage_.spill_dir;
    const auto path = make_temp_path(dir, "tlp-build", ".tlpc");
    try {
      build_to_file(path, report);
      // We wrote these bytes ourselves a moment ago; skip re-validation.
      StorageOptions reopen = storage_;
      reopen.verify = false;
      return Graph::from_storage(
          open_csr_storage(path, reopen, /*unlink_after_open=*/true));
    } catch (...) {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      throw;
    }
  }

  BuildReport local;
  local.input_edges = offered_;
  local.relabeled = relabel_;

  // Clean in place: no second full edge list, so the peak is the input
  // list plus the final CSR (the sort scratch is gone before from_edges
  // builds it, and from_edges recognizes the sorted input and skips the
  // per-vertex adjacency sort).
  local.self_loops = clean_resident_edges();
  local.kept_edges = edges_.size();
  local.duplicate_edges =
      local.input_edges - local.self_loops - local.kept_edges;

  const VertexId n = relabel_ ? relabel_table_.size() : max_id_plus_one_;
  const std::size_t m = edges_.size();
  // Input list + the CSR arrays from_edges builds while the list is alive.
  local.build_peak_bytes =
      edges_.capacity() * sizeof(Edge) + (n + 1) * sizeof(std::size_t) +
      2 * m * (sizeof(Neighbor) + sizeof(VertexId)) + m * sizeof(Edge);
  local.relabel_peak_bytes = relabel_table_.peak_bytes();
  relabel_table_.clear();
  Graph g = Graph::from_edges(n, std::move(edges_));
  if (storage_.tier != StorageTier::kInMemory) {
    g = io::with_tier(g, storage_);
  }

  reset();

  if (report != nullptr) *report = local;
  return g;
}

void GraphBuilder::build_to_file(const std::filesystem::path& path,
                                 BuildReport* report) {
  BuildReport local;
  local.input_edges = offered_;
  local.relabeled = relabel_;

  if (!external()) {
    // Unbounded: clean the single resident list in place, then stream it
    // through the same writer passes the external regime uses.
    local.self_loops = clean_resident_edges();
  } else {
    local.self_loops = dropped_self_loops_;
    spill_chunk();  // final partial chunk
    release(edges_);
    release(scratch_);
  }
  local.spill_runs = runs_.size();

  // Every id is final: the relabel table has nothing left to answer.
  const VertexId n = relabel_ ? relabel_table_.size() : max_id_plus_one_;
  local.relabel_peak_bytes = relabel_table_.peak_bytes();
  relabel_table_.clear();
  const std::size_t run_buffers =
      runs_.size() * (std::size_t{1} << 14);  // EdgeRunReader staging

  // Pass 1 — count and reverse spill: one merged scan establishes m, which
  // fixes the section layout. The merged stream is the edge section in id
  // order (an edge id is its position in the stream, so it needs no m),
  // and it is the *forward* adjacency stream (grouped by the smaller
  // endpoint, ascending). The *reverse* direction (owner = the larger
  // endpoint) arrives out of order, so it externally sorts through
  // bounded (owner, nb, edge) runs. Each run buffer receives its records
  // with nb ascending (the forward stream's order), so a stable sort on
  // the owner alone leaves it in (owner, nb) order.
  std::uint64_t m = 0;
  std::vector<std::filesystem::path> reverse_runs;
  const std::size_t reverse_capacity =
      external()
          ? std::max(budget_ / (2 * sizeof(ReverseEntry)), kMinChunkEdges)
          : std::numeric_limits<std::size_t>::max();
  std::vector<ReverseEntry> reverse;
  std::vector<ReverseEntry> reverse_scratch;
  // m is not known yet; the records of the runs (or of the resident list,
  // already deduplicated) bound it.
  reverse.reserve(std::min(reverse_capacity,
                           runs_.empty() ? edges_.size() : run_edges_));
  const auto buffer_bytes = [&] {
    return (reverse.capacity() + reverse_scratch.capacity()) *
               sizeof(ReverseEntry) +
           run_buffers + edges_.capacity() * sizeof(Edge);
  };
  const auto owner_key = [](const ReverseEntry& r) {
    return std::uint64_t{r.owner};
  };
  const auto sort_reverse = [&] {
    radix_sort(reverse, reverse_scratch, owner_key);
    note_live_bytes(buffer_bytes());
  };
  const std::filesystem::path run_dir =
      storage_.spill_dir.empty() ? std::filesystem::temp_directory_path()
                                 : storage_.spill_dir;
  const auto spill_reverse = [&] {
    sort_reverse();
    const auto rpath = make_temp_path(run_dir, "tlp-rev", ".tlpr");
    std::ofstream out(rpath, std::ios::binary | std::ios::trunc);
    if (!out) fail_build("cannot open reverse run '" + rpath.string() + "'");
    out.write(kReverseRunMagic.data(), kReverseRunMagic.size());
    const std::uint64_t count = reverse.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    out.write(reinterpret_cast<const char*>(reverse.data()),
              static_cast<std::streamsize>(count * sizeof(ReverseEntry)));
    out.flush();
    if (!out) fail_build("I/O error on reverse run '" + rpath.string() + "'");
    reverse_runs.push_back(rpath);
    reverse.clear();
  };

  try {
    for_each_merged_edge([&](const Edge& e) {
      reverse.push_back(ReverseEntry{e.v, e.u, m});
      ++m;
      if (reverse.size() >= reverse_capacity) spill_reverse();
    });
    note_live_bytes(buffer_bytes());
    if (!reverse_runs.empty() && !reverse.empty()) spill_reverse();
    local.kept_edges = static_cast<std::size_t>(m);
    // Self-loops were counted at add_edge (external) or in the cleaning
    // pass above (unbounded); everything else that went missing was a
    // duplicate: offered == self_loops + duplicates + kept.
    local.duplicate_edges =
        local.input_edges - local.self_loops - local.kept_edges;

    io::CsrFileWriter writer(path, n, static_cast<EdgeId>(m));
    if (!reverse_runs.empty()) {
      release(reverse);
    } else {
      sort_reverse();
    }
    release(reverse_scratch);
    local.spill_runs += reverse_runs.size();
    note_live_bytes(buffer_bytes() + reverse_runs.size() *
                                         kReverseBufferRecords *
                                         sizeof(ReverseEntry));

    // Pass 2 — edge, adjacency and offset sections: a fresh forward merge
    // of the edge runs writes the edge section and, merged against the
    // reverse runs (owner ascending; the forward stream is too, with the
    // same deterministic ids), the adjacency section. For any owner x every
    // reverse neighbor is < x and every forward neighbor is > x, so an
    // (owner, nb) merge interleaves both directions into exactly the CSR
    // adjacency order. The records come owner by owner, so each owner's
    // offset is the record count when its first record, or a later
    // owner's, arrives: no degree array is needed.
    struct ReverseSource {
      std::ifstream in;
      std::uint64_t remaining = 0;
      std::vector<ReverseEntry> buf;
      std::size_t pos = 0;
      ReverseEntry current{};
      std::uint64_t key = kNoKey;  // (owner, nb) of `current`, packed
      std::filesystem::path path;

      /// Advances `current` and `key`; false at the end of the run.
      bool next() {
        if (pos == buf.size()) {
          if (remaining == 0) return false;
          const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
              remaining, kReverseBufferRecords));
          buf.resize(want);
          pos = 0;
          in.read(reinterpret_cast<char*>(buf.data()),
                  static_cast<std::streamsize>(want * sizeof(ReverseEntry)));
          if (!in) {
            fail_build("truncated reverse run '" + path.string() + "'");
          }
          remaining -= want;
        }
        current = buf[pos++];
        const std::uint64_t next_key = pack(current.owner, current.nb);
        if (key != kNoKey && !(key < next_key)) {
          fail_build("reverse run '" + path.string() + "' out of order");
        }
        key = next_key;
        return true;
      }
    };

    std::vector<ReverseSource> rev_sources(reverse_runs.size());
    MergeHeap rev_heap(reverse_runs.size());
    for (std::size_t i = 0; i < reverse_runs.size(); ++i) {
      auto& src = rev_sources[i];
      src.path = reverse_runs[i];
      src.in.open(reverse_runs[i], std::ios::binary);
      std::array<char, 4> magic{};
      src.in.read(magic.data(), magic.size());
      std::uint64_t count = 0;
      src.in.read(reinterpret_cast<char*>(&count), sizeof count);
      if (!src.in || magic != kReverseRunMagic) {
        fail_build("corrupt reverse run '" + reverse_runs[i].string() + "'");
      }
      src.remaining = count;
      if (src.next()) rev_heap.push(src.key, i);
    }
    std::size_t in_ram_pos = 0;  // cursor over the in-RAM reverse vector

    // The next reverse record in (owner, nb) order, as its packed key and
    // edge id; false once every reverse record is out.
    std::uint64_t rev_key = kNoKey;
    EdgeId rev_edge = 0;
    const auto next_reverse = [&]() -> bool {
      if (!reverse_runs.empty()) {
        if (rev_heap.empty()) return false;
        const auto [key, src] = rev_heap.top();
        rev_key = key;
        rev_edge = rev_sources[src].current.edge;
        if (rev_sources[src].next()) {
          rev_heap.replace_top(rev_sources[src].key);
        } else {
          rev_heap.pop();
        }
        return true;
      }
      if (in_ram_pos == reverse.size()) return false;
      const ReverseEntry& r = reverse[in_ram_pos++];
      rev_key = pack(r.owner, r.nb);
      rev_edge = r.edge;
      return true;
    };

    std::uint64_t records = 0;
    VertexId closed = 0;  // offsets[0..closed] are written
    writer.append_offset(0);
    const auto close_offsets_to = [&](VertexId last) {
      while (closed < last) {
        ++closed;
        writer.append_offset(records);
      }
    };
    const auto append_adjacency = [&](VertexId owner, VertexId nb,
                                      EdgeId edge) {
      close_offsets_to(owner);
      writer.append_adjacency(nb, edge);
      ++records;
    };
    const auto append_reverse = [&] {
      append_adjacency(static_cast<VertexId>(rev_key >> 32),
                       static_cast<VertexId>(rev_key), rev_edge);
    };

    bool have_rev = next_reverse();
    std::uint64_t forward_id = 0;
    for_each_merged_edge([&](const Edge& e) {
      writer.append_edge(e);
      // Emit every reverse record before (e.u, e.v) first: those belong to
      // owners <= e.u (reverse nb < owner keeps them ahead of the owner's
      // forward records, which start at nb > owner).
      const std::uint64_t key = edge_key(e);
      while (have_rev && rev_key < key) {
        append_reverse();
        have_rev = next_reverse();
      }
      append_adjacency(e.u, e.v, forward_id);
      ++forward_id;
    });
    while (have_rev) {
      append_reverse();
      have_rev = next_reverse();
    }
    close_offsets_to(n);

    writer.finish();
  } catch (...) {
    for (const auto& rpath : reverse_runs) {
      std::error_code ec;
      std::filesystem::remove(rpath, ec);
    }
    throw;
  }
  for (const auto& rpath : reverse_runs) {
    std::error_code ec;
    std::filesystem::remove(rpath, ec);
  }

  local.build_peak_bytes = peak_bytes_;
  reset();
  if (report != nullptr) *report = local;
}

}  // namespace tlp
