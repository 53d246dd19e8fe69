#include "graph/storage.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "graph/csr_format.hpp"

// File mapping is POSIX-only; elsewhere the mmap tier falls back to
// reading the file into heap memory (correct, but the footprint is then
// resident — footprint() reports it honestly as such).
#if defined(__unix__) || defined(__APPLE__)
#define TLP_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TLP_HAS_MMAP 0
#endif

// madvise tuning is Linux-only by policy (the advice constants and their
// semantics are what we validated there); everywhere else the hint layer
// compiles to no-ops.
#if defined(__linux__)
#define TLP_HAS_MADVISE 1
#else
#define TLP_HAS_MADVISE 0
#endif

namespace tlp {
namespace {

/// Advice kinds the mmap tier uses; mapped to MADV_* on Linux.
enum class Advice { kSequential, kNormal, kDontNeed };

/// Issues madvise over [addr, addr+len) rounded out to page boundaries
/// (Linux, non-empty range; a no-op otherwise).
void advise_range(const void* addr, std::size_t len, Advice advice) {
#if TLP_HAS_MADVISE
  if (addr == nullptr || len == 0) return;
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const auto raw = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t lo = raw & ~(page - 1);
  len += static_cast<std::size_t>(raw - lo);
  int native = MADV_NORMAL;
  switch (advice) {
    case Advice::kSequential:
      native = MADV_SEQUENTIAL;
      break;
    case Advice::kNormal:
      native = MADV_NORMAL;
      break;
    case Advice::kDontNeed:
      native = MADV_DONTNEED;
      break;
  }
  // Failure is acceptable: the hint is advice only.
  (void)::madvise(reinterpret_cast<void*>(lo), len, native);
#else
  (void)addr;
  (void)len;
  (void)advice;
#endif
}

using io::csr::Header;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tlp::storage: " + what);
}

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Read-only view of a whole file: an mmap where available, a heap copy
/// otherwise. Move-only RAII; the mapping outlives any pointers served
/// from it because the owning storage keeps the MappedFile alive.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      heap_ = std::move(other.heap_);
    }
    return *this;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() { release(); }

  static MappedFile open(const std::filesystem::path& path) {
    MappedFile f;
#if TLP_HAS_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) fail("cannot open '" + path.string() + "' for mapping");
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      fail("cannot stat '" + path.string() + "'");
    }
    f.size_ = static_cast<std::size_t>(st.st_size);
    if (f.size_ > 0) {
      // PROT_READ + MAP_SHARED: clean file-backed pages the kernel may
      // reclaim at will — the property the out-of-core tier exists for.
      void* base = ::mmap(nullptr, f.size_, PROT_READ, MAP_SHARED, fd, 0);
      if (base == MAP_FAILED) {
        ::close(fd);
        fail("mmap of '" + path.string() + "' failed");
      }
      f.data_ = static_cast<const unsigned char*>(base);
    }
    ::close(fd);  // the mapping keeps the file alive
#else
    std::ifstream in(path, std::ios::binary);
    if (!in) fail("cannot open '" + path.string() + "' for reading");
    in.seekg(0, std::ios::end);
    f.size_ = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    f.heap_.resize(f.size_);
    in.read(reinterpret_cast<char*>(f.heap_.data()),
            static_cast<std::streamsize>(f.size_));
    if (!in) fail("short read of '" + path.string() + "'");
    f.data_ = f.heap_.data();
#endif
    return f;
  }

  [[nodiscard]] const unsigned char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool file_backed() const { return heap_.empty(); }

 private:
  void release() {
#if TLP_HAS_MMAP
    if (data_ != nullptr && heap_.empty()) {
      ::munmap(const_cast<unsigned char*>(data_), size_);
    }
#endif
    data_ = nullptr;
    size_ = 0;
  }

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<unsigned char> heap_;  // non-mmap fallback only
};

template <typename T>
const T* section_ptr(const MappedFile& file, const io::csr::SectionRef& s) {
  return reinterpret_cast<const T*>(file.data() + s.offset);
}

/// Heap vectors; the default tier.
class InMemoryStorage final : public GraphStorage {
 public:
  InMemoryStorage(VertexId num_vertices, std::vector<std::size_t> offsets,
                  std::vector<Neighbor> adjacency,
                  std::vector<VertexId> adjacency_ids, EdgeList edges)
      : offsets_(std::move(offsets)),
        adjacency_(std::move(adjacency)),
        adjacency_ids_(std::move(adjacency_ids)),
        edges_(std::move(edges)) {
    view_.num_vertices = num_vertices;
    view_.num_edges = static_cast<EdgeId>(edges_.size());
    view_.offsets = offsets_.data();
    view_.adj = adjacency_.data();
    view_.ids = adjacency_ids_.data();
    view_.edges = edges_.data();
  }

  [[nodiscard]] StorageTier tier() const override {
    return StorageTier::kInMemory;
  }
  [[nodiscard]] const StorageView& view() const override { return view_; }
  [[nodiscard]] MemoryFootprint footprint() const override {
    MemoryFootprint fp;
    fp.resident_bytes = vector_bytes(offsets_) + vector_bytes(adjacency_) +
                        vector_bytes(adjacency_ids_) + vector_bytes(edges_);
    return fp;
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<Neighbor> adjacency_;
  std::vector<VertexId> adjacency_ids_;
  EdgeList edges_;
  StorageView view_;
};

/// Everything served from the mapped file; zero resident CSR bytes. The
/// section table is 64-byte aligned on a page-aligned base, so the typed
/// section pointers are alignment-correct.
class MmapStorage final : public GraphStorage {
 public:
  MmapStorage(MappedFile file, const Header& h) : file_(std::move(file)) {
    view_.num_vertices = static_cast<VertexId>(h.num_vertices);
    view_.num_edges = h.num_edges;
    view_.offsets = section_ptr<std::size_t>(file_, h.offsets);
    view_.adj = section_ptr<Neighbor>(file_, h.adjacency);
    view_.ids = section_ptr<VertexId>(file_, h.adjacency_ids);
    view_.edges = section_ptr<Edge>(file_, h.edges);
  }

  [[nodiscard]] StorageTier tier() const override { return StorageTier::kMmap; }
  [[nodiscard]] const StorageView& view() const override { return view_; }
  [[nodiscard]] MemoryFootprint footprint() const override {
    MemoryFootprint fp;
    (file_.file_backed() ? fp.mapped_bytes : fp.resident_bytes) = file_.size();
    return fp;
  }

  void release_cold_pages() const override {
    if (!file_.file_backed()) return;
    const std::size_t entries = view_.offsets[view_.num_vertices];
    advise_range(view_.adj, entries * sizeof(Neighbor), Advice::kDontNeed);
    advise_range(view_.ids, entries * sizeof(VertexId), Advice::kDontNeed);
  }

 private:
  MappedFile file_;
  StorageView view_;
};

}  // namespace

std::string_view storage_tier_name(StorageTier tier) {
  switch (tier) {
    case StorageTier::kInMemory:
      return "in_memory";
    case StorageTier::kMmap:
      return "mmap";
  }
  return "unknown";
}

StorageOptions StorageOptions::parse(std::string_view spec) {
  StorageOptions o;
  if (spec == "in_memory") {
    o.tier = StorageTier::kInMemory;
  } else if (spec == "mmap") {
    o.tier = StorageTier::kMmap;
  } else {
    throw std::invalid_argument("tlp: bad storage spec '" + std::string(spec) +
                                "': expected in_memory | mmap");
  }
  return o;
}

std::shared_ptr<const GraphStorage> make_in_memory_storage(
    VertexId num_vertices, std::vector<std::size_t> offsets,
    std::vector<Neighbor> adjacency, std::vector<VertexId> adjacency_ids,
    EdgeList edges) {
  return std::make_shared<InMemoryStorage>(
      num_vertices, std::move(offsets), std::move(adjacency),
      std::move(adjacency_ids), std::move(edges));
}

std::shared_ptr<const GraphStorage> open_csr_storage(
    const std::filesystem::path& path, const StorageOptions& options,
    bool unlink_after_open) {
  std::shared_ptr<const GraphStorage> storage;
  if (options.tier == StorageTier::kInMemory) {
    // Stream the sections into heap vectors — deliberately no mapping, so
    // an in-memory control run under a memory cap charges every CSR byte
    // against the cap (the out-of-core smoke relies on this asymmetry).
    std::ifstream in(path, std::ios::binary);
    if (!in) fail("cannot open '" + path.string() + "' for reading");
    in.seekg(0, std::ios::end);
    const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
    unsigned char raw[io::csr::kHeaderBytes] = {};
    in.seekg(0);
    in.read(reinterpret_cast<char*>(raw),
            static_cast<std::streamsize>(
                std::min<std::uint64_t>(file_bytes, sizeof raw)));
    if (!in) fail("cannot read header of '" + path.string() + "'");
    const Header h = io::csr::decode_and_validate_header(raw, file_bytes);

    const auto read_section = [&in, &path](const io::csr::SectionRef& s,
                                           void* dst) {
      in.seekg(static_cast<std::streamoff>(s.offset));
      in.read(static_cast<char*>(dst), static_cast<std::streamsize>(s.bytes));
      if (!in) fail("short read in '" + path.string() + "'");
    };
    const auto n = static_cast<std::size_t>(h.num_vertices);
    const auto m = static_cast<std::size_t>(h.num_edges);
    std::vector<std::size_t> offsets(n + 1);
    std::vector<Neighbor> adjacency(2 * m);
    std::vector<VertexId> adjacency_ids(2 * m);
    EdgeList edges(m);
    read_section(h.offsets, offsets.data());
    read_section(h.adjacency, adjacency.data());
    read_section(h.adjacency_ids, adjacency_ids.data());
    read_section(h.edges, edges.data());
    if (options.verify) {
      io::csr::validate_csr_payload(h.num_vertices, h.num_edges,
                                    offsets.data(), adjacency.data(),
                                    adjacency_ids.data(), edges.data());
    }
    storage = make_in_memory_storage(static_cast<VertexId>(h.num_vertices),
                                     std::move(offsets), std::move(adjacency),
                                     std::move(adjacency_ids),
                                     std::move(edges));
  } else {
    MappedFile file = MappedFile::open(path);
    const Header h =
        io::csr::decode_and_validate_header(file.data(), file.size());
    if (options.verify) {
      // The validation pass walks every section front to back once:
      // exactly the access pattern MADV_SEQUENTIAL accelerates (aggressive
      // readahead, early reclaim behind the scan). Partitioning access is
      // anything but sequential, so drop back to NORMAL afterwards. Only a
      // real mapping takes advice — never the heap fallback copy.
      if (file.file_backed()) {
        advise_range(file.data(), file.size(), Advice::kSequential);
      }
      io::csr::validate_csr_payload(
          h.num_vertices, h.num_edges, section_ptr<std::uint64_t>(file, h.offsets),
          section_ptr<Neighbor>(file, h.adjacency),
          section_ptr<VertexId>(file, h.adjacency_ids),
          section_ptr<Edge>(file, h.edges));
      if (file.file_backed()) {
        advise_range(file.data(), file.size(), Advice::kNormal);
      }
    }
    storage = std::make_shared<MmapStorage>(std::move(file), h);
  }
  if (unlink_after_open) {
    // POSIX keeps the mapped data reachable until the last mapping goes
    // away; removing the directory entry makes spill files self-cleaning.
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return storage;
}

}  // namespace tlp
