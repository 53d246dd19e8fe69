// Shared per-run execution context for every partitioner: a scratch arena
// that recycles per-run O(n)/O(m) buffers across invocations, a structured
// telemetry sink (named counters, phase timers, per-round series), and a
// cooperative cancellation/deadline token checked at round boundaries.
//
// One RunContext may be reused across many partition() calls (that is the
// point: repeated-run benches stop paying the allocation cost after run 1),
// but a context must not be shared by concurrent runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeindex>
#include <utility>
#include <vector>

namespace tlp {

/// Pools typed vectors so repeated runs reuse capacity instead of
/// reallocating. acquire() always returns a buffer of exactly `n` elements
/// set to `fill` (reuse never changes observable contents, so results stay
/// deterministic). Leases are RAII: the buffer returns to the pool when the
/// lease dies. Leases must not outlive the arena.
class ScratchArena {
  struct PoolBase {
    virtual ~PoolBase() = default;
  };
  template <class T>
  struct Pool : PoolBase {
    std::vector<std::vector<T>> free;
  };

 public:
  template <class T>
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : arena_(other.arena_), buf_(std::move(other.buf_)) {
      other.arena_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        arena_ = other.arena_;
        buf_ = std::move(other.buf_);
        other.arena_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] std::vector<T>& get() { return buf_; }
    [[nodiscard]] const std::vector<T>& get() const { return buf_; }
    std::vector<T>* operator->() { return &buf_; }
    const std::vector<T>* operator->() const { return &buf_; }
    std::vector<T>& operator*() { return buf_; }
    const std::vector<T>& operator*() const { return buf_; }
    T& operator[](std::size_t i) { return buf_[i]; }
    const T& operator[](std::size_t i) const { return buf_[i]; }

   private:
    friend class ScratchArena;
    Lease(ScratchArena* arena, std::vector<T>&& buf)
        : arena_(arena), buf_(std::move(buf)) {}
    void release() {
      if (arena_ != nullptr) {
        arena_->put_back(std::move(buf_));
        arena_ = nullptr;
      }
    }
    ScratchArena* arena_ = nullptr;
    std::vector<T> buf_;
  };

  /// Returns an `n`-element buffer filled with `fill`. A hit means a pooled
  /// buffer with enough capacity was reused; a miss means a fresh allocation
  /// (or a pooled buffer that had to grow).
  template <class T>
  [[nodiscard]] Lease<T> acquire(std::size_t n, const T& fill = T{}) {
    auto& pool = pool_for<T>();
    std::vector<T> buf;
    bool pooled = false;
    if (!pool.free.empty()) {
      buf = std::move(pool.free.back());
      pool.free.pop_back();
      pooled = true;
    }
    const std::size_t old_bytes = buf.capacity() * sizeof(T);
    ((pooled && buf.capacity() >= n) ? hits_ : misses_) += 1;
    buf.assign(n, fill);
    const std::size_t new_bytes = buf.capacity() * sizeof(T);
    if (new_bytes > old_bytes) {
      total_bytes_ += new_bytes - old_bytes;
      if (total_bytes_ > peak_bytes_) peak_bytes_ = total_bytes_;
    }
    return Lease<T>(this, std::move(buf));
  }

  /// Pooled reuses where capacity was already sufficient.
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  /// Fresh allocations or capacity growth events.
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Bytes currently held across pooled + leased buffers (element storage
  /// only; nested allocations inside elements are not counted).
  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }
  /// High-water mark of total_bytes() — the peak-memory account.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  template <class T>
  Pool<T>& pool_for() {
    auto& slot = pools_[std::type_index(typeid(T))];
    if (slot == nullptr) slot = std::make_unique<Pool<T>>();
    return static_cast<Pool<T>&>(*slot);
  }
  template <class T>
  void put_back(std::vector<T>&& buf) {
    pool_for<T>().free.push_back(std::move(buf));
  }

  std::map<std::type_index, std::unique_ptr<PoolBase>> pools_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t total_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
};

/// Structured telemetry sink: monotonic counters, accumulated phase timers,
/// and named series (one value appended per round/sample). Keys follow the
/// schema documented in docs/API.md. Values accumulate across runs sharing
/// the context; clear() resets everything.
class Telemetry {
 public:
  /// Sentinel `seconds` value passed to the phase hook on scope entry.
  static constexpr double kPhaseEnter = -1.0;

  /// counters["name"] += v (creates at v).
  void add(std::string_view name, double v = 1.0);
  /// counters["name"] = v unconditionally.
  void set(std::string_view name, double v);
  /// counters["name"] = max(current, v) — for gauges like peak_frontier.
  void set_max(std::string_view name, double v);
  /// Counter value, or 0.0 if never written.
  [[nodiscard]] double counter(std::string_view name) const;

  /// timers["name"] += seconds.
  void add_seconds(std::string_view name, double seconds);
  /// Timer value in seconds, or 0.0 if never written.
  [[nodiscard]] double timer_seconds(std::string_view name) const;

  /// RAII phase timer: adds the elapsed wall time on destruction.
  class ScopedTimer {
   public:
    ScopedTimer(Telemetry& sink, std::string name)
        : sink_(&sink),
          name_(std::move(name)),
          start_(std::chrono::steady_clock::now()) {
      if (sink_->phase_hook_) sink_->phase_hook_(name_, kPhaseEnter);
    }
    ScopedTimer(ScopedTimer&& other) noexcept
        : sink_(other.sink_), name_(std::move(other.name_)), start_(other.start_) {
      other.sink_ = nullptr;
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ScopedTimer& operator=(ScopedTimer&&) = delete;
    ~ScopedTimer() { stop(); }
    /// Flushes early; the destructor then does nothing.
    void stop();

   private:
    Telemetry* sink_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };
  [[nodiscard]] ScopedTimer time(std::string name) {
    return ScopedTimer(*this, std::move(name));
  }

  /// series["name"].push_back(v).
  void append(std::string_view name, double v);
  /// The named series, or nullptr if never written.
  [[nodiscard]] const std::vector<double>* series(std::string_view name) const;

  /// Folds another sink into this one: counters and timers are ADDED,
  /// series are APPENDED in other's order. Gauge-style keys written with
  /// set_max() do not survive addition — producers that fan out per-worker
  /// keep gauges in plain locals and set_max() once on the parent (see
  /// core/multi_tlp.cpp). Callers merging several workers must do so in a
  /// fixed order (worker 0, 1, ...) so series stay deterministic.
  void merge_from(const Telemetry& other);

  /// Opt-in phase-boundary callback, fired by every ScopedTimer from
  /// time(): once on scope entry (seconds < 0) and once on exit (seconds =
  /// elapsed wall time). Lets profilers cut per phase (perf markers,
  /// flamegraph annotations) without polling the timer maps. The hook runs
  /// on the thread that owns the scope; pass nullptr to disable.
  using PhaseHook = std::function<void(std::string_view phase, double seconds)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  [[nodiscard]] const std::map<std::string, double, std::less<>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double, std::less<>>& timers()
      const {
    return timers_;
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>, std::less<>>&
  all_series() const {
    return series_;
  }

  /// One JSON object: {"counters":{...},"timers":{...},"series":{...}}.
  /// Integer-valued counters print without a decimal point.
  [[nodiscard]] std::string to_json() const;

  void clear();

 private:
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> timers_;
  std::map<std::string, std::vector<double>, std::less<>> series_;
  PhaseHook phase_hook_;
};

/// Thrown by RunContext::check_cancelled() when a stop was requested or the
/// deadline passed. Partial results are discarded by the thrower.
class RunCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cooperative stop flag + optional wall-clock deadline. request_stop() may
/// be called from another thread; partitioners poll at round boundaries.
class CancelToken {
 public:
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }
  void set_timeout(std::chrono::nanoseconds budget) {
    deadline_ = std::chrono::steady_clock::now() + budget;
  }
  /// Clears both the stop flag and any deadline.
  void reset() {
    stop_.store(false, std::memory_order_relaxed);
    deadline_.reset();
  }
  [[nodiscard]] bool cancelled() const {
    if (stop_.load(std::memory_order_relaxed)) return true;
    return deadline_.has_value() &&
           std::chrono::steady_clock::now() >= *deadline_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

/// The per-run execution context threaded through every Partitioner.
/// Reusing one context across runs shares the arena (allocation reuse) and
/// accumulates telemetry; see Telemetry::clear() to start a fresh window.
class RunContext {
 public:
  [[nodiscard]] ScratchArena& arena() { return arena_; }
  [[nodiscard]] Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const { return telemetry_; }
  [[nodiscard]] CancelToken& cancel() { return cancel_; }
  [[nodiscard]] const CancelToken& cancel() const { return cancel_; }

  /// Throws RunCancelled if a stop was requested or the deadline passed.
  void check_cancelled() const;

  /// Called by Partitioner::partition() on entry, paired with end_run() on
  /// exit. Only the outermost call counts as a run: it bumps the "runs"
  /// counter and records the algorithm name. A composite partitioner that
  /// runs its bases on the same context nests inside that one run.
  void begin_run(std::string_view algorithm);
  void end_run() { --depth_; }

  /// True iff exactly one partition() call is in flight on this context
  /// (the outermost one owns the run's "total_s" and cold-page release).
  [[nodiscard]] bool outermost_run() const { return depth_ == 1; }

  /// Number of outermost partition() calls that entered this context.
  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  /// Name of the most recent outermost algorithm run (empty before the
  /// first run).
  [[nodiscard]] const std::string& last_algorithm() const {
    return last_algorithm_;
  }

  /// Worker-private child context #index, created lazily and CACHED for the
  /// parent's lifetime — worker `i` of every run reuses child(i)'s arena, so
  /// repeated parallel runs get the same warm-arena behaviour as the parent
  /// (multi-threaded growth leases per-worker scratch from here; a shared
  /// ScratchArena is not thread-safe). Child telemetry is scratch space:
  /// producers clear it at run start and merge_from() it into the parent at
  /// a barrier. Children share nothing with the parent automatically —
  /// cancellation stays on the parent's token.
  [[nodiscard]] RunContext& child(std::size_t index);

  /// Number of child contexts created so far.
  [[nodiscard]] std::size_t num_children() const { return children_.size(); }

 private:
  ScratchArena arena_;
  Telemetry telemetry_;
  CancelToken cancel_;
  std::uint64_t runs_ = 0;
  std::uint32_t depth_ = 0;  // partition() calls currently on the stack
  std::string last_algorithm_;
  std::vector<std::unique_ptr<RunContext>> children_;
};

}  // namespace tlp
