// vmtherm/obs/trace.h
//
// Low-overhead span tracing for the serve and ml hot paths.
//
// Design:
//  * `TraceRecorder` owns one bounded buffer per recording thread. A thread
//    registers lazily on its first span (mutex-protected, once per
//    thread×recorder); after that, recording a span is lock-free: the
//    owning thread writes the next slot and release-publishes the new
//    count. Published slots are immutable until `clear()`, so concurrent
//    readers (export, summaries) acquire-load the count and read only
//    published slots — no torn or lost events, clean under TSan.
//  * Buffers are *bounded, drop-newest*: when a thread's buffer fills, new
//    spans are counted in `dropped()` instead of overwriting history. This
//    keeps slots immutable (a wrap-around ring would mutate published
//    slots) and keeps the worst-case memory exact.
//  * Zero cost when off: spans check one relaxed atomic flag at
//    construction and destruction (the `TraceSmoke` ctest holds one
//    disabled span under 1% of the per-event serving cost), and the
//    `VMTHERM_TRACE=0` compile-time kill-switch makes the macros expand
//    to nothing at all.
//  * Span names/categories/arg names must be string literals (or otherwise
//    outlive the recorder): events store `const char*`, never copies —
//    this file is in the lint hot-path scope (no string construction).
//
// Timestamps are steady-clock nanoseconds relative to the recorder's
// construction. Trace data is wall-clock dependent and therefore
// timing-class throughout: summaries publish as MetricKind::kTiming and
// never appear in the deterministic metrics subset (DESIGN.md §10).

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace vmtherm::obs {

/// One completed span. Name/category/arg_name point at caller-owned
/// storage (string literals in practice); arg_name is nullptr when the
/// span carries no argument.
struct TraceEvent {
  const char* name;
  const char* category;
  const char* arg_name;
  double arg_value;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// Bounded single-producer event buffer owned by one recording thread.
/// The owner appends; any thread may read the published prefix.
class ThreadBuffer {
 public:
  explicit ThreadBuffer(std::size_t capacity) : slots_(capacity) {}

  ThreadBuffer(const ThreadBuffer&) = delete;
  ThreadBuffer& operator=(const ThreadBuffer&) = delete;

  /// Owner thread only. Returns false (and records nothing) when full.
  bool try_record(const TraceEvent& event) noexcept {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n == slots_.size()) return false;
    slots_[n] = event;
    count_.store(n + 1, std::memory_order_release);
    return true;
  }

  /// Number of published events; slots [0, published()) are immutable
  /// and safe to read from any thread.
  std::size_t published() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  /// Precondition: i < published().
  const TraceEvent& event(std::size_t i) const noexcept { return slots_[i]; }

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Owner-or-quiesced only (see TraceRecorder::clear()).
  void reset() noexcept { count_.store(0, std::memory_order_release); }

 private:
  std::vector<TraceEvent> slots_;
  /// sync: release-stored by the owning thread after writing slot
  /// [count]; acquire-loaded by readers, making slots [0, count)
  /// immutable published data. reset() only runs quiesced.
  std::atomic<std::size_t> count_{0};
};

/// Collects spans from any number of threads. One instance usually serves
/// a whole process (`global_trace()`), but tests create their own.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacityPerThread = std::size_t{1} << 16;

  explicit TraceRecorder(
      std::size_t capacity_per_thread = kDefaultCapacityPerThread);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Runtime gate. Spans constructed while disabled record nothing. For
  /// the global recorder this also flips the process-wide fast gate the
  /// VMTHERM_SPAN macros check before touching the recorder at all.
  void set_enabled(bool on) noexcept;
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since recorder construction (steady clock).
  std::uint64_t now_ns() const noexcept {
    const auto now = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
            .count());
  }

  /// Records one completed event from the calling thread (Span's
  /// destructor calls this). Lock-free after the thread's first call.
  void record(const TraceEvent& event) noexcept;

  /// Events that did not fit in their thread's buffer.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Readers (export/summaries): buffers in registration order. The
  /// returned reference stays valid for the recorder's lifetime; read
  /// each buffer's published() prefix.
  std::size_t thread_buffer_count() const;
  const ThreadBuffer& thread_buffer(std::size_t i) const;

  /// Total published events across all thread buffers.
  std::size_t event_count() const;

  /// Discards all recorded events and the dropped counter. Caller must
  /// guarantee no concurrent recording or reading (disable first, join or
  /// quiesce recording threads).
  void clear();

  std::size_t capacity_per_thread() const noexcept { return capacity_; }

  /// Unique per-recorder id (monotonic across the process); used by the
  /// thread-local fast path to detect recorder reuse at the same address.
  std::uint64_t id() const noexcept { return id_; }

 private:
  ThreadBuffer* register_this_thread();

  const std::uint64_t id_;
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  /// sync: relaxed on/off flag; gates recording only, orders nothing.
  std::atomic<bool> enabled_{false};
  /// sync: relaxed count of events dropped by full buffers.
  std::atomic<std::uint64_t> dropped_{0};
  /// guards: buffers_/by_thread_ (registration and reader iteration;
  /// recording goes through the per-thread buffer without this lock).
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::unordered_map<std::thread::id, ThreadBuffer*> by_thread_;
};

/// The process-wide recorder used by the VMTHERM_SPAN macros. Disabled
/// until someone (the `vmtherm trace` command, perfbench's traced runs,
/// tests) calls set_enabled(true).
TraceRecorder& global_trace();

namespace detail {
/// Fast gate mirroring global_trace().enabled(): constant-initialized, so
/// the macro-path Span constructor can bail with one inline relaxed load
/// — no cross-TU call, no static-local init guard — while tracing is off
/// (the overwhelmingly common state; the `TraceSmoke` ctest asserts this
/// path costs < 1% of the serving budget).
/// sync: relaxed on/off flag, written only by
/// TraceRecorder::set_enabled on the global recorder; orders nothing.
extern std::atomic<bool> g_global_trace_enabled;
}  // namespace detail

/// RAII span: captures the start time at construction and records one
/// TraceEvent at destruction. When the recorder is disabled at
/// construction, both ends cost one relaxed atomic load.
class Span {
 public:
  Span(const char* name, const char* category,
       const char* arg_name = nullptr, double arg_value = 0.0) noexcept
      : recorder_(nullptr) {
    if (!detail::g_global_trace_enabled.load(std::memory_order_relaxed)) {
      return;
    }
    attach(global_trace(), name, category, arg_name, arg_value);
  }

  Span(TraceRecorder& recorder, const char* name, const char* category,
       const char* arg_name = nullptr, double arg_value = 0.0) noexcept
      : recorder_(nullptr) {
    attach(recorder, name, category, arg_name, arg_value);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (recorder_ == nullptr || !recorder_->enabled()) return;
    event_.dur_ns = recorder_->now_ns() - event_.start_ns;
    recorder_->record(event_);
  }

  /// Attaches (or replaces) the span's argument after construction.
  void set_arg(const char* arg_name, double arg_value) noexcept {
    if (recorder_ == nullptr) return;
    event_.arg_name = arg_name;
    event_.arg_value = arg_value;
  }

 private:
  void attach(TraceRecorder& recorder, const char* name,
              const char* category, const char* arg_name,
              double arg_value) noexcept {
    if (!recorder.enabled()) return;
    recorder_ = &recorder;
    event_.name = name;
    event_.category = category;
    event_.arg_name = arg_name;
    event_.arg_value = arg_value;
    event_.start_ns = recorder.now_ns();
  }

  TraceRecorder* recorder_;
  /// Deliberately not default-initialized: zero-filling 48 bytes per span
  /// would dominate the disabled path. attach() writes every field before
  /// recorder_ becomes non-null, and nothing reads it while null.
  TraceEvent event_;
};

}  // namespace vmtherm::obs

// Compile-time kill-switch: -DVMTHERM_TRACE=0 removes every span from the
// build entirely. Default is compiled-in (runtime-gated, off by default).
#ifndef VMTHERM_TRACE
#define VMTHERM_TRACE 1
#endif

#define VMTHERM_OBS_CONCAT_IMPL(a, b) a##b
#define VMTHERM_OBS_CONCAT(a, b) VMTHERM_OBS_CONCAT_IMPL(a, b)

#if VMTHERM_TRACE
/// Opens a span covering the rest of the enclosing scope. `name` and
/// `category` must be string literals.
#define VMTHERM_SPAN(name, category)                              \
  ::vmtherm::obs::Span VMTHERM_OBS_CONCAT(vmtherm_obs_span_,      \
                                          __LINE__)((name), (category))
/// Like VMTHERM_SPAN with one numeric argument (e.g. a batch size).
#define VMTHERM_SPAN_ARG(name, category, arg_name, arg_value)     \
  ::vmtherm::obs::Span VMTHERM_OBS_CONCAT(vmtherm_obs_span_,      \
                                          __LINE__)(              \
      (name), (category), (arg_name), static_cast<double>(arg_value))
#else
#define VMTHERM_SPAN(name, category) ((void)0)
#define VMTHERM_SPAN_ARG(name, category, arg_name, arg_value) ((void)0)
#endif
