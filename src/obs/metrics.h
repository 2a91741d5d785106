// vmtherm/obs/metrics.h
//
// A lightweight metrics registry: named counters, gauges and fixed-bucket
// histograms, updatable concurrently (relaxed atomics — metrics never
// synchronize anything), queryable as an ASCII table and as JSON. It lives
// in src/obs so the fleet engine and the tracer both publish into the
// same registry without a serve-dependency cycle.
//
// Every metric is registered as either *deterministic* (its value is a
// pure function of the logical event stream: event counts, calibration
// error distribution) or *timing* (wall-clock dependent: latency
// histograms, queue high-water marks). `to_json(/*include_timing=*/false)`
// emits only the deterministic subset, which the replay determinism tests
// compare byte-for-byte across shard/thread counts.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/table.h"

namespace vmtherm::obs {

/// Whether a metric's value depends only on the logical event stream
/// (kDeterministic) or also on wall-clock scheduling (kTiming).
enum class MetricKind { kDeterministic, kTiming };

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Overwrites the count (snapshot restore only).
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }

 private:
  /// sync: relaxed — counters never order other memory.
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed value (fleet size, queue depth, high-water marks).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if it is currently lower (high-water marks).
  void update_max(std::int64_t v) noexcept;
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  /// sync: relaxed loads/stores; update_max uses a CAS loop, still relaxed.
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram. Buckets are defined by ascending *inclusive*
/// upper bounds (Prometheus `le` convention: a value lands in the first
/// bucket whose bound is >= value); an implicit overflow bucket catches
/// everything above the last bound
/// (bucket_count() == upper_bounds().size() + 1). Not movable — lives in
/// the registry's node-stable map.
class Histogram {
 public:
  /// Throws ConfigError unless bounds are non-empty, finite and strictly
  /// ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double value) noexcept;

  /// The bucket record(value) counts into: the first bucket whose bound is
  /// >= value, else the overflow bucket (also for NaN).
  std::size_t bucket_of(double value) const noexcept;

  /// Adds counts[i] to bucket i for every i < bucket_count(): publishes a
  /// tally kept outside the histogram in one pass.
  void add_counts(const std::uint64_t* counts) noexcept;

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t count_in_bucket(std::size_t i) const;
  std::uint64_t total_count() const noexcept;

  /// Quantile estimate (linear interpolation inside the bucket; the
  /// overflow bucket reports the last finite bound). q in [0, 1]; returns
  /// 0 on an empty histogram.
  double quantile(double q) const;

  /// Overwrites all bucket counts (snapshot restore only). Throws
  /// ConfigError on size mismatch.
  void set_counts(const std::vector<std::uint64_t>& counts);

 private:
  std::vector<double> bounds_;
  /// sync: relaxed per-bucket increments; totals are eventually consistent.
  std::vector<std::atomic<std::uint64_t>> counts_;
};

/// Named metric registry. Registration (the named accessors) is
/// mutex-protected and idempotent — repeat lookups return the same object;
/// re-registering a name with a different kind (or different histogram
/// bounds) throws ConfigError. Returned references stay valid for the
/// registry's lifetime. Updates through the returned objects are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name,
                   MetricKind kind = MetricKind::kDeterministic);
  Gauge& gauge(const std::string& name,
               MetricKind kind = MetricKind::kDeterministic);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds,
                       MetricKind kind = MetricKind::kDeterministic);

  /// One row per metric, sorted by name ("metric | kind | value" with
  /// histograms summarized as count/p50/p99).
  Table to_table() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// with names sorted and JSON-escaped, doubles printed with 17
  /// significant digits. include_timing=false omits kTiming metrics
  /// (deterministic subset).
  std::string to_json(bool include_timing = true) const;

  /// Visits every metric of one family in name order (snapshot support).
  void for_each_counter(
      const std::function<void(const std::string&, MetricKind,
                               const Counter&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, MetricKind,
                               const Histogram&)>& fn) const;

 private:
  struct CounterEntry {
    MetricKind kind;
    Counter counter;
    explicit CounterEntry(MetricKind k) : kind(k) {}
  };
  struct GaugeEntry {
    MetricKind kind;
    Gauge gauge;
    explicit GaugeEntry(MetricKind k) : kind(k) {}
  };
  struct HistogramEntry {
    MetricKind kind;
    Histogram histogram;
    HistogramEntry(MetricKind k, std::vector<double> bounds)
        : kind(k), histogram(std::move(bounds)) {}
  };

  /// guards: counters_/gauges_/histograms_ (registration and iteration;
  /// metric updates go through node-stable pointers without this lock).
  mutable std::mutex mutex_;
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, GaugeEntry> gauges_;
  std::map<std::string, HistogramEntry> histograms_;
};

}  // namespace vmtherm::obs
