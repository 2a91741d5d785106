#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json.h"

namespace vmtherm::obs {

namespace {

const char* kind_name(MetricKind kind) {
  return kind == MetricKind::kDeterministic ? "deterministic" : "timing";
}

void append_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; quote them (only user-supplied bounds can be
    // non-finite, and Histogram rejects those — this is belt and braces).
    os << "\"" << v << "\"";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

// Metric names are caller-chosen strings; quotes and control characters
// must not corrupt the JSON document.
void append_json_name(std::ostream& os, const std::string& name) {
  os << "\"";
  util::write_json_escaped(os, name);
  os << "\"";
}

}  // namespace

void Gauge::update_max(std::int64_t v) noexcept {
  std::int64_t current = value_.load(std::memory_order_relaxed);
  while (v > current &&
         !value_.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1) {
  detail::require(!bounds_.empty(), "histogram needs at least one bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    detail::require(std::isfinite(bounds_[i]),
                    "histogram bounds must be finite");
    detail::require(i == 0 || bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly ascending");
  }
}

std::size_t Histogram::bucket_of(double value) const noexcept {
  // NaN compares false against every bound, so lower_bound would place it
  // in bucket 0; it belongs with the out-of-range values instead.
  if (std::isnan(value)) return bounds_.size();
  // Inclusive upper bounds (Prometheus `le` convention): value lands in the
  // first bucket whose bound is >= value.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::record(double value) noexcept {
  counts_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::add_counts(const std::uint64_t* counts) noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts[i] != 0) {
      counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
  }
}

std::uint64_t Histogram::count_in_bucket(std::size_t i) const {
  detail::require(i < counts_.size(), "histogram bucket index out of range");
  return counts_[i].load(std::memory_order_relaxed);
}

std::uint64_t Histogram::total_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

double Histogram::quantile(double q) const {
  detail::require(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1]");
  const std::uint64_t total = total_count();
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t in_bucket = counts_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    const auto before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double fraction =
        std::clamp((target - before) / static_cast<double>(in_bucket), 0.0, 1.0);
    return lower + fraction * (bounds_[i] - lower);
  }
  return bounds_.back();
}

void Histogram::set_counts(const std::vector<std::uint64_t>& counts) {
  detail::require(counts.size() == counts_.size(),
                  "histogram restore: bucket count mismatch");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts_[i].store(counts[i], std::memory_order_relaxed);
  }
}

Counter& MetricsRegistry::counter(const std::string& name, MetricKind kind) {
  detail::require(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    detail::require(it->second.kind == kind,
                    "counter re-registered with a different kind: " + name);
    return it->second.counter;
  }
  return counters_.try_emplace(name, kind).first->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, MetricKind kind) {
  detail::require(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    detail::require(it->second.kind == kind,
                    "gauge re-registered with a different kind: " + name);
    return it->second.gauge;
  }
  return gauges_.try_emplace(name, kind).first->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      MetricKind kind) {
  detail::require(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    detail::require(it->second.kind == kind,
                    "histogram re-registered with a different kind: " + name);
    detail::require(it->second.histogram.upper_bounds() == upper_bounds,
                    "histogram re-registered with different bounds: " + name);
    return it->second.histogram;
  }
  return histograms_
      .try_emplace(name, kind, std::move(upper_bounds))
      .first->second.histogram;
}

Table MetricsRegistry::to_table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Table table({"metric", "type", "kind", "value"});
  for (const auto& [name, entry] : counters_) {
    table.add_row({name, "counter", kind_name(entry.kind),
                   Table::num(static_cast<long long>(entry.counter.value()))});
  }
  for (const auto& [name, entry] : gauges_) {
    table.add_row({name, "gauge", kind_name(entry.kind),
                   Table::num(static_cast<long long>(entry.gauge.value()))});
  }
  for (const auto& [name, entry] : histograms_) {
    const auto& h = entry.histogram;
    const std::string summary =
        "n=" + std::to_string(h.total_count()) +
        " p50=" + Table::num(h.quantile(0.5), 2) +
        " p99=" + Table::num(h.quantile(0.99), 2);
    table.add_row({name, "histogram", kind_name(entry.kind), summary});
  }
  return table;
}

std::string MetricsRegistry::to_json(bool include_timing) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto included = [include_timing](MetricKind kind) {
    return include_timing || kind == MetricKind::kDeterministic;
  };

  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, entry] : counters_) {
    if (!included(entry.kind)) continue;
    if (!first) os << ",";
    first = false;
    append_json_name(os, name);
    os << ":" << entry.counter.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, entry] : gauges_) {
    if (!included(entry.kind)) continue;
    if (!first) os << ",";
    first = false;
    append_json_name(os, name);
    os << ":" << entry.gauge.value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, entry] : histograms_) {
    if (!included(entry.kind)) continue;
    if (!first) os << ",";
    first = false;
    const auto& h = entry.histogram;
    append_json_name(os, name);
    os << ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
      if (i > 0) os << ",";
      append_json_number(os, h.upper_bounds()[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (i > 0) os << ",";
      os << h.count_in_bucket(i);
    }
    os << "],\"total\":" << h.total_count() << ",\"p50\":";
    append_json_number(os, h.quantile(0.5));
    os << ",\"p99\":";
    append_json_number(os, h.quantile(0.99));
    os << "}";
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const std::string&, MetricKind, const Counter&)>&
        fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : counters_) {
    fn(name, entry.kind, entry.counter);
  }
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const std::string&, MetricKind, const Histogram&)>&
        fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, entry] : histograms_) {
    fn(name, entry.kind, entry.histogram);
  }
}

}  // namespace vmtherm::obs
