// Tests for obs/metrics, the registry the serving engine publishes into:
// counters, gauges, histograms and the registry itself.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace vmtherm::obs {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.set(7);
  EXPECT_EQ(counter.value(), 7u);
}

TEST(MetricsTest, GaugeSetAddAndMax) {
  Gauge gauge;
  gauge.set(5);
  gauge.add(-8);
  EXPECT_EQ(gauge.value(), -3);
  gauge.update_max(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.update_max(4);  // lower: no change
  EXPECT_EQ(gauge.value(), 10);
}

TEST(MetricsTest, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), ConfigError);
  EXPECT_THROW(Histogram({1.0, 1.0}), ConfigError);
  EXPECT_THROW(Histogram({2.0, 1.0}), ConfigError);
}

TEST(MetricsTest, HistogramBucketsAndOverflow) {
  Histogram hist({1.0, 2.0, 4.0});
  EXPECT_EQ(hist.bucket_count(), 4u);  // 3 finite + overflow
  hist.record(0.5);   // bucket 0
  hist.record(1.0);   // bucket 0 (<= upper bound)
  hist.record(1.5);   // bucket 1
  hist.record(3.0);   // bucket 2
  hist.record(100.0); // overflow
  EXPECT_EQ(hist.count_in_bucket(0), 2u);
  EXPECT_EQ(hist.count_in_bucket(1), 1u);
  EXPECT_EQ(hist.count_in_bucket(2), 1u);
  EXPECT_EQ(hist.count_in_bucket(3), 1u);
  EXPECT_EQ(hist.total_count(), 5u);
}

TEST(MetricsTest, HistogramBucketOfMatchesRecord) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {
      0.25, 0.5, 1.0, 2.0, 4.0, 8.0,  // on each bound
      0.1, 0.3, 0.75, 1.5, 3.0, 6.0,  // between bounds
      8.5, 1e9,                       // above the last bound
      0.0, -0.0, -1.0, inf, -inf, nan};
  for (const double value : values) {
    SCOPED_TRACE(value);
    Histogram hist({0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
    hist.record(value);
    const std::size_t bucket = hist.bucket_of(value);
    ASSERT_LT(bucket, hist.bucket_count());
    EXPECT_EQ(hist.count_in_bucket(bucket), 1u);
    EXPECT_EQ(hist.total_count(), 1u);
  }
  Histogram hist({0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
  EXPECT_EQ(hist.bucket_of(0.25), 0u);  // inclusive upper bound
  EXPECT_EQ(hist.bucket_of(0.3), 1u);
  EXPECT_EQ(hist.bucket_of(8.0), 5u);
  EXPECT_EQ(hist.bucket_of(8.5), 6u);
  EXPECT_EQ(hist.bucket_of(0.0), 0u);
  EXPECT_EQ(hist.bucket_of(-0.0), 0u);
  EXPECT_EQ(hist.bucket_of(-inf), 0u);
  EXPECT_EQ(hist.bucket_of(inf), 6u);
  EXPECT_EQ(hist.bucket_of(nan), 6u);  // overflow, not bucket 0
}

TEST(MetricsTest, HistogramAddCountsEqualsRecording) {
  const std::vector<double> values = {0.1, 0.25, 0.3, 3.0, 3.5, 9.0, 100.0,
                                      -2.0, 0.5};
  Histogram recorded({0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
  Histogram tallied({0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
  std::vector<std::uint64_t> tally(tallied.bucket_count(), 0);
  for (const double value : values) {
    recorded.record(value);
    ++tally[tallied.bucket_of(value)];
  }
  tallied.record(3.0);  // adds on top of what is already there
  recorded.record(3.0);
  tallied.add_counts(tally.data());
  for (std::size_t i = 0; i < recorded.bucket_count(); ++i) {
    EXPECT_EQ(tallied.count_in_bucket(i), recorded.count_in_bucket(i)) << i;
  }
  EXPECT_EQ(tallied.total_count(), values.size() + 1);
}

TEST(MetricsTest, HistogramQuantiles) {
  Histogram hist({10.0, 20.0, 40.0});
  EXPECT_EQ(hist.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) hist.record(5.0);
  const double p50 = hist.quantile(0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 10.0);
  for (int i = 0; i < 900; ++i) hist.record(1000.0);  // overflow bucket
  // Overflow quantiles report the last finite bound.
  EXPECT_EQ(hist.quantile(0.99), 40.0);
}

TEST(MetricsTest, HistogramSetCountsValidatesSize) {
  Histogram hist({1.0, 2.0});
  EXPECT_THROW(hist.set_counts({1, 2}), ConfigError);  // needs 3
  hist.set_counts({1, 2, 3});
  EXPECT_EQ(hist.total_count(), 6u);
}

TEST(MetricsTest, RegistryIsIdempotent) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("h", {1.0, 2.0});
  Histogram& h2 = registry.histogram("h", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsTest, RegistryRejectsKindAndBoundsMismatch) {
  MetricsRegistry registry;
  registry.counter("c", MetricKind::kDeterministic);
  EXPECT_THROW(registry.counter("c", MetricKind::kTiming), ConfigError);
  registry.histogram("h", {1.0, 2.0});
  EXPECT_THROW(registry.histogram("h", {1.0, 3.0}), ConfigError);
  registry.gauge("g");
  EXPECT_THROW(registry.gauge("g", MetricKind::kTiming), ConfigError);
}

TEST(MetricsTest, JsonFiltersTimingMetrics) {
  MetricsRegistry registry;
  registry.counter("events").add(3);
  registry.counter("wall_clock", MetricKind::kTiming).add(99);
  registry.histogram("lat_us", {1.0}, MetricKind::kTiming).record(0.5);
  registry.gauge("hosts").set(2);

  const std::string all = registry.to_json(/*include_timing=*/true);
  EXPECT_NE(all.find("wall_clock"), std::string::npos);
  EXPECT_NE(all.find("lat_us"), std::string::npos);

  const std::string deterministic = registry.to_json(/*include_timing=*/false);
  EXPECT_EQ(deterministic.find("wall_clock"), std::string::npos);
  EXPECT_EQ(deterministic.find("lat_us"), std::string::npos);
  EXPECT_NE(deterministic.find("\"events\":3"), std::string::npos);
  EXPECT_NE(deterministic.find("\"hosts\":2"), std::string::npos);
}

// Regression: metric names used to be emitted raw, so a quote, backslash
// or control character in a name corrupted the JSON document.
TEST(MetricsTest, JsonEscapesHostileMetricNames) {
  MetricsRegistry registry;
  registry.counter("evil\"name").add(1);
  registry.gauge("back\\slash").set(2);
  registry.histogram("tab\there\nnewline", {1.0}).record(0.5);
  registry.counter(std::string("ctrl\x01" "char")).add(3);

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"evil\\\"name\":1"), std::string::npos);
  EXPECT_NE(json.find("\"back\\\\slash\":2"), std::string::npos);
  EXPECT_NE(json.find("tab\\there\\nnewline"), std::string::npos);
  EXPECT_NE(json.find("ctrl\\u0001char"), std::string::npos);
  // No raw quote survives inside any name: every interior '"' in the
  // document is structural or escaped.
  EXPECT_EQ(json.find("evil\"name"), std::string::npos);
  EXPECT_EQ(json.find("tab\there"), std::string::npos);
}

TEST(MetricsTest, TableListsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("a").add(1);
  registry.gauge("b").set(2);
  registry.histogram("c", {1.0}).record(0.5);
  const Table table = registry.to_table();
  EXPECT_EQ(table.row_count(), 3u);
}

TEST(MetricsTest, ConcurrentUpdatesAreLossless) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("n");
  Histogram& hist = registry.histogram("h", {0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter, &hist] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add(1);
        hist.record(i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.total_count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace vmtherm::obs
