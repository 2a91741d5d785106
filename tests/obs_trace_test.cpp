// Tests for obs/trace + obs/chrome_trace: the per-thread span recorder's
// no-lost/no-torn guarantees under concurrency (this file is part of the
// sanitizer scripts' TSan set), the drop-newest bounded-buffer behaviour,
// the Chrome trace-event JSON export shape, and the timing-class-only
// metric summaries.

#include "obs/chrome_trace.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace vmtherm::obs {
namespace {

TraceEvent make_event(const char* name, std::uint64_t start_ns,
                      std::uint64_t dur_ns, const char* arg_name = nullptr,
                      double arg_value = 0.0) {
  TraceEvent event{};
  event.name = name;
  event.category = "test";
  event.arg_name = arg_name;
  event.arg_value = arg_value;
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  return event;
}

TEST(TraceTest, SpanRecordsNothingWhenDisabled) {
  TraceRecorder recorder;
  ASSERT_FALSE(recorder.enabled());  // off by default
  {
    Span span(recorder, "work", "test");
    Span with_arg(recorder, "work", "test", "n", 3.0);
  }
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(recorder.thread_buffer_count(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceTest, SpanRecordsOneEventWithItsArgument) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  {
    Span span(recorder, "drain", "serve");
    span.set_arg("events", 7.0);
  }
  recorder.set_enabled(false);
  ASSERT_EQ(recorder.event_count(), 1u);
  ASSERT_EQ(recorder.thread_buffer_count(), 1u);
  const TraceEvent& event = recorder.thread_buffer(0).event(0);
  EXPECT_STREQ(event.name, "drain");
  EXPECT_STREQ(event.category, "serve");
  EXPECT_STREQ(event.arg_name, "events");
  EXPECT_EQ(event.arg_value, 7.0);
  EXPECT_LE(event.start_ns + event.dur_ns, recorder.now_ns());
}

TEST(TraceTest, SpanMacrosDriveTheGlobalRecorder) {
  TraceRecorder& recorder = global_trace();
  recorder.clear();
  recorder.set_enabled(true);
  {
    VMTHERM_SPAN("outer", "test");
    VMTHERM_SPAN_ARG("inner", "test", "n", 42);
  }
  recorder.set_enabled(false);
  EXPECT_EQ(recorder.event_count(), 2u);
  recorder.clear();
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(TraceTest, FullBufferDropsNewestAndKeepsHistory) {
  TraceRecorder recorder(/*capacity_per_thread=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.record(make_event("e", /*start_ns=*/i, /*dur_ns=*/1));
  }
  EXPECT_EQ(recorder.event_count(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // The *first* events survive: a full buffer drops new spans instead of
  // overwriting published (and possibly concurrently read) history.
  const ThreadBuffer& buffer = recorder.thread_buffer(0);
  ASSERT_EQ(buffer.published(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(buffer.event(i).start_ns, i);
  }
}

TEST(TraceTest, ClearDiscardsEventsAndDropCounter) {
  TraceRecorder recorder(/*capacity_per_thread=*/2);
  for (int i = 0; i < 5; ++i) {
    recorder.record(make_event("e", 0, 1));
  }
  ASSERT_EQ(recorder.event_count(), 2u);
  ASSERT_EQ(recorder.dropped(), 3u);
  recorder.clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  // The thread's buffer registration survives a clear and is reused.
  recorder.record(make_event("e", 0, 1));
  EXPECT_EQ(recorder.event_count(), 1u);
  EXPECT_EQ(recorder.thread_buffer_count(), 1u);
}

TEST(TraceTest, ConcurrentSpansAreNeitherLostNorTorn) {
  // T threads record through the Span fast path at once; every published
  // event must be complete (its pointers are one of the literals we
  // passed) and the per-name counts must be exact at any thread count.
  static const char* const kEven = "even.span";
  static const char* const kOdd = "odd.span";
  constexpr int kPerThread = 4000;
  for (const int threads : {2, 4, 8}) {
    TraceRecorder recorder;
    recorder.set_enabled(true);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&recorder] {
        for (int i = 0; i < kPerThread; ++i) {
          Span span(recorder, i % 2 == 0 ? kEven : kOdd, "test");
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    recorder.set_enabled(false);

    const auto expected =
        static_cast<std::size_t>(threads) * kPerThread;
    EXPECT_EQ(recorder.event_count(), expected);
    EXPECT_EQ(recorder.dropped(), 0u);
    ASSERT_EQ(recorder.thread_buffer_count(),
              static_cast<std::size_t>(threads));
    for (std::size_t b = 0; b < recorder.thread_buffer_count(); ++b) {
      const ThreadBuffer& buffer = recorder.thread_buffer(b);
      ASSERT_EQ(buffer.published(), static_cast<std::size_t>(kPerThread));
      for (std::size_t i = 0; i < buffer.published(); ++i) {
        const TraceEvent& event = buffer.event(i);
        EXPECT_TRUE(event.name == kEven || event.name == kOdd);
        EXPECT_STREQ(event.category, "test");
      }
    }

    // The summary is deterministic: sorted by name, exact counts.
    const std::vector<SpanSummaryRow> rows = summarize_spans(recorder);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "even.span");
    EXPECT_EQ(rows[0].count, expected / 2);
    EXPECT_EQ(rows[1].name, "odd.span");
    EXPECT_EQ(rows[1].count, expected / 2);
  }
}

TEST(TraceTest, SummaryRowsAggregateByName) {
  TraceRecorder recorder;
  recorder.record(make_event("b", 0, 2000));  // 2 us
  recorder.record(make_event("a", 0, 1000));  // 1 us
  recorder.record(make_event("b", 0, 6000));  // 6 us
  const std::vector<SpanSummaryRow> rows = summarize_spans(recorder);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "a");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[0].total_us, 1.0);
  EXPECT_EQ(rows[1].name, "b");
  EXPECT_EQ(rows[1].count, 2u);
  EXPECT_EQ(rows[1].total_us, 8.0);
  EXPECT_EQ(rows[1].mean_us, 4.0);
  EXPECT_EQ(rows[1].max_us, 6.0);
}

TEST(TraceTest, SummariesPublishAsTimingMetricsOnly) {
  TraceRecorder recorder(/*capacity_per_thread=*/2);
  recorder.record(make_event("drain", 0, 1000));
  recorder.record(make_event("drain", 0, 3000));
  recorder.record(make_event("drain", 0, 1));  // dropped

  MetricsRegistry registry;
  registry.counter("events").add(5);
  const std::string deterministic_before =
      registry.to_json(/*include_timing=*/false);

  publish_trace_summary(recorder, registry);
  const std::string all = registry.to_json(/*include_timing=*/true);
  EXPECT_NE(all.find("\"trace.spans.drain\":2"), std::string::npos);
  EXPECT_NE(all.find("trace.span_us.drain"), std::string::npos);
  EXPECT_NE(all.find("\"trace.dropped\":1"), std::string::npos);

  // The deterministic subset — what the replay byte-compare sees — is
  // untouched by tracing.
  EXPECT_EQ(registry.to_json(/*include_timing=*/false),
            deterministic_before);
}

TEST(TraceTest, ChromeTraceExportMatchesGoldenShape) {
  TraceRecorder recorder;
  // Crafted events (record() bypasses the Span clock) make the export a
  // pure function of this data — compare the whole document.
  TraceEvent drain = make_event("serve.drain", 1500, 2500, "events", 3.0);
  drain.category = "serve";
  TraceEvent predict = make_event("ml.predict", 4000, 250);
  predict.category = "ml";
  recorder.record(predict);  // out of order: export sorts by start time
  recorder.record(drain);

  std::ostringstream os;
  write_chrome_trace(recorder, os);
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"serve.drain\",\"cat\":\"serve\",\"ph\":\"X\","
      "\"ts\":1.500,\"dur\":2.500,\"pid\":1,\"tid\":1,"
      "\"args\":{\"events\":3}},\n"
      "{\"name\":\"ml.predict\",\"cat\":\"ml\",\"ph\":\"X\","
      "\"ts\":4.000,\"dur\":0.250,\"pid\":1,\"tid\":1}"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(TraceTest, EmptyRecorderExportsAnEmptyTrace) {
  TraceRecorder recorder;
  std::ostringstream os;
  write_chrome_trace(recorder, os);
  EXPECT_EQ(os.str(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
  EXPECT_TRUE(summarize_spans(recorder).empty());
}

}  // namespace
}  // namespace vmtherm::obs
