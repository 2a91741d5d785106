// Verifies the VMTHERM_TRACE=0 compile-time kill-switch: with tracing
// compiled out, the span macros must expand to nothing at all — no Span
// object, no recorder interaction — while the runtime API (used by tests
// and the exporter) keeps working. This TU defines the macro before the
// first include of obs/trace.h, exactly how a build would pass
// -DVMTHERM_TRACE=0.

#define VMTHERM_TRACE 0
#include "obs/trace.h"

#include <gtest/gtest.h>

namespace vmtherm::obs {
namespace {

TEST(TraceDisabledTest, SpanMacrosCompileToNoOps) {
  TraceRecorder& recorder = global_trace();
  recorder.clear();
  recorder.set_enabled(true);
  {
    VMTHERM_SPAN("never.recorded", "test");
    VMTHERM_SPAN_ARG("never.recorded.arg", "test", "n", 5);
  }
  // The macros are statements, usable without braces.
  if (recorder.enabled())
    VMTHERM_SPAN("branch", "test");
  else
    VMTHERM_SPAN("other", "test");
  recorder.set_enabled(false);
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(recorder.thread_buffer_count(), 0u);
  recorder.clear();
}

TEST(TraceDisabledTest, RuntimeSpanApiStillWorks) {
  // The kill-switch removes the macros only; explicit Span objects (and
  // with them the exporter, tests and `vmtherm trace`) stay functional.
  TraceRecorder recorder;
  recorder.set_enabled(true);
  { Span span(recorder, "explicit", "test"); }
  recorder.set_enabled(false);
  EXPECT_EQ(recorder.event_count(), 1u);
}

}  // namespace
}  // namespace vmtherm::obs
