// Self-test of perfbench/stats: median, nearest-rank percentiles and the
// ">= 10 samples beyond" tail rule. Exits non-zero on the first failure.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  // n, n-1, ..., 1: summarize must not depend on input order.
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int main() {
  using perfbench::summarize;

  const auto empty = summarize({});
  expect(empty.n == 0 && empty.median == 0.0 && empty.tail_pct == 0.0,
         "empty sample reports n=0 and no tail");

  const auto one = summarize({7.5});
  expect(one.n == 1 && one.median == 7.5 && one.tail_pct == 0.0,
         "single sample: median only");

  const auto even = summarize({4.0, 1.0, 3.0, 2.0});
  expect(even.median == 2.5, "even n: mean of the middle pair");

  // 19 samples: even p50 has only 9 beyond it -> no tail.
  expect(summarize(ramp(19)).tail_pct == 0.0, "n=19 supports no percentile");
  // 20 samples: p50 = 10th value, 10 beyond.
  const auto s20 = summarize(ramp(20));
  expect(s20.tail_pct == 50.0 && s20.tail == 10.0, "n=20 supports p50");

  // 99 samples: p90 rank 90 leaves 9 beyond -> falls back to p50.
  expect(summarize(ramp(99)).tail_pct == 50.0, "n=99 falls back to p50");
  // 100 samples: p90 = 90th value with exactly 10 beyond.
  const auto s100 = summarize(ramp(100));
  expect(s100.tail_pct == 90.0 && s100.tail == 90.0, "n=100 supports p90");
  expect(s100.median == 50.5, "n=100 median");

  // The old habit: max of 50 samples labelled p99. Here 50 samples give
  // p50 only, and the maximum is never reported as a percentile.
  const auto s50 = summarize(ramp(50));
  expect(s50.tail_pct == 50.0 && s50.tail == 25.0, "n=50 supports p50 only");

  const auto s1000 = summarize(ramp(1000));
  expect(s1000.tail_pct == 99.0 && s1000.tail == 990.0, "n=1000 -> p99");
  const auto s10000 = summarize(ramp(10000));
  expect(s10000.tail_pct == 99.9 && s10000.tail == 9990.0,
         "n=10000 -> p99.9");

  expect(perfbench::samples_beyond(100, 90.0) == 10, "beyond(100, p90)");
  expect(perfbench::samples_beyond(0, 50.0) == 0, "beyond(0, p50)");

  if (failures == 0) std::puts("perfbench stats: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
