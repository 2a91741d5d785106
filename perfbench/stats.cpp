#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t rank_of(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

constexpr double kLadder[] = {99.9, 99.0, 90.0, 50.0};
constexpr std::size_t kMinBeyond = 10;

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  return sorted[rank_of(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - rank_of(n, p);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = s.n / 2;
  s.median = s.n % 2 == 1 ? samples[mid]
                          : 0.5 * (samples[mid - 1] + samples[mid]);
  for (const double p : kLadder) {
    if (samples_beyond(s.n, p) >= kMinBeyond) {
      s.tail_pct = p;
      s.tail = nearest_rank(samples, p);
      break;
    }
  }
  return s;
}

}  // namespace perfbench
