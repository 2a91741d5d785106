// vmtherm/obs/accuracy.h
//
// Online prediction-quality telemetry for the Eq. 5–8 feedback loop: the
// paper corrects the dynamic prediction ψ(t) with γ ← γ + λ·dif where
// dif = φ(t) − ψ(t) (observed minus predicted). `HostAccuracy` keeps a
// bounded rolling window of (dif, γ) pairs per host with O(1),
// allocation-free records on the shard hot path (this file is in the lint
// hot-path scope); queries walk the window in chronological order, so the
// reported sums are bitwise-reproducible against a reference that sums
// the same samples oldest-to-newest.
//
// Fleet aggregation (`aggregate_fleet`) merges per-host window sums in
// host-id order, making fleet-wide MSE/MAE independent of shard count and
// drain interleaving — the same determinism contract the forecast digest
// obeys.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vmtherm::obs {

/// Exact sums over the samples currently in a host's window, accumulated
/// oldest-to-newest. Kept separate from the derived stats so fleet
/// aggregation can merge sums (order-deterministically) before dividing.
struct WindowSums {
  double sum_sq_dif = 0.0;
  double sum_abs_dif = 0.0;
  double sum_dif = 0.0;
  std::size_t samples = 0;
};

/// Rolling accuracy window for one host. Fixed capacity, preallocated;
/// record() is O(1) and never allocates. Not thread-safe — lives inside a
/// shard's state, which is single-drainer by construction.
class HostAccuracy {
 public:
  /// `window` >= 1 (the shard validates via FleetEngineOptions).
  explicit HostAccuracy(std::size_t window)
      : ring_(window == 0 ? 1 : window) {}

  /// Records one observation: dif = φ(t) − ψ(t) and the calibration γ
  /// *after* the Eq. 6 update it triggered.
  void record(double dif, double gamma) noexcept {
    ring_[next_] = Entry{dif, gamma};
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++total_;
  }

  /// Observations ever recorded (not capped by the window).
  std::uint64_t observations() const noexcept { return total_; }
  std::size_t window() const noexcept { return ring_.size(); }
  std::size_t in_window() const noexcept {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                 : ring_.size();
  }

  /// Sums over the current window, oldest-to-newest (bitwise-stable).
  WindowSums window_sums() const noexcept;

  double rolling_mse() const noexcept;
  double rolling_mae() const noexcept;
  double rolling_mean_dif() const noexcept;

  /// γ recorded with the newest observation (0 before any observation).
  double latest_gamma() const noexcept;
  /// Newest γ minus the oldest γ still in the window: how far Eq. 6 moved
  /// the calibration across the window. 0 with fewer than 2 samples.
  double gamma_drift() const noexcept;

 private:
  struct Entry {
    double dif = 0.0;
    double gamma = 0.0;
  };

  /// Index of the oldest sample in the window.
  std::size_t oldest() const noexcept {
    return total_ < ring_.size() ? 0 : next_;
  }

  std::vector<Entry> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// One host's accuracy snapshot, as reported by `vmtherm serve-stats` and
/// FleetEngine::accuracy_report(). Combines the rolling window with the
/// host's CUSUM drift state (core::CusumDetector sums — not duplicated
/// here; the shard copies them out of its per-host detector). The CUSUM is
/// fed the Eq. 5 dif, measured - predicted: drift_positive grows while
/// readings run *above* the forecast, drift_negative while they run
/// below.
struct HostAccuracyStats {
  std::string host_id;
  std::uint64_t observations = 0;
  std::size_t window = 0;
  std::size_t in_window = 0;
  double rolling_mse = 0.0;
  double rolling_mae = 0.0;
  double rolling_mean_dif = 0.0;
  double gamma = 0.0;
  double gamma_drift = 0.0;
  double drift_positive = 0.0;
  double drift_negative = 0.0;
  bool drifted = false;
  WindowSums sums;
};

/// Fleet-wide aggregate plus the sorted per-host rows.
struct FleetAccuracyStats {
  std::vector<HostAccuracyStats> hosts;
  std::uint64_t observations = 0;
  std::size_t samples_in_window = 0;
  double rolling_mse = 0.0;
  double rolling_mae = 0.0;
  double rolling_mean_dif = 0.0;
  std::uint64_t hosts_drifted = 0;
  std::uint64_t psi_cache_hits = 0;
  std::uint64_t psi_cache_misses = 0;
  std::int64_t queue_high_water = 0;
};

/// Sorts `hosts` by host_id and merges their window sums in that order —
/// the result is independent of how hosts were distributed over shards.
/// Cache/queue fields are left zero for the caller to fill.
FleetAccuracyStats aggregate_fleet(std::vector<HostAccuracyStats> hosts);

}  // namespace vmtherm::obs
