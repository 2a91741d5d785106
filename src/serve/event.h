// vmtherm/serve/event.h
//
// Plain-data vocabulary of the fleet-serving engine: host handles,
// telemetry events, forecast requests, engine options, the per-host
// snapshot record and the accuracy report. Split from engine.h so
// producers that only *build* event streams need none of the engine
// machinery.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/drift.h"
#include "core/dynamic_predictor.h"
#include "mgmt/host_config.h"
#include "util/error.h"

namespace vmtherm::serve {

/// Dense per-process identifier of a registered host, assigned by
/// FleetEngine::register_host in registration order. Handles keep the
/// data-plane hot path free of string hashing; they are NOT stable across
/// snapshot/restore — re-resolve with FleetEngine::handle_of after a
/// restore.
using HostHandle = std::uint32_t;

inline constexpr HostHandle kInvalidHostHandle =
    std::numeric_limits<HostHandle>::max();

/// One data-plane event. Events for the same host are applied in ingestion
/// order; events for different hosts have no ordering relationship unless
/// they share a shard.
struct TelemetryEvent {
  enum class Type { kObserve, kUpdateConfig };

  Type type = Type::kObserve;
  HostHandle host = kInvalidHostHandle;
  double time_s = 0.0;
  double measured_c = 0.0;
  /// New configuration for kUpdateConfig (shared so batches stay copyable;
  /// the engine never mutates it). Must be null for kObserve.
  std::shared_ptr<const mgmt::MonitoredConfig> config;

  static TelemetryEvent observe(HostHandle host, double time_s,
                                double measured_c) {
    TelemetryEvent event;
    event.type = Type::kObserve;
    event.host = host;
    event.time_s = time_s;
    event.measured_c = measured_c;
    return event;
  }

  static TelemetryEvent update_config(HostHandle host, double time_s,
                                      double measured_c,
                                      mgmt::MonitoredConfig config) {
    TelemetryEvent event;
    event.type = Type::kUpdateConfig;
    event.host = host;
    event.time_s = time_s;
    event.measured_c = measured_c;
    event.config =
        std::make_shared<const mgmt::MonitoredConfig>(std::move(config));
    return event;
  }
};

/// One entry of a forecast_batch call.
struct ForecastRequest {
  HostHandle host = kInvalidHostHandle;
  double gap_s = 60.0;
};

/// What happens when a shard's ingestion queue is full. Each ingest call
/// delivers one *run* of events per shard, admitted atomically; the queue
/// capacity is an event-count watermark over those runs.
enum class BackpressurePolicy {
  /// ingest() blocks the producer until the backlog drops below capacity,
  /// then admits its whole run (lossless; backlog may overshoot capacity
  /// by at most one run).
  kBlock,
  /// ingest() admits events up to the remaining capacity and discards the
  /// run's tail, counting each discarded event in ingest.dropped (lossy,
  /// non-blocking).
  kDropNewest,
};

/// How queued events reach the per-shard state.
enum class DrainMode {
  /// Ingestion schedules drain tasks on the engine's thread pool (the
  /// production mode).
  kAuto,
  /// Nothing drains until flush() is called, which drains on the calling
  /// thread. Gives tests and strictly serial replays full control.
  kManual,
};

/// FleetEngine construction parameters.
struct FleetEngineOptions {
  std::size_t shards = 4;
  /// Worker threads of the engine-owned pool (0 = all hardware threads).
  std::size_t threads = 0;
  /// Per-shard ingestion queue capacity (events).
  std::size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  DrainMode drain = DrainMode::kAuto;
  /// Dynamic-prediction configuration shared by every host tracker.
  core::DynamicOptions dynamic;
  /// Per-host CUSUM drift detection over observation residuals (see
  /// core/drift.h).
  double drift_slack_c = core::kDefaultDriftSlackC;
  double drift_threshold_c = core::kDefaultDriftThresholdC;
  /// Per-shard ψ_stable memoization budget (entries): identical running
  /// conditions (server config, VM set, fans, env) reuse the cached SVR
  /// prediction instead of re-evaluating the kernel expansion. 0 disables
  /// memoization (see serve/psi_cache.h for the keying discipline).
  std::size_t psi_cache_capacity = 4096;

  void validate() const {
    detail::require(shards >= 1, "fleet engine needs at least one shard");
    detail::require(queue_capacity >= 1,
                    "fleet engine queue capacity must be >= 1");
    detail::require(
        backpressure != BackpressurePolicy::kBlock ||
            drain != DrainMode::kManual,
        "blocking backpressure requires auto draining (manual drains would "
        "deadlock a blocked producer)");
    core::validate_drift_tuning(drift_slack_c, drift_threshold_c);
    dynamic.validate();
  }
};

/// Full per-host engine state as plain data (snapshot support).
struct HostSnapshot {
  std::string host_id;
  mgmt::MonitoredConfig config;
  core::DynamicPredictorState tracker;
  core::ResidualMonitor residuals;
};

/// One host's row of FleetEngine::accuracy_report(): its calibration γ
/// and its residual monitor, fed the Eq. 5 dif = measured − predicted.
/// The monitor's merged() sums give rolling_mse/mae/mean_dif, its stable
/// stage the ψ_stable bias and its transient stage the ψ*(t) + γ error.
struct HostAccuracyStats {
  std::string host_id;
  double gamma = 0.0;
  core::ResidualMonitor residuals;

  bool operator==(const HostAccuracyStats&) const = default;
};

/// Fleet-wide aggregate plus the per-host rows, sorted by host id.
struct FleetAccuracyStats {
  std::vector<HostAccuracyStats> hosts;
  std::uint64_t observations = 0;
  /// Per-stage sums of every host, merged in host-id order.
  core::StageSums transient;
  core::StageSums stable;
  std::uint64_t hosts_drifted = 0;
  std::uint64_t psi_cache_hits = 0;
  std::uint64_t psi_cache_misses = 0;
  std::int64_t queue_high_water = 0;

  /// Both stages merged: the fleet's rolling statistics.
  core::StageSums merged() const noexcept { return transient + stable; }
};

}  // namespace vmtherm::serve
