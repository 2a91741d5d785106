// vmtherm/serve/engine.h
//
// FleetEngine: the sharded, internally synchronized fleet-serving engine.
// Hosts are partitioned across N shards by a stable FNV-1a hash of their
// id; each shard owns a bounded MPSC ingestion queue plus its hosts'
// calibrated dynamic predictors, and drains on a shared util::ThreadPool —
// per-host event ordering is preserved (a shard has at most one active
// drainer) while cross-shard processing is fully parallel.
//
// Results are bitwise-deterministic in the logical event stream: for a
// fixed per-host event sequence, forecasts, hotspot scans, snapshots and
// every kDeterministic metric are identical at any shard/thread count
// (per-host state only ever depends on that host's own events). See
// DESIGN.md §7 for the ordering and backpressure contract.
//
// This is the library's one per-host tracking service and its one
// *internally synchronized* service façade (DESIGN.md §6). A single-threaded
// caller gets the serial variant from one shard in manual drain mode.

#pragma once

#include <iosfwd>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stable_predictor.h"
#include "obs/metrics.h"
#include "serve/event.h"
#include "serve/shard.h"
#include "util/thread_pool.h"

namespace vmtherm::serve {

class FleetEngine {
 public:
  /// The engine copies the predictor; shards share it read-only
  /// (SvrModel::predict is const and touches no mutable state).
  explicit FleetEngine(core::StableTemperaturePredictor predictor,
                       FleetEngineOptions options = {});

  /// Drains every queue before destruction (no event is lost).
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  // --- control plane ------------------------------------------------------
  // Synchronous and internally synchronized. Ordering caveat: a synchronous
  // control-plane call takes effect immediately, *before* any still-queued
  // telemetry drains; call flush() first when that ordering matters.

  /// Registers a host and returns its handle. Host ids must be non-empty,
  /// whitespace-free (snapshot format tokens) and unique; throws
  /// ConfigError otherwise, and DataError when t0 or measured_c is not
  /// finite.
  HostHandle register_host(const std::string& host_id,
                           mgmt::MonitoredConfig config, double t0,
                           double measured_c);

  /// Unregisters; queued events still addressed to the handle are counted
  /// as apply errors when they drain. Throws ConfigError when unknown.
  void unregister_host(HostHandle handle);

  /// Handle lookup; returns kInvalidHostHandle when unknown/unregistered.
  HostHandle handle_of(const std::string& host_id) const;
  bool has_host(const std::string& host_id) const;
  std::size_t host_count() const;

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Stable shard assignment: fnv1a64(host_id) % shards.
  std::size_t shard_of(const std::string& host_id) const noexcept;

  // --- data plane ---------------------------------------------------------

  /// Enqueues one event. Throws ConfigError on an invalid handle; delivery
  /// then follows the backpressure policy (block or drop + count). An
  /// event with a non-finite time or reading, or an invalid config, is
  /// counted in apply.errors when it drains and leaves the host untouched.
  void ingest(TelemetryEvent event);

  /// Enqueues a batch: events are grouped per shard with one lock
  /// acquisition per shard run, preserving the batch's relative order
  /// within each shard. Throws ConfigError if any handle is invalid (no
  /// event of the batch is enqueued in that case).
  void ingest_batch(std::vector<TelemetryEvent> events);

  /// Barrier: returns once every event ingested before the call has been
  /// applied. In manual drain mode this drains on the calling thread.
  void flush();

  // --- queries ------------------------------------------------------------
  // Safe to call concurrently with ingestion; for deterministic results
  // relative to the event stream, flush() first.

  double forecast(HostHandle handle, double gap_s) const;

  /// Batched forecasting: requests are grouped per shard and evaluated in
  /// parallel on the pool, results land in request order.
  std::vector<double> forecast_batch(
      const std::vector<ForecastRequest>& requests) const;

  /// Fleet-wide risk scan: each shard ranks its rows on the pool, then the
  /// ranked lists are merged in mgmt::scan_before order (hottest first,
  /// NaN forecasts last, host id on ties), the same at any shard count.
  std::vector<mgmt::HotspotRisk> hotspot_scan(double horizon_s,
                                              double threshold_c) const;

  mgmt::MonitoredConfig config_of(HostHandle handle) const;
  double calibration_of(HostHandle handle) const;

  /// Live host states sorted by host id (snapshot support; deterministic
  /// output at any shard count).
  std::vector<HostSnapshot> export_hosts() const;

  /// Re-creates a host from a snapshot with its exact tracker/drift state
  /// (no begin()); same id rules as register_host.
  HostHandle import_host(const HostSnapshot& snapshot);

  /// Prediction-quality telemetry: per host, γ and the residual monitor
  /// fed dif = φ − ψ (CUSUM state and decayed per-stage sums: rolling
  /// MSE/MAE/mean, ψ_stable bias, transient MSE), plus fleet-wide stage
  /// sums, ψ_stable cache traffic and the queue high-water mark. Rows are
  /// sorted by host id and the stage sums merge in that order, so the
  /// report is deterministic at any shard/thread count once flushed, and
  /// it survives snapshot/restore.
  FleetAccuracyStats accuracy_report() const;

  /// Per-event counts are published per drain chunk: exact after flush(),
  /// at most one chunk per shard behind while a drain is running.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  const core::StableTemperaturePredictor& stable_predictor() const noexcept {
    return predictor_;
  }
  const FleetEngineOptions& options() const noexcept { return options_; }

 private:
  struct Route {
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
    bool live = false;
  };

  Route route_of(HostHandle handle) const;

  core::StableTemperaturePredictor predictor_;
  FleetEngineOptions options_;
  obs::MetricsRegistry metrics_;
  ShardMetrics shard_metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// mutable: const queries (forecast_batch, hotspot_scan) parallelize on
  /// the pool without mutating engine state.
  mutable util::ThreadPool pool_;

  /// guards: routes_/names_ — shared for the per-event hot path,
  /// exclusive for (un)registration.
  mutable std::shared_mutex routes_mutex_;
  std::vector<Route> routes_;  ///< indexed by handle
  std::unordered_map<std::string, HostHandle> names_;

  obs::Counter* batches_ = nullptr;
  obs::Counter* forecasts_ = nullptr;
  obs::Counter* scans_ = nullptr;
  obs::Gauge* hosts_gauge_ = nullptr;
  obs::Histogram* forecast_batch_us_ = nullptr;
};

/// Sorts `hosts` by host_id and merges their stage sums in that order —
/// the result is independent of how hosts were distributed over shards.
/// Cache/queue fields are left zero for the caller to fill.
FleetAccuracyStats aggregate_fleet(std::vector<HostAccuracyStats> hosts);

}  // namespace vmtherm::serve
