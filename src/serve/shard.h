// vmtherm/serve/shard.h
//
// One shard of the fleet-serving engine: a bounded MPSC ingestion queue
// plus the owned state of every host the stable hash assigned here (its
// running condition, calibrated dynamic predictor, residual monitor: CUSUM
// drift state and per-stage residual sums). Hosts on the same running
// condition share one immutable config (ConditionTable).
//
// Concurrency protocol (see DESIGN.md §7):
//  * queue_mutex_ guards the event queue and the drain-claim flag; any
//    thread may enqueue (MPSC producers).
//  * At most one drainer is active per shard at any time (drain_active_),
//    so events apply strictly in queue order — this is what preserves
//    per-host event ordering while different shards drain in parallel.
//  * state_mutex_ guards the host table and the shard's metric tally; the
//    drainer takes it per chunk, synchronous reads (forecast, scans,
//    snapshot export) take it briefly.
//  * A chunk that carries config updates runs in two passes under that
//    one lock: pass 1 resolves ψ_stable for all of them (cache lookups,
//    then one batched SVR call for the misses), pass 2 applies every event
//    in queue order. ψ depends only on the config, so the split changes
//    no result.
//  * A config update adopts the event's own shared config: the drain does
//    no deep copy and never touches the condition table, which only
//    add_host/import_host (insert) and remove_host (release) use. The
//    host's old config goes back to the run, which frees it after the
//    state lock is released.
//  * Per-event metrics are counted into the tally, not the shared
//    registry, and published once per drain chunk and at the end of
//    add_host, so drainers of different shards write no shared cache line
//    per event.
//
// Shards are engine-internal: FleetEngine owns slot assignment and
// validates handles before events reach a shard.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/drift.h"
#include "core/stable_predictor.h"
#include "obs/metrics.h"
#include "serve/event.h"
#include "serve/psi_cache.h"
#include "util/thread_pool.h"

namespace vmtherm::serve {

/// Metric handles shared by every shard of one engine; the engine registers
/// these once at construction. Per-run and per-chunk metrics (ingested,
/// dropped, queue_high_water, drain_batch_us) are updated directly. The
/// per-event ones (applied, errors, drift, ψ cache, calibration error) are
/// tallied per shard under its state lock and added here once per drain
/// chunk, so they are exact after a flush and lag by at most one chunk per
/// shard mid-drain.
struct ShardMetrics {
  obs::Counter* ingested = nullptr;        ///< events accepted into a queue
  obs::Counter* dropped = nullptr;         ///< events rejected (kDropNewest)
  obs::Counter* observe_applied = nullptr;
  obs::Counter* config_applied = nullptr;
  obs::Counter* apply_errors = nullptr;    ///< unknown host / bad payload
  obs::Counter* drift_signals = nullptr;   ///< hosts whose CUSUM newly latched
  obs::Gauge* queue_high_water = nullptr;  ///< max queue depth seen (timing)
  /// ψ_stable memoization traffic. Timing-class: the hit/miss split
  /// depends on how hosts land on shards, not on what the engine computes.
  obs::Counter* psi_cache_hits = nullptr;
  obs::Counter* psi_cache_misses = nullptr;
  obs::Histogram* calibration_abs_error_c = nullptr;
  /// Per-chunk apply latency (timing).
  obs::Histogram* drain_batch_us = nullptr;
};

/// A shard's interned running conditions: registered and restored hosts on
/// bitwise-equal configs (mgmt::same_condition) share one immutable entry.
/// Not synchronized; the shard uses it under its state lock.
///
/// Entries are dropped once no host uses them: release() drops an entry at
/// once when its last registered host is removed, and insert() sweeps out
/// every entry only the table still holds (hosts that moved to a config
/// event's condition leave those behind) whenever the table has doubled
/// since the last sweep, which keeps inserts amortized O(1).
class ConditionTable {
 public:
  using Config = std::shared_ptr<const mgmt::MonitoredConfig>;

  /// The entry bitwise-equal to `config`; a copy is added if none is.
  Config intern(const mgmt::MonitoredConfig& config);

  /// Resets `config` (a host's reference), and drops its entry if that was
  /// the last host holding it.
  void release(Config& config);

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  static constexpr std::size_t kMinSweep = 64;

  std::unordered_multimap<std::uint64_t, Config> entries_;  ///< by hash
  std::size_t sweep_at_ = kMinSweep;
};

class Shard {
 public:
  /// QueuedEvent::config of an event without a config payload.
  static constexpr std::uint32_t kNoConfig = 0xffffffffu;

  /// An event routed to this shard: like TelemetryEvent but addressed by
  /// the shard-local slot the engine resolved from the host handle.
  /// Trivially copyable on purpose — the producer-visible grouping loop
  /// writes one of these per event, so config ownership lives out-of-band
  /// in the run (Run::configs) and the event only carries its index.
  struct QueuedEvent {
    TelemetryEvent::Type type = TelemetryEvent::Type::kObserve;
    std::uint32_t slot = 0;
    double time_s = 0.0;
    double measured_c = 0.0;
    std::uint32_t config = kNoConfig;  ///< index into Run::configs
  };

  /// One ingest batch's events for this shard, queued whole. `configs`
  /// holds every kUpdateConfig payload until the run is applied, when an
  /// accepted update swaps its payload with the host's old config;
  /// observes carry no ownership.
  struct Run {
    std::vector<QueuedEvent> events;
    std::vector<std::shared_ptr<const mgmt::MonitoredConfig>> configs;
  };

  Shard(const core::StableTemperaturePredictor* predictor,
        const FleetEngineOptions* options, ShardMetrics metrics);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // --- control plane (called by the engine) -------------------------------

  /// Adds a host and begins its tracker at a fresh stable prediction.
  /// Returns the shard-local slot.
  std::uint32_t add_host(std::string host_id, mgmt::MonitoredConfig config,
                         double t0, double measured_c);

  /// Restores a host from a snapshot (exact tracker state, no begin()).
  std::uint32_t import_host(const HostSnapshot& snapshot);

  /// Tombstones a slot, releases the removed host's config, and returns
  /// its id; queued events addressed to it count as apply errors.
  std::string remove_host(std::uint32_t slot);

  std::size_t live_host_count() const;

  /// Entries of the condition table (diagnostic).
  std::size_t condition_count() const;

  // --- data plane ---------------------------------------------------------

  /// Enqueues one event run (order-preserving, O(1) in the run size once
  /// grouped — runs are queued whole, which is what keeps producer-visible
  /// ingestion cheap). queue_capacity is an event-count watermark: under
  /// kBlock a producer waits until the backlog is below capacity and its
  /// entire run is then admitted (bounded overshoot of one run); under
  /// kDropNewest the run's tail beyond the remaining space is counted in
  /// ingest.dropped and discarded. When `pool` is non-null (auto drain) a
  /// drain task is scheduled if none is active.
  void enqueue_run(Run&& run, util::ThreadPool* pool);

  /// Blocks until every queued event has been applied. With `drain_inline`
  /// (manual mode) the calling thread drains the queue itself.
  void flush(bool drain_inline);

  // --- synchronous reads (state lock) -------------------------------------

  double forecast(std::uint32_t slot, double gap_s) const;
  mgmt::MonitoredConfig config_of(std::uint32_t slot) const;
  double calibration_of(std::uint32_t slot) const;

  /// One HotspotRisk per live host in mgmt::scan_before order (the engine
  /// merges the shards' lists). The state lock covers only the forecasts;
  /// the rows are ranked after it is released.
  std::vector<mgmt::HotspotRisk> ranked_risks(double horizon_s,
                                              double threshold_c) const;

  /// One HostSnapshot per live host, sorted by host id. The state lock
  /// covers only the copy (configs are shared, not copied); the rows are
  /// sorted after it is released.
  std::vector<HostSnapshot> sorted_snapshots() const;

 private:
  /// A host's state; a tombstone (removed host) has no config.
  struct HostState {
    std::string host_id;
    ConditionTable::Config config;
    core::DynamicTemperaturePredictor tracker;
    core::ResidualMonitor residuals;

    bool live() const noexcept { return config != nullptr; }
  };

  /// Per-event metric increments not yet added to the registry. Plain
  /// integers: every bump happens under state_mutex_.
  struct Tally {
    std::uint64_t observe_applied = 0;
    std::uint64_t config_applied = 0;
    std::uint64_t apply_errors = 0;
    std::uint64_t drift_signals = 0;
    std::uint64_t psi_cache_hits = 0;
    std::uint64_t psi_cache_misses = 0;
    /// calibration_abs_error_c buckets, sized from the registry histogram.
    std::vector<std::uint64_t> abs_error_buckets;
  };

  /// Scratch of ψ_stable resolution, reused across drain chunks so a
  /// steady-state chunk allocates nothing.
  struct PsiBatch {
    /// The conditions to resolve, in event order; for a drain chunk also
    /// the run index of the config event each came from, and ψ per entry.
    std::vector<const mgmt::MonitoredConfig*> configs;
    std::vector<std::size_t> events;
    std::vector<double> psi;
    std::vector<double> features;  ///< raw Eq. (2) encoding of one condition
    std::vector<double> scaled;    ///< min-max scaled rows fed to the SVR
    /// Distinct cache misses: raw feature rows (row-major), their cache
    /// hashes and their predicted ψ.
    std::vector<double> miss_features;
    std::vector<std::uint64_t> miss_hashes;
    std::vector<double> miss_psi;
    /// (index into configs, index into the misses) per condition that
    /// missed the cache.
    std::vector<std::pair<std::size_t, std::size_t>> pending;
  };

  /// Drains queue chunks until the queue is empty; requires the caller to
  /// have claimed drain_active_. Clears the claim and notifies flushers
  /// before returning. noexcept-in-effect: event errors are counted, never
  /// thrown.
  void drain_until_empty();

  /// Whether an event can touch host state: its slot is live and its time
  /// and reading are finite. Requires state_mutex_ to be held.
  bool accepts(const QueuedEvent& event) const noexcept;

  /// Pass 1 of a drain chunk: resolves ψ_stable for every config event in
  /// run.events[begin, end) that apply() would accept (live slot, finite
  /// values, valid config) into psi_batch_.events/.psi, and returns how
  /// many it resolved. Requires state_mutex_ to be held.
  std::size_t resolve_chunk(const Run& run, std::size_t begin,
                            std::size_t end);

  /// ψ_stable of each running condition into psi[i]: featurize, look up
  /// psi_cache_, then evaluate every distinct miss in one batched SVR call
  /// and memoize the results. Requires state_mutex_ to be held.
  void resolve_psi(std::span<const mgmt::MonitoredConfig* const> configs,
                   std::span<double> psi);

  /// Pass 2: applies one event of `run` under state_mutex_. `psi` is the
  /// value resolve_chunk found for a config event, or nullptr if it found
  /// none; an applied config event swaps its payload into the host.
  void apply(const QueuedEvent& event, Run& run, const double* psi);

  /// Adds the tally into the registry metrics and zeroes it. Requires
  /// state_mutex_ to be held.
  void publish_tally();

  const core::StableTemperaturePredictor* predictor_;
  const FleetEngineOptions* options_;
  ShardMetrics metrics_;

  /// Held per drain chunk by the drainer, briefly by synchronous readers
  /// (forecast, snapshot). tally_ is published before the lock is released
  /// after every drain chunk and every add_host.
  /// guards: hosts_/live_count_/conditions_/psi_cache_/psi_batch_/tally_
  mutable std::mutex state_mutex_;
  std::vector<HostState> hosts_;  ///< indexed by slot; tombstoned when !live
  std::size_t live_count_ = 0;
  ConditionTable conditions_;
  PsiStableCache psi_cache_;  ///< running condition -> ψ_stable
  PsiBatch psi_batch_;        ///< ψ resolution scratch
  Tally tally_;

  /// guards: queue_/queued_events_/drain_active_ (producer/drainer handoff).
  std::mutex queue_mutex_;
  /// sync: signaled under queue_mutex_ when dequeueing frees capacity
  /// (kBlock backpressure waiters).
  std::condition_variable space_available_;
  /// sync: signaled under queue_mutex_ when the queue empties and the
  /// drainer retires (flush barrier).
  std::condition_variable drained_;
  std::deque<Run> queue_;          ///< whole runs, FIFO
  std::size_t queued_events_ = 0;  ///< total events across queued runs
  bool drain_active_ = false;
};

}  // namespace vmtherm::serve
