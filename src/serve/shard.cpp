#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "obs/trace.h"

namespace vmtherm::serve {

namespace {

/// Events applied per state-lock acquisition: large enough to amortize the
/// lock, small enough that synchronous reads interleave with a busy drain.
constexpr std::size_t kDrainChunk = 256;

}  // namespace

Shard::Shard(const core::StableTemperaturePredictor* predictor,
             const FleetEngineOptions* options, ShardMetrics metrics)
    : predictor_(predictor),
      options_(options),
      metrics_(metrics),
      psi_cache_(options->psi_cache_capacity) {
  tally_.abs_error_buckets.assign(
      metrics_.calibration_abs_error_c->bucket_count(), 0);
}

bool Shard::accepts(const QueuedEvent& event) const noexcept {
  return event.slot < hosts_.size() && hosts_[event.slot].live &&
         std::isfinite(event.time_s) && std::isfinite(event.measured_c);
}

std::size_t Shard::resolve_chunk(const std::vector<QueuedEvent>& events,
                                 std::size_t begin, std::size_t end) {
  PsiBatch& batch = psi_batch_;
  batch.configs.clear();
  batch.events.clear();
  for (std::size_t i = begin; i < end; ++i) {
    const QueuedEvent& event = events[i];
    if (event.type != TelemetryEvent::Type::kUpdateConfig ||
        event.config == nullptr || !accepts(event)) {
      continue;
    }
    try {
      event.config->validate();
    } catch (const Error&) {
      continue;  // pass 2 counts it in apply.errors
    }
    batch.configs.push_back(event.config);
    batch.events.push_back(i);
  }
  batch.psi.resize(batch.configs.size());
  resolve_psi(batch.configs, batch.psi);
  return batch.events.size();
}

void Shard::resolve_psi(std::span<const mgmt::MonitoredConfig* const> configs,
                        std::span<double> psi) {
  PsiBatch& batch = psi_batch_;
  batch.miss_features.clear();
  batch.miss_hashes.clear();
  batch.pending.clear();
  // With memoization disabled every lookup is a miss, as sequentially.
  const bool memoize = psi_cache_.capacity() > 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    VMTHERM_SPAN("serve.featurize", "serve");
    const mgmt::MonitoredConfig& config = *configs[i];
    core::encode_features(
        core::make_record_inputs(config.server, config.vms, config.fans,
                                 config.env_temp_c),
        batch.features);
    const std::span<const double> key = batch.features;
    const std::uint64_t hash = PsiStableCache::hash(key);
    if (const double* hit = psi_cache_.find(key, hash)) {
      ++tally_.psi_cache_hits;
      psi[i] = *hit;
      continue;
    }
    // A condition that already missed earlier in this batch counts as a
    // hit, as it would when resolved one event at a time. Misses per
    // chunk are few, so a linear scan over their hashes is enough.
    std::size_t miss = batch.miss_hashes.size();
    for (std::size_t m = 0; memoize && m < batch.miss_hashes.size(); ++m) {
      if (batch.miss_hashes[m] == hash &&
          std::memcmp(batch.miss_features.data() + m * key.size(),
                      key.data(), key.size_bytes()) == 0) {
        miss = m;
        break;
      }
    }
    if (miss < batch.miss_hashes.size()) {
      ++tally_.psi_cache_hits;
    } else {
      ++tally_.psi_cache_misses;
      batch.miss_hashes.push_back(hash);
      batch.miss_features.insert(batch.miss_features.end(), key.begin(),
                                 key.end());
    }
    batch.pending.emplace_back(i, miss);
  }

  const std::size_t misses = batch.miss_hashes.size();
  if (misses == 0) return;
  batch.miss_psi.resize(misses);
  {
    VMTHERM_SPAN_ARG("serve.psi_predict", "serve", "queries", misses);
    predictor_->predict_batch_from_features(batch.miss_features, misses,
                                            batch.scaled, batch.miss_psi);
  }
  const std::size_t dim = batch.miss_features.size() / misses;
  for (std::size_t m = 0; m < misses; ++m) {
    psi_cache_.insert(
        std::span<const double>(batch.miss_features.data() + m * dim, dim),
        batch.miss_hashes[m], batch.miss_psi[m]);
  }
  for (const auto& [index, miss] : batch.pending) {
    psi[index] = batch.miss_psi[miss];
  }
}

void Shard::publish_tally() {
  const auto publish = [](obs::Counter* counter, std::uint64_t& count) {
    if (count == 0) return;
    counter->add(count);
    count = 0;
  };
  publish(metrics_.observe_applied, tally_.observe_applied);
  publish(metrics_.config_applied, tally_.config_applied);
  publish(metrics_.apply_errors, tally_.apply_errors);
  publish(metrics_.drift_signals, tally_.drift_signals);
  publish(metrics_.psi_cache_hits, tally_.psi_cache_hits);
  publish(metrics_.psi_cache_misses, tally_.psi_cache_misses);
  metrics_.calibration_abs_error_c->add_counts(
      tally_.abs_error_buckets.data());
  std::fill(tally_.abs_error_buckets.begin(), tally_.abs_error_buckets.end(),
            0);
}

std::uint32_t Shard::add_host(std::string host_id,
                              mgmt::MonitoredConfig config, double t0,
                              double measured_c) {
  config.validate();
  std::lock_guard<std::mutex> lock(state_mutex_);
  // ψ under the state lock: the cache and scratch buffers are shard state.
  // A registration resolves as a one-condition chunk.
  const mgmt::MonitoredConfig* const conditions[] = {&config};
  double psi = 0.0;
  resolve_psi(conditions, std::span<double>(&psi, 1));
  HostState host{std::move(host_id), std::move(config),
                 core::DynamicTemperaturePredictor(options_->dynamic),
                 core::ResidualMonitor{}, true};
  host.tracker.begin(t0, measured_c, psi);
  hosts_.push_back(std::move(host));
  ++live_count_;
  publish_tally();
  return static_cast<std::uint32_t>(hosts_.size() - 1);
}

std::uint32_t Shard::import_host(const HostSnapshot& snapshot) {
  snapshot.config.validate();
  snapshot.residuals.validate();
  std::lock_guard<std::mutex> lock(state_mutex_);
  HostState host{snapshot.host_id, snapshot.config,
                 core::DynamicTemperaturePredictor(options_->dynamic),
                 snapshot.residuals, true};
  host.tracker.restore_state(snapshot.tracker);
  hosts_.push_back(std::move(host));
  ++live_count_;
  return static_cast<std::uint32_t>(hosts_.size() - 1);
}

std::string Shard::remove_host(std::uint32_t slot) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  detail::require(slot < hosts_.size() && hosts_[slot].live,
                  "shard slot is not live");
  HostState& host = hosts_[slot];
  host.live = false;
  --live_count_;
  // The tombstone keeps its slot (queued events for it still count as
  // apply errors) but frees the config's VM list.
  host.config = mgmt::MonitoredConfig{};
  return std::move(host.host_id);
}

std::size_t Shard::live_host_count() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return live_count_;
}

void Shard::enqueue_run(Run&& run, util::ThreadPool* pool) {
  if (run.events.empty()) return;
  bool schedule_drain = false;
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (options_->backpressure == BackpressurePolicy::kBlock) {
      // Watermark semantics: wait until the backlog is below capacity, then
      // admit the whole run (overshoot is bounded by one run). Admitting
      // runs whole keeps producer-visible enqueue cost O(1) per run.
      space_available_.wait(lock, [this] {
        return queued_events_ < options_->queue_capacity;
      });
    } else {
      const std::size_t space = options_->queue_capacity > queued_events_
                                    ? options_->queue_capacity - queued_events_
                                    : 0;
      if (space < run.events.size()) {
        // Tail-drop; surviving config payloads stay owned by the run.
        metrics_.dropped->add(
            static_cast<std::uint64_t>(run.events.size() - space));
        run.events.resize(space);
      }
      if (run.events.empty()) return;
    }
    queued_events_ += run.events.size();
    metrics_.ingested->add(static_cast<std::uint64_t>(run.events.size()));
    metrics_.queue_high_water->update_max(
        static_cast<std::int64_t>(queued_events_));
    queue_.push_back(std::move(run));
    if (pool != nullptr && !drain_active_) {
      drain_active_ = true;
      schedule_drain = true;
    }
  }
  if (schedule_drain) {
    pool->submit([this] { drain_until_empty(); });
  }
}

void Shard::flush(bool drain_inline) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  if (drain_inline) {
    // Claim the drain (mirrors the pool task's protocol so a manual flush
    // is safe even if another drainer is mid-flight).
    drained_.wait(lock, [this] { return !drain_active_; });
    if (queue_.empty()) return;
    drain_active_ = true;
    lock.unlock();
    drain_until_empty();
    return;
  }
  drained_.wait(lock, [this] { return queue_.empty() && !drain_active_; });
}

void Shard::drain_until_empty() {
  for (;;) {
    Run run;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.empty()) {
        drain_active_ = false;
        drained_.notify_all();
        return;
      }
      run = std::move(queue_.front());
      queue_.pop_front();
      queued_events_ -= run.events.size();
    }
    // Space frees at dequeue (not at apply), matching queued_events_.
    space_available_.notify_all();

    // Apply in chunks so synchronous reads interleave with a busy drain.
    const std::size_t count = run.events.size();
    for (std::size_t begin = 0; begin < count; begin += kDrainChunk) {
      const std::size_t end = std::min(count, begin + kDrainChunk);
      VMTHERM_SPAN_ARG("serve.drain_chunk", "serve", "events", end - begin);
      // Timing-only metric; drain results do not depend on the clock.
      const auto start =
          std::chrono::steady_clock::now();  // vmtherm-lint: allow(det-clock)
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        // Pass 1: ψ for the chunk's config updates. Observe-only runs
        // carry no configs and skip it.
        const std::size_t resolved =
            run.configs.empty() ? 0 : resolve_chunk(run.events, begin, end);
        // Pass 2: every event in queue order; `next` walks the resolved
        // config events, which are in the same order.
        std::size_t next = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const double* psi = nullptr;
          if (next < resolved && psi_batch_.events[next] == i) {
            psi = &psi_batch_.psi[next++];
          }
          apply(run.events[i], psi);
        }
        publish_tally();
      }
      const auto elapsed =
          std::chrono::steady_clock::now() -  // vmtherm-lint: allow(det-clock)
          start;
      metrics_.drain_batch_us->record(
          std::chrono::duration<double, std::micro>(elapsed).count());
    }
  }
}

void Shard::apply(const QueuedEvent& event, const double* psi) {
  // Unknown hosts and non-finite times or readings are rejected before any
  // host state is touched: one bad reading must not poison γ, the
  // residual monitor or the snapshot.
  if (!accepts(event)) {
    ++tally_.apply_errors;
    return;
  }
  HostState& host = hosts_[event.slot];
  try {
    switch (event.type) {
      case TelemetryEvent::Type::kObserve: {
        VMTHERM_SPAN("serve.observe", "serve");
        // An observation that goes back in time is rejected before it is
        // scored, so it moves neither the residual monitor nor the
        // histogram.
        if (event.time_s < host.tracker.last_observed_s()) {
          ++tally_.apply_errors;
          break;
        }
        // Prequential residual: score the current calibrated prediction
        // before the observation updates it. The sign is the paper's Eq. 5
        // dif, measured - predicted, so the CUSUM's positive sum (and
        // serve-stats' drift_positive) grows while readings run above the
        // forecast. Past t_break the residual is the ψ_stable stage's.
        const double predicted = host.tracker.predict_at(event.time_s);
        const double residual = event.measured_c - predicted;
        ++tally_.abs_error_buckets[metrics_.calibration_abs_error_c->bucket_of(
            std::abs(residual))];
        if (host.residuals.observe(residual,
                                   host.tracker.settled_at(event.time_s),
                                   options_->drift_slack_c,
                                   options_->drift_threshold_c)) {
          ++tally_.drift_signals;
        }
        // Eq. 6 calibration update (covered by the serve.observe span —
        // one span per applied event keeps disabled-tracer cost < 1% of
        // the serving budget; the `TraceSmoke` ctest enforces this).
        host.tracker.observe(event.time_s, event.measured_c);
        ++tally_.observe_applied;
        break;
      }
      case TelemetryEvent::Type::kUpdateConfig: {
        VMTHERM_SPAN("serve.update_config", "serve");
        if (psi == nullptr) {
          // No payload or an invalid config: resolve_chunk skipped it.
          ++tally_.apply_errors;
          break;
        }
        // A throwing retarget leaves the tracker unchanged; the config is
        // copied after it so a rejected update leaves both as they were.
        host.tracker.retarget(event.time_s, event.measured_c, *psi);
        host.config = *event.config;
        ++tally_.config_applied;
        break;
      }
    }
  } catch (const Error&) {
    // Async path: producers are long gone, so malformed events (time going
    // backwards, invalid configs) are counted, never thrown.
    ++tally_.apply_errors;
  }
}

double Shard::forecast(std::uint32_t slot, double gap_s) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  detail::require(slot < hosts_.size() && hosts_[slot].live,
                  "shard slot is not live");
  return hosts_[slot].tracker.predict_ahead(gap_s);
}

mgmt::MonitoredConfig Shard::config_of(std::uint32_t slot) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  detail::require(slot < hosts_.size() && hosts_[slot].live,
                  "shard slot is not live");
  return hosts_[slot].config;
}

double Shard::calibration_of(std::uint32_t slot) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  detail::require(slot < hosts_.size() && hosts_[slot].live,
                  "shard slot is not live");
  return hosts_[slot].tracker.calibration();
}

std::vector<mgmt::HotspotRisk> Shard::ranked_risks(double horizon_s,
                                                   double threshold_c) const {
  std::vector<mgmt::HotspotRisk> rows;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    rows.reserve(live_count_);
    for (const HostState& host : hosts_) {
      if (!host.live) continue;
      const double forecast = host.tracker.predict_ahead(horizon_s);
      rows.push_back({host.host_id, forecast, forecast >= threshold_c});
    }
  }
  // Ranked outside the lock, on compact {forecast, row} keys.
  std::vector<std::pair<double, std::size_t>> keys;
  keys.reserve(rows.size());
  for (const auto& row : rows) keys.emplace_back(row.forecast_c, keys.size());
  std::sort(keys.begin(), keys.end(), [&rows](const auto& a, const auto& b) {
    return mgmt::scan_before(a.first, rows[a.second].host_id, b.first,
                             rows[b.second].host_id);
  });
  std::vector<mgmt::HotspotRisk> ranked;
  ranked.reserve(rows.size());
  for (const auto& key : keys) ranked.push_back(std::move(rows[key.second]));
  return ranked;
}

void Shard::append_snapshots(std::vector<HostSnapshot>& out) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  for (const HostState& host : hosts_) {
    if (!host.live) continue;
    HostSnapshot snapshot;
    snapshot.host_id = host.host_id;
    snapshot.config = host.config;
    snapshot.tracker = host.tracker.export_state();
    snapshot.residuals = host.residuals;
    out.push_back(std::move(snapshot));
  }
}

}  // namespace vmtherm::serve
