#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/trace.h"
#include "util/hash.h"

namespace vmtherm::serve {

namespace {

bool has_whitespace(const std::string& s) {
  return s.find_first_of(" \t\r\n") != std::string::npos;
}

/// Microsecond latency buckets: 16 us .. ~1 s, powers of 4.
std::vector<double> latency_bounds_us() {
  return {16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0,
          1048576.0};
}

/// Calibration |error| buckets in deg C.
std::vector<double> calibration_bounds_c() {
  return {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
}

}  // namespace

FleetEngine::FleetEngine(core::StableTemperaturePredictor predictor,
                         FleetEngineOptions options)
    : predictor_(std::move(predictor)),
      options_(options),
      pool_(options.drain == DrainMode::kManual
                ? 0
                : util::ThreadPool::resolve_thread_count(options.threads)) {
  options_.validate();

  shard_metrics_.ingested = &metrics_.counter("ingest.events");
  shard_metrics_.dropped = &metrics_.counter("ingest.dropped");
  shard_metrics_.observe_applied = &metrics_.counter("apply.observe");
  shard_metrics_.config_applied = &metrics_.counter("apply.config_update");
  shard_metrics_.apply_errors = &metrics_.counter("apply.errors");
  shard_metrics_.drift_signals = &metrics_.counter("drift.signals");
  shard_metrics_.queue_high_water =
      &metrics_.gauge("queue.high_water", obs::MetricKind::kTiming);
  // Timing-class on purpose: per-shard caching makes the hit/miss split a
  // function of host->shard placement, so the counts legitimately differ
  // across shard topologies while every forecast stays bitwise-identical.
  shard_metrics_.psi_cache_hits =
      &metrics_.counter("psi_cache.hits", obs::MetricKind::kTiming);
  shard_metrics_.psi_cache_misses =
      &metrics_.counter("psi_cache.misses", obs::MetricKind::kTiming);
  shard_metrics_.calibration_abs_error_c =
      &metrics_.histogram("calibration.abs_error_c", calibration_bounds_c());
  shard_metrics_.drain_batch_us =
      &metrics_.histogram("latency.drain_batch_us", latency_bounds_us(),
                          obs::MetricKind::kTiming);

  batches_ = &metrics_.counter("ingest.batches");
  forecasts_ = &metrics_.counter("forecast.requests");
  scans_ = &metrics_.counter("hotspot.scans");
  hosts_gauge_ = &metrics_.gauge("fleet.hosts");
  forecast_batch_us_ =
      &metrics_.histogram("latency.forecast_batch_us", latency_bounds_us(),
                          obs::MetricKind::kTiming);

  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(&predictor_, &options_, shard_metrics_));
  }
}

FleetEngine::~FleetEngine() {
  // Apply everything still queued so no producer's events vanish; the pool
  // then joins its workers in its own destructor.
  flush();
}

std::size_t FleetEngine::shard_of(const std::string& host_id) const noexcept {
  return util::fnv1a64(host_id) % shards_.size();
}

HostHandle FleetEngine::register_host(const std::string& host_id,
                                      mgmt::MonitoredConfig config, double t0,
                                      double measured_c) {
  detail::require(!host_id.empty(), "host id must be non-empty");
  detail::require(!has_whitespace(host_id),
                  "host id must not contain whitespace");
  detail::require_data(std::isfinite(t0) && std::isfinite(measured_c),
                       "registration time and reading must be finite");
  const auto shard = static_cast<std::uint32_t>(shard_of(host_id));
  std::unique_lock<std::shared_mutex> lock(routes_mutex_);
  detail::require(names_.find(host_id) == names_.end(),
                  "host already registered");
  const std::uint32_t slot =
      shards_[shard]->add_host(host_id, std::move(config), t0, measured_c);
  const auto handle = static_cast<HostHandle>(routes_.size());
  routes_.push_back(Route{shard, slot, true});
  names_.emplace(host_id, handle);
  hosts_gauge_->add(1);
  return handle;
}

HostHandle FleetEngine::import_host(const HostSnapshot& snapshot) {
  detail::require(!snapshot.host_id.empty(), "host id must be non-empty");
  detail::require(!has_whitespace(snapshot.host_id),
                  "host id must not contain whitespace");
  const auto shard = static_cast<std::uint32_t>(shard_of(snapshot.host_id));
  std::unique_lock<std::shared_mutex> lock(routes_mutex_);
  detail::require(names_.find(snapshot.host_id) == names_.end(),
                  "host already registered");
  const std::uint32_t slot = shards_[shard]->import_host(snapshot);
  const auto handle = static_cast<HostHandle>(routes_.size());
  routes_.push_back(Route{shard, slot, true});
  names_.emplace(snapshot.host_id, handle);
  hosts_gauge_->add(1);
  return handle;
}

void FleetEngine::unregister_host(HostHandle handle) {
  std::unique_lock<std::shared_mutex> lock(routes_mutex_);
  detail::require(handle < routes_.size() && routes_[handle].live,
                  "unknown host handle");
  Route& route = routes_[handle];
  names_.erase(shards_[route.shard]->remove_host(route.slot));
  route.live = false;
  hosts_gauge_->add(-1);
}

HostHandle FleetEngine::handle_of(const std::string& host_id) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  const auto it = names_.find(host_id);
  return it == names_.end() ? kInvalidHostHandle : it->second;
}

bool FleetEngine::has_host(const std::string& host_id) const {
  return handle_of(host_id) != kInvalidHostHandle;
}

std::size_t FleetEngine::host_count() const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  return names_.size();
}

FleetEngine::Route FleetEngine::route_of(HostHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(routes_mutex_);
  detail::require(handle < routes_.size() && routes_[handle].live,
                  "unknown host handle");
  return routes_[handle];
}

void FleetEngine::ingest(TelemetryEvent event) {
  std::vector<TelemetryEvent> one;
  one.push_back(std::move(event));
  ingest_batch(std::move(one));
}

void FleetEngine::ingest_batch(std::vector<TelemetryEvent> events) {
  if (events.empty()) return;
  VMTHERM_SPAN_ARG("serve.ingest_batch", "serve", "events", events.size());
  batches_->add(1);
  util::ThreadPool* drain_pool =
      options_.drain == DrainMode::kAuto ? &pool_ : nullptr;

  // Group into per-shard runs (batch order preserved within each shard),
  // resolving handles to shard slots under one shared lock. Nothing is
  // enqueued until the whole batch groups cleanly, so a bad handle throws
  // without poisoning any shard. Each run reserves for a balanced split up
  // front — per-event growth reallocations would otherwise dominate the
  // producer-visible ingest cost at high shard counts, and the FNV hash
  // keeps real fleets close to balanced (a skewed batch merely falls back
  // to amortized growth).
  std::vector<Shard::Run> runs(shards_.size());
  const std::size_t balanced = events.size() / shards_.size() + 1;
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    // Local copies so the per-event stores can't force member reloads
    // (the optimizer must otherwise assume runs/routes alias).
    const Route* const routes = routes_.data();
    const std::size_t route_count = routes_.size();
    Shard::Run* const run_data = runs.data();
    for (TelemetryEvent& event : events) {
      detail::require(event.host < route_count && routes[event.host].live,
                      "unknown host handle in batch");
      const Route& route = routes[event.host];
      Shard::Run& run = run_data[route.shard];
      if (run.events.capacity() == 0) run.events.reserve(balanced);
      const mgmt::MonitoredConfig* config = nullptr;
      if (event.config != nullptr) {  // rare: config updates only
        run.configs.push_back(std::move(event.config));
        config = run.configs.back().get();
      }
      run.events.push_back(Shard::QueuedEvent{
          event.type, route.slot, event.time_s, event.measured_c, config});
    }
  }
  for (std::size_t s = 0; s < runs.size(); ++s) {
    if (runs[s].events.empty()) continue;
    shards_[s]->enqueue_run(std::move(runs[s]), drain_pool);
  }
}

void FleetEngine::flush() {
  VMTHERM_SPAN("serve.flush", "serve");
  const bool inline_drain = options_.drain == DrainMode::kManual;
  for (const auto& shard : shards_) shard->flush(inline_drain);
}

double FleetEngine::forecast(HostHandle handle, double gap_s) const {
  const Route route = route_of(handle);
  forecasts_->add(1);
  return shards_[route.shard]->forecast(route.slot, gap_s);
}

std::vector<double> FleetEngine::forecast_batch(
    const std::vector<ForecastRequest>& requests) const {
  std::vector<double> results(requests.size(), 0.0);
  if (requests.empty()) return results;
  VMTHERM_SPAN_ARG("serve.forecast_batch", "serve", "requests",
                   requests.size());
  // Timing-only metric; never observable in forecast output.
  const auto start =
      std::chrono::steady_clock::now();  // vmtherm-lint: allow(det-clock)

  // Group request (index, slot) pairs per shard, then evaluate shard
  // groups in parallel; each result lands in its pre-sized slot keyed by
  // request index, so output order never depends on scheduling.
  struct Item {
    std::size_t index;
    std::uint32_t slot;
  };
  std::vector<std::vector<Item>> groups(shards_.size());
  {
    std::shared_lock<std::shared_mutex> lock(routes_mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const HostHandle handle = requests[i].host;
      detail::require(handle < routes_.size() && routes_[handle].live,
                      "unknown host handle in forecast batch");
      groups[routes_[handle].shard].push_back(Item{i, routes_[handle].slot});
    }
  }
  pool_.parallel_for(0, shards_.size(), [&](std::size_t s) {
    for (const Item& item : groups[s]) {
      results[item.index] =
          shards_[s]->forecast(item.slot, requests[item.index].gap_s);
    }
  });
  forecasts_->add(requests.size());

  const auto elapsed =
      std::chrono::steady_clock::now() - start;  // vmtherm-lint: allow(det-clock)
  forecast_batch_us_->record(
      std::chrono::duration<double, std::micro>(elapsed).count());
  return results;
}

std::vector<mgmt::HotspotRisk> FleetEngine::hotspot_scan(
    double horizon_s, double threshold_c) const {
  VMTHERM_SPAN("serve.hotspot_scan", "serve");
  scans_->add(1);
  std::vector<std::vector<mgmt::HotspotRisk>> per_shard(shards_.size());
  pool_.parallel_for(0, shards_.size(), [&](std::size_t s) {
    per_shard[s] = shards_[s]->ranked_risks(horizon_s, threshold_c);
  });

  // k-way merge of the ranked lists: a heap of the shards with rows left,
  // the shard whose next row ranks first on top.
  std::vector<std::size_t> next(per_shard.size(), 0), heap;
  std::size_t total = 0;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    total += per_shard[s].size();
    if (!per_shard[s].empty()) heap.push_back(s);
  }
  const auto later = [&](std::size_t a, std::size_t b) {
    const mgmt::HotspotRisk& x = per_shard[a][next[a]];
    const mgmt::HotspotRisk& y = per_shard[b][next[b]];
    return mgmt::scan_before(y.forecast_c, y.host_id, x.forecast_c, x.host_id);
  };
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<mgmt::HotspotRisk> risks;
  risks.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t s = heap.back();
    risks.push_back(std::move(per_shard[s][next[s]++]));
    if (next[s] < per_shard[s].size()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return risks;
}

mgmt::MonitoredConfig FleetEngine::config_of(HostHandle handle) const {
  const Route route = route_of(handle);
  return shards_[route.shard]->config_of(route.slot);
}

double FleetEngine::calibration_of(HostHandle handle) const {
  const Route route = route_of(handle);
  return shards_[route.shard]->calibration_of(route.slot);
}

std::vector<HostSnapshot> FleetEngine::export_hosts() const {
  std::vector<HostSnapshot> hosts;
  for (const auto& shard : shards_) shard->append_snapshots(hosts);
  std::sort(hosts.begin(), hosts.end(),
            [](const HostSnapshot& a, const HostSnapshot& b) {
              return a.host_id < b.host_id;
            });
  return hosts;
}

FleetAccuracyStats FleetEngine::accuracy_report() const {
  std::vector<HostAccuracyStats> rows;
  for (HostSnapshot& host : export_hosts()) {
    rows.push_back(
        {std::move(host.host_id), host.tracker.gamma, host.residuals});
  }
  FleetAccuracyStats fleet = aggregate_fleet(std::move(rows));
  // Registry pointers the engine already holds; the const registry has no
  // name lookup by design.
  fleet.psi_cache_hits = shard_metrics_.psi_cache_hits->value();
  fleet.psi_cache_misses = shard_metrics_.psi_cache_misses->value();
  fleet.queue_high_water = shard_metrics_.queue_high_water->value();
  return fleet;
}

FleetAccuracyStats aggregate_fleet(std::vector<HostAccuracyStats> hosts) {
  std::sort(hosts.begin(), hosts.end(),
            [](const HostAccuracyStats& a, const HostAccuracyStats& b) {
              return a.host_id < b.host_id;
            });
  FleetAccuracyStats fleet;
  for (const HostAccuracyStats& host : hosts) {
    fleet.observations += host.residuals.count;
    fleet.transient += host.residuals.transient;
    fleet.stable += host.residuals.stable;
    if (host.residuals.drifted) ++fleet.hosts_drifted;
  }
  fleet.hosts = std::move(hosts);
  return fleet;
}

}  // namespace vmtherm::serve
