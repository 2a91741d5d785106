// vmtherm/serve/snapshot.h
//
// Versioned text snapshot of a FleetEngine: the trained stable model
// (embedded ml/model_io sections), the dynamic/drift configuration, every
// live host's exact tracker and residual monitor, and the deterministic
// metric counters. Doubles are written with 17 significant digits, so a
// save → load → save round-trip is byte-identical and a restored engine
// continues bitwise-exactly where the saved one stopped.
//
// Format ("vmtherm_fleet v3"):
//   vmtherm_fleet v3
//   dynamic <lr> <update_s> <t_break_s> <curvature> <calib> <retain>
//   drift <slack_c> <threshold_c>
//   <ml::save_scaler section>
//   <ml::save_svr section>
//   hosts <n>
//     host <id> fans <f> env <e> vms <k>
//     vm <task> <vcpus> <memory_gb>                       (x k)
//     server <name> <cores> <ghz> <mem_gb> <fan_slots>
//            <idle_w> <max_cpu_w> <cpu_exp> <mem_w_per_gb>
//            <c_die> <c_sink> <r_ds> <r_sa> <ref_fans> <fan_exp>
//     tracker <started> <t0> <gamma> <last_upd> <last_obs> <phi0> <psi>
//     residuals <pos> <neg> <drifted> <count>
//               <w> <sum> <sum_sq> <sum_abs>                (transient)
//               <w> <sum> <sum_sq> <sum_abs>                (stable)
//   metrics <n>
//     counter <name> <value>
//     hist <name> <n_bounds> <bounds...> <counts...>      (counts: n_bounds+1)
//   end
//
// The residuals line is core::ResidualMonitor: CUSUM state, then the
// decayed residual sums of the transient and the stable stage. The loader
// rejects negative CUSUM sums, weights, square or absolute sums and
// non-finite values.
//
// Older files still load. v2 carries `cusum <pos> <neg> <drifted>
// <count>` in place of the residuals line; its stage sums start empty. v1,
// written before v2 dropped the lifetime residual statistic, is v2 with
// one more host line after `tracker`,
//     resid <n> <mean> <m2> <min> <max>
// which the loader reads and discards.
//
// Host ids, server names and metric names must be whitespace-free (enforced
// at save time; register_host already guarantees it for host ids).

#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "serve/engine.h"

namespace vmtherm::serve {

/// Writes the engine's full logical state. The engine is flushed first so
/// the snapshot reflects every event ingested before the call.
void save_fleet(std::ostream& os, FleetEngine& engine);

/// Reconstructs an engine from a snapshot. Serving knobs (shards, threads,
/// queue capacity, backpressure, drain mode) come from `options`; the
/// dynamic and drift parameters are overridden from the file so restored
/// trackers behave identically. Host handles are reassigned (hosts are
/// imported in the file's sorted order) — re-resolve via handle_of().
/// Throws IoError on malformed input.
std::unique_ptr<FleetEngine> load_fleet(std::istream& is,
                                        FleetEngineOptions options = {});

/// File-path conveniences (throw IoError if the file cannot be
/// opened/created).
void save_fleet_file(const std::string& path, FleetEngine& engine);
std::unique_ptr<FleetEngine> load_fleet_file(const std::string& path,
                                             FleetEngineOptions options = {});

}  // namespace vmtherm::serve
