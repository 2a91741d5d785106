// vmtherm/serve/snapshot.h
//
// Versioned text snapshot of a FleetEngine: the trained stable model
// (embedded ml/model_io sections), the dynamic/drift configuration, the
// fleet's distinct running conditions, every live host's exact tracker and
// residual monitor, and the deterministic metric counters. Numbers are
// written by std::to_chars (doubles in their shortest round-trip form) and
// read by std::from_chars, so a save → load → save round-trip is
// byte-identical and a restored engine continues bitwise-exactly where the
// saved one stopped. The file is the same at any shard count.
//
// Format ("vmtherm_fleet v4"), one record per line:
//   vmtherm_fleet v4
//   dynamic <lr> <update_s> <t_break_s> <curvature> <calib> <retain>
//   drift <slack_c> <threshold_c>
//   <ml::save_scaler section>
//   <ml::save_svr section>
//   conditions <m>
//     <server> <fans> <env> <k> (<task> <vcpus> <memory_gb>) x k     (x m)
//   hosts <n>
//     <id> <condition> <tracker> <residuals>                        (x n)
//   metrics <n>
//     counter <name> <value>
//     hist <name> <n_bounds> <bounds...> <counts...>      (counts: n_bounds+1)
//   end
//
// where
//   <server>    = <name> <cores> <ghz> <mem_gb> <fan_slots>
//                 <idle_w> <max_cpu_w> <cpu_exp> <mem_w_per_gb>
//                 <c_die> <c_sink> <r_ds> <r_sa> <ref_fans> <fan_exp>
//   <tracker>   = <started> <t0> <gamma> <last_upd> <last_obs> <phi0> <psi>
//   <residuals> = <pos> <neg> <drifted> <count>
//                 <w> <sum> <sum_sq> <sum_abs>                  (transient)
//                 <w> <sum> <sum_sq> <sum_abs>                  (stable)
//
// Conditions are the hosts' configs, bitwise-distinct and numbered in
// first use along the hosts' id order; a host row names its condition by
// that number. The residuals are core::ResidualMonitor: CUSUM state, then
// the decayed residual sums of the transient and the stable stage.
//
// Every double must be finite. The writer refuses a host the loader would
// reject (a non-finite tracker field, or a residual state observe() cannot
// produce) with IoError naming the host; the loader rejects those, negative
// CUSUM sums, weights, square or absolute sums, a condition number out of
// range and an implausible count.
//
// Saving always writes v4. v1 to v3 files still load; they carry each
// host's config inline, one block of lines per host:
//   hosts <n>
//     host <id> fans <f> env <e> vms <k>
//     vm <task> <vcpus> <memory_gb>                       (x k)
//     server <server>
//     tracker <tracker>
//     residuals <residuals>                               (v3)
// v2 carries `cusum <pos> <neg> <drifted> <count>` in place of the
// residuals line; its stage sums start empty. v1, written before v2
// dropped the lifetime residual statistic, is v2 with one more host line
// after `tracker`,
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
