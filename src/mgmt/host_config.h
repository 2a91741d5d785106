// vmtherm/mgmt/host_config.h
//
// Plain data a per-host tracker exchanges with its callers: a host's
// logical configuration (the running condition the stable model scores)
// and one hotspot-risk row of a fleet scan. Header-only and built on sim
// types alone, so the serving layer can use it without linking mgmt.

#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "sim/server.h"
#include "sim/vm.h"

namespace vmtherm::mgmt {

/// A host's logical configuration: server, active fans, placed VMs and
/// room temperature.
struct MonitoredConfig {
  sim::ServerSpec server;
  int fans = 4;
  std::vector<sim::VmConfig> vms;
  double env_temp_c = 23.0;

  /// Throws ConfigError unless the server and every VM are valid, the fan
  /// count is within 1..server.fan_slots and the room temperature is
  /// finite.
  void validate() const {
    server.validate();
    for (const sim::VmConfig& vm : vms) vm.validate();
    detail::require(fans >= 1 && fans <= server.fan_slots,
                    "host fans out of range");
    detail::require(std::isfinite(env_temp_c),
                    "host env temperature must be finite");
  }
};

/// One row of a fleet hotspot scan.
struct HotspotRisk {
  std::string host_id;
  double forecast_c = 0.0;   ///< predicted temperature at now + horizon
  bool at_risk = false;      ///< forecast >= threshold
};

/// The order of a fleet hotspot scan, total even when a forecast is NaN (a
/// NaN reading poisons γ): numeric forecasts hottest first, NaN after all
/// of them, host id ascending within each group.
inline bool scan_before(double a_c, const std::string& a_id, double b_c,
                        const std::string& b_id) noexcept {
  if (std::isnan(a_c) != std::isnan(b_c)) return std::isnan(b_c);
  if (a_c != b_c && !std::isnan(a_c)) return a_c > b_c;
  return a_id < b_id;
}

}  // namespace vmtherm::mgmt
