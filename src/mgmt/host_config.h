// vmtherm/mgmt/host_config.h
//
// Plain data a per-host tracker exchanges with its callers: a host's
// logical configuration (the running condition the stable model scores)
// and one hotspot-risk row of a fleet scan. Header-only and built on sim
// types alone, so the serving layer can use it without linking mgmt.
//
// Running conditions compare BITWISE (condition_hash, same_condition): two
// configs are the same condition only if every field has the same bits,
// the discipline of the ψ cache (serve/psi_cache.h). Hosts that share a
// condition can then share one immutable config.

#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/server.h"
#include "sim/vm.h"
#include "util/hash.h"

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

/// Every fixed-size field of a config as 64-bit words: doubles by their
/// bit patterns, integers widened. The server name and the VM list are
/// compared and hashed beside it.
inline std::array<std::uint64_t, 16> condition_words(
    const MonitoredConfig& c) noexcept {
  const sim::ServerSpec& s = c.server;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto word = [](int v) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  };
  return {word(s.physical_cores),
          bits(s.core_ghz),
          bits(s.memory_gb),
          word(s.fan_slots),
          bits(s.power.idle_watts),
          bits(s.power.max_cpu_watts),
          bits(s.power.cpu_exponent),
          bits(s.power.memory_watts_per_gb),
          bits(s.thermal.die_capacitance_j_per_k),
          bits(s.thermal.sink_capacitance_j_per_k),
          bits(s.thermal.die_to_sink_resistance),
          bits(s.thermal.sink_to_ambient_resistance),
          word(s.thermal.reference_fans),
          bits(s.thermal.fan_exponent),
          word(c.fans),
          bits(c.env_temp_c)};
}

/// Hash of every field of a running condition, over the fields' bits.
/// Mixed a word at a time (one multiply per word), since hosts are
/// interned on registration and snapshot writes hash every host.
inline std::uint64_t condition_hash(const MonitoredConfig& c) noexcept {
  std::uint64_t h = util::fnv1a64(c.server.name);
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
  };
  for (const std::uint64_t w : condition_words(c)) mix(w);
  mix(c.vms.size());
  for (const sim::VmConfig& vm : c.vms) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(vm.vcpus)) << 8 |
        static_cast<std::uint64_t>(vm.task));
    mix(std::bit_cast<std::uint64_t>(vm.memory_gb));
  }
  return h;
}

/// Whether two configs are the same running condition: every field
/// bitwise-equal (so -0.0 and 0.0 differ and a NaN equals itself).
inline bool same_condition(const MonitoredConfig& a,
                           const MonitoredConfig& b) noexcept {
  if (a.server.name != b.server.name || a.vms.size() != b.vms.size() ||
      condition_words(a) != condition_words(b)) {
    return false;
  }
  for (std::size_t i = 0; i < a.vms.size(); ++i) {
    const sim::VmConfig& x = a.vms[i];
    const sim::VmConfig& y = b.vms[i];
    if (x.vcpus != y.vcpus || x.task != y.task ||
        std::bit_cast<std::uint64_t>(x.memory_gb) !=
            std::bit_cast<std::uint64_t>(y.memory_gb)) {
      return false;
    }
  }
  return true;
}

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
