// fleet_advisor — the thermal-management control loop, end to end:
//
//   1. train the stable-temperature model (offline);
//   2. scan the fleet's predicted stable temperatures for hotspots;
//   3. plan migrations that relieve them (MigrationPlanner);
//   4. raise the CRAC setpoint as far as predictions allow and account the
//      cooling-energy saving (CoolingModel / plan_setpoint).
//
// This is the "thermal management ... minimizing cooling power draw"
// decision loop the paper's introduction motivates, driven entirely by the
// paper's predictor.

#include <iostream>

#include "core/evaluator.h"
#include "mgmt/cooling.h"
#include "mgmt/planner.h"
#include "util/table.h"

namespace {

using namespace vmtherm;

mgmt::PlacedVm vm(const std::string& id, sim::TaskType task, int vcpus,
                  double mem) {
  mgmt::PlacedVm v;
  v.id = id;
  v.config.vcpus = vcpus;
  v.config.memory_gb = mem;
  v.config.task = task;
  return v;
}

std::vector<mgmt::HostPlacement> initial_fleet() {
  using sim::TaskType;
  std::vector<mgmt::HostPlacement> fleet(4);

  fleet[0].server = sim::make_server_spec("medium");
  fleet[0].fans = 4;
  fleet[0].vms = {vm("db-0", TaskType::kMemoryBound, 4, 16.0),
                  vm("ana-0", TaskType::kCpuBurn, 8, 8.0),
                  vm("ana-1", TaskType::kCpuBurn, 8, 8.0),
                  vm("web-0", TaskType::kWebServer, 4, 8.0)};

  fleet[1].server = sim::make_server_spec("medium");
  fleet[1].fans = 4;
  fleet[1].vms = {vm("web-1", TaskType::kWebServer, 2, 4.0),
                  vm("idle-0", TaskType::kIdle, 2, 4.0)};

  fleet[2].server = sim::make_server_spec("small");
  fleet[2].fans = 4;
  fleet[2].vms = {vm("batch-0", TaskType::kBatch, 4, 8.0)};

  fleet[3].server = sim::make_server_spec("large");
  fleet[3].fans = 6;
  fleet[3].vms = {vm("web-2", TaskType::kWebServer, 4, 8.0),
                  vm("idle-1", TaskType::kIdle, 2, 4.0)};
  return fleet;
}

}  // namespace

int main() {
  using namespace vmtherm;
  std::cout << "vmtherm fleet advisor\n=====================\n\n";
  const double env_c = 23.0;
  const double target_c = 58.0;

  // 1. Offline training.
  std::cout << "Training stable-temperature model on 200 experiments...\n\n";
  sim::ScenarioRanges ranges;
  ranges.duration_s = 1500.0;
  ranges.sample_interval_s = 10.0;
  const auto records = core::generate_corpus(ranges, 200, /*seed=*/81);
  core::StableTrainOptions options;
  ml::SvrParams params;
  params.kernel.gamma = 1.0 / 32;
  params.c = 512.0;
  params.epsilon = 0.05;
  options.fixed_params = params;
  const auto predictor =
      core::StableTemperaturePredictor::train(records, options);

  // 2. Fleet scan.
  auto fleet = initial_fleet();
  Table scan({"host", "server", "vms", "predicted_stable_C",
              "over_target"});
  for (std::size_t h = 0; h < fleet.size(); ++h) {
    const double predicted = predictor.predict(
        fleet[h].server, fleet[h].configs(), fleet[h].fans, env_c);
    scan.add_row({std::to_string(h), fleet[h].server.name,
                  Table::num(static_cast<long long>(fleet[h].vms.size())),
                  Table::num(predicted, 1),
                  predicted > target_c ? "YES" : ""});
  }
  std::cout << "Fleet scan (target " << target_c << " C):\n\n";
  scan.print(std::cout);

  // 3. Migration plan.
  mgmt::PlannerOptions planner_options;
  planner_options.target_c = target_c;
  planner_options.env_temp_c = env_c;
  const auto plan = mgmt::plan_migrations(predictor, fleet, planner_options);

  std::cout << "\nMigration plan (" << plan.moves.size() << " move(s), target "
            << (plan.target_met ? "met" : "NOT met") << "):\n\n";
  if (plan.moves.empty()) {
    std::cout << "  (no moves needed)\n";
  } else {
    Table moves({"vm", "from", "to", "source_after_C", "dest_after_C"});
    for (const auto& m : plan.moves) {
      moves.add_row({m.vm_id, std::to_string(m.from_host),
                     std::to_string(m.to_host),
                     Table::num(m.source_predicted_after_c, 1),
                     Table::num(m.dest_predicted_after_c, 1)});
    }
    moves.print(std::cout);
  }

  // Apply the plan to the fleet model.
  for (const auto& m : plan.moves) {
    auto& from = fleet[m.from_host].vms;
    for (auto it = from.begin(); it != from.end(); ++it) {
      if (it->id == m.vm_id) {
        fleet[m.to_host].vms.push_back(*it);
        from.erase(it);
        break;
      }
    }
  }

  // 4. Predictive CRAC setpoint on the balanced fleet.
  std::vector<mgmt::PlannedHost> planned;
  for (const auto& host : fleet) {
    mgmt::PlannedHost p;
    p.server = host.server;
    p.fans = host.fans;
    p.vms = host.configs();
    p.it_watts = 150.0 + 40.0 * static_cast<double>(host.vms.size());
    planned.push_back(std::move(p));
  }
  const auto setpoint = mgmt::plan_setpoint(predictor, planned,
                                            /*baseline=*/18.0,
                                            /*max=*/30.0,
                                            /*cpu_limit=*/target_c + 10.0,
                                            /*margin=*/2.0);

  std::cout << "\nPredictive CRAC setpoint (after rebalancing):\n\n";
  Table sp({"metric", "value"});
  sp.add_row({"baseline supply", Table::num(setpoint.baseline_supply_c, 1) +
                                     " C"});
  sp.add_row({"recommended supply",
              Table::num(setpoint.recommended_supply_c, 1) + " C"});
  sp.add_row({"hottest host prediction",
              Table::num(setpoint.hottest_predicted_c, 1) + " C"});
  sp.add_row({"cooling energy saving",
              Table::num(100.0 * setpoint.cooling_saving_fraction, 1) + " %"});
  sp.print(std::cout);

  double it_watts = 0.0;
  for (const auto& p : planned) it_watts += p.it_watts;
  const double before = mgmt::CoolingModel::cooling_power_watts(
      it_watts, setpoint.baseline_supply_c);
  const double after = mgmt::CoolingModel::cooling_power_watts(
      it_watts, setpoint.recommended_supply_c);
  std::cout << "\n  fleet IT load " << Table::num(it_watts / 1000.0, 2)
            << " kW: cooling " << Table::num(before / 1000.0, 2) << " kW -> "
            << Table::num(after / 1000.0, 2)
            << " kW at the recommended setpoint.\n"
            << "\n  The whole loop ran on *predictions*: no host had to\n"
            << "  overheat first.\n";
  return 0;
}
