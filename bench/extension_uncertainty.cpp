// Extension G: serving-layer safety features beyond the paper —
// (1) conformal prediction intervals around the SVR's point predictions
//     (calibrated coverage for thermal-safety decisions), and
// (2) CUSUM drift detection on residuals (when does the deployed model
//     need retraining after the datacenter changes under it?).

#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/drift.h"
#include "core/uncertainty.h"
#include "util/stats.h"

int main() {
  using namespace vmtherm;
  bench::print_bench_header(
      "Extension G - prediction intervals and drift detection",
      "conformal intervals reach nominal coverage; CUSUM flags a changed "
      "testbed within tens of records");

  const auto ranges = bench::standard_ranges();
  std::cout << "\nTraining + calibrating...\n";
  const auto train_records =
      core::generate_corpus(ranges, bench::kTrainRecords, /*seed=*/42);
  const auto predictor = bench::train_standard_predictor(train_records);

  const auto calibration = core::generate_corpus(ranges, 80, /*seed=*/9001);
  const auto test = core::generate_corpus(ranges, 120, /*seed=*/9002);
  const core::ConformalPredictor conformal(predictor, calibration);

  print_section(std::cout, "Conformal interval coverage (120 fresh cases)");
  Table coverage({"nominal coverage", "interval half-width_C",
                  "empirical coverage"});
  for (double alpha : {0.5, 0.2, 0.1, 0.05}) {
    std::size_t covered = 0;
    for (const auto& r : test) {
      if (conformal.interval(r, alpha).contains(r.stable_temp_c)) ++covered;
    }
    coverage.add_row(
        {Table::num(100.0 * (1.0 - alpha), 0) + " %",
         Table::num(conformal.quantile_c(alpha), 2),
         Table::num(100.0 * static_cast<double>(covered) /
                        static_cast<double>(test.size()),
                    1) +
             " %"});
  }
  coverage.print(std::cout, 2);

  // ---- drift: the testbed changes under the model -----------------------
  print_section(std::cout,
                "Residual drift after a fleet change (CUSUM, k=s/2, h=10s)");

  // Residual scale from calibration. Residuals are the Eq. 5 dif,
  // measured - predicted, as everywhere a ResidualMonitor is fed.
  std::vector<double> cal_residuals;
  for (const auto& r : calibration) {
    cal_residuals.push_back(r.stable_temp_c - predictor.predict(r));
  }
  const double sigma = stddev(cal_residuals);

  const double slack = sigma / 2.0;
  const double threshold = 10.0 * sigma;
  const auto observe = [&](core::ResidualMonitor& monitor,
                           const core::Record& r) {
    return monitor.observe(r.stable_temp_c - predictor.predict(r),
                           /*stable_stage=*/true, slack, threshold);
  };

  // Stream 1: same testbed -> no drift expected.
  core::ResidualMonitor same;
  for (const auto& r : test) observe(same, r);

  // Stream 2: the fleet is re-fitted with degraded heatsinks (higher
  // thermal resistance) -- the model was never trained on this hardware.
  sim::ScenarioRanges changed = ranges;
  sim::ScenarioSampler sampler(changed, 9003);
  auto configs = sampler.sample(120);
  for (auto& config : configs) {
    config.server.thermal.sink_to_ambient_resistance *= 1.3;  // dust/age
  }
  const auto changed_records = core::profile_experiments(configs);

  core::ResidualMonitor drifted;
  std::size_t records_to_detect = 0;
  bool detected = false;
  for (const auto& r : changed_records) {
    ++records_to_detect;
    if (observe(drifted, r)) {
      detected = true;
      break;
    }
  }

  Table drift({"stream", "records", "drift detected", "records to detect"});
  drift.add_row({"unchanged testbed", Table::num(static_cast<long long>(
                                          test.size())),
                 same.drifted ? "YES (false alarm)" : "no", "-"});
  drift.add_row({"heatsinks degraded 30%",
                 Table::num(static_cast<long long>(changed_records.size())),
                 detected ? "yes" : "NO (missed)",
                 detected ? Table::num(static_cast<long long>(
                                records_to_detect))
                          : "-"});
  drift.print(std::cout, 2);

  print_kv(std::cout, "residual sigma (calibration)", Table::num(sigma, 3));
  std::cout << "\n  reading: the serving layer knows *how much* to trust a\n"
            << "  prediction (intervals) and *when* to stop trusting the\n"
            << "  model entirely (drift) - the two properties a thermal\n"
            << "  safety controller needs before acting on Eq.(8) outputs.\n";
  return 0;
}
