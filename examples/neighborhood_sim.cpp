// Neighborhood simulation: run all five EMS methods (paper Table 2) on
// the same synthetic neighbourhood and compare what each achieves and
// what each costs in privacy and traffic.
//
//   $ ./examples/neighborhood_sim
#include <cstdio>

#include "core/pipeline.hpp"
#include "ems/accounting.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace pfdrl;

  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 4;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 5;
  sc.trace.days = 4;
  const auto scenario = sim::Scenario::generate(sc);
  const std::size_t day = data::kMinutesPerDay;

  std::printf("neighbourhood: %zu homes, %zu devices, %zu days\n\n",
              scenario.num_homes(), scenario.num_devices(),
              scenario.minutes() / day);

  // Paper Table 2: the qualitative comparison matrix.
  util::TextTable matrix({"method", "forecasting", "EMS", "local area",
                          "privacy", "shares EMS", "personalized"});
  for (auto m : {core::EmsMethod::kLocal, core::EmsMethod::kCloud,
                 core::EmsMethod::kFl, core::EmsMethod::kFrl,
                 core::EmsMethod::kPfdrl}) {
    const auto t = core::method_traits(m);
    const auto yn = [](bool b) { return std::string(b ? "yes" : "no"); };
    matrix.add_row({core::ems_method_name(m), t.load_forecasting, t.ems,
                    yn(t.local_area), yn(t.data_privacy), yn(t.shares_ems),
                    yn(t.personalization)});
  }
  matrix.print("method matrix (paper Table 2):");
  std::printf("\n");

  // Quantitative comparison with the fast preset.
  util::TextTable results({"method", "forecast acc", "net saved frac",
                           "violations/client", "fc MiB", "DRL MiB"});
  for (auto m : {core::EmsMethod::kLocal, core::EmsMethod::kCloud,
                 core::EmsMethod::kFl, core::EmsMethod::kFrl,
                 core::EmsMethod::kPfdrl}) {
    auto cfg = sim::fast_pipeline(m);
    // The demo can afford proper forecaster training (per-method tuned
    // defaults) instead of the test suite's minimal settings.
    cfg.forecast_train = forecast::TrainConfig{};
    core::EmsPipeline pipeline(scenario.traces, cfg);
    pipeline.train_forecasters(0, 2 * day);
    pipeline.train_ems(2 * day, 3 * day);
    const auto eval = pipeline.evaluate(3 * day, 4 * day);
    const ems::SavingsTotals savings = ems::total_savings(eval);
    double violations = 0.0;
    for (const auto& r : eval) {
      violations += static_cast<double>(r.comfort_violations);
    }
    const auto fc = pipeline.forecast_comm_stats();
    const auto drl = pipeline.drl_comm_stats();
    results.add_row(
        {core::ems_method_name(m),
         util::fmt_percent(pipeline.forecast_accuracy(3 * day, 4 * day)),
         util::fmt_double(savings.net_fraction(), 3),
         util::fmt_double(violations / static_cast<double>(eval.size()), 1),
         util::fmt_double(
             static_cast<double>(fc.bytes_on_wire) / (1024.0 * 1024.0), 1),
         util::fmt_double(
             static_cast<double>(drl.bytes_on_wire) / (1024.0 * 1024.0), 1)});
  }
  results.print("measured on the evaluation day:");
  return 0;
}
