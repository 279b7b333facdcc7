// The paper's two headline numbers, end-to-end with the paper-scale
// configuration (LSTM forecasters in DFL, 8x100 DQN, alpha=6,
// beta=gamma=12h):
//   * "92% load forecasting accuracy"
//   * "saves 98% of total standby energy consumption in a day"
#include "common.hpp"

#include "core/pipeline.hpp"
#include "ems/accounting.hpp"

int main() {
  using namespace pfdrl;
  bench::print_figure_header(
      "Headline claims (paper-scale PFDRL)",
      "92% load forecasting accuracy; 98% of standby energy saved per day");

  const auto scenario = bench::bench_scenario(/*days=*/7);
  const std::size_t day = data::kMinutesPerDay;

  auto cfg = sim::paper_pipeline(core::EmsMethod::kPfdrl);
  core::EmsPipeline pipeline(scenario.traces, cfg);

  pipeline.train_forecasters(0, 4 * day);
  const double acc = pipeline.forecast_accuracy(6 * day, 7 * day);

  pipeline.train_ems(4 * day, 6 * day);
  const auto results = pipeline.evaluate(6 * day, 7 * day);

  const ems::SavingsTotals savings = ems::total_savings(results);
  const double standby = savings.standby_kwh;
  double gross = 0.0;
  std::size_t violations = 0;
  for (const auto& r : results) {
    gross += r.saved_kwh;
    violations += r.comfort_violations;
  }

  util::TextTable table({"metric", "paper", "measured"});
  table.add_row({"load forecasting accuracy", "92%", util::fmt_percent(acc)});
  table.add_row({"standby energy saved (gross)", "98%",
                 util::fmt_percent(gross / standby)});
  table.add_row({"standby energy saved (net of interruptions)", "-",
                 util::fmt_percent(savings.net_kwh / standby)});
  table.add_row({"comfort violations / client / day", "-",
                 util::fmt_double(static_cast<double>(violations) /
                                      static_cast<double>(results.size()),
                                  1)});
  table.print();

  const auto fc_comm = pipeline.forecast_comm_stats();
  const auto drl_comm = pipeline.drl_comm_stats();
  std::printf(
      "\ncommunication: forecast %.1f MiB, DRL %.1f MiB — all inside the\n"
      "residential area; no cloud service involved.\n",
      static_cast<double>(fc_comm.bytes_on_wire) / (1024.0 * 1024.0),
      static_cast<double>(drl_comm.bytes_on_wire) / (1024.0 * 1024.0));
  return 0;
}
