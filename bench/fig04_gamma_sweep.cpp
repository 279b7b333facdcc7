// Figure 4 — saved standby energy vs DRL broadcast frequency γ.
// Paper: γ = 2, 6, 12 hours all perform best; 12 chosen for traffic.
#include "common.hpp"

#include "core/pipeline.hpp"
#include "ems/accounting.hpp"

int main() {
  using namespace pfdrl;
  bench::print_figure_header(
      "Figure 4: PFDRL saved standby energy vs DRL broadcast gamma (hours)",
      "gamma = 2-12 h best; 12 chosen for communication efficiency");

  const auto scenario = bench::bench_scenario(/*days=*/6);
  const std::size_t day = data::kMinutesPerDay;

  util::TextTable table({"gamma (h)", "net saved frac", "reward/step",
                         "DRL msgs", "DRL MiB"});
  for (double gamma : {0.1, 0.5, 1.0, 2.0, 6.0, 12.0, 24.0}) {
    auto cfg = sim::bench_pipeline(core::EmsMethod::kPfdrl);
    cfg.gamma_hours = gamma;
    core::EmsPipeline pipeline(scenario.traces, cfg);
    pipeline.train_forecasters(0, 2 * day);
    pipeline.train_ems(2 * day, 5 * day);
    const auto results = pipeline.evaluate(5 * day, 6 * day);
    const ems::SavingsTotals savings = ems::total_savings(results);
    double reward = 0.0;
    std::size_t steps = 0;
    for (const auto& r : results) {
      reward += r.total_reward;
      steps += r.steps;
    }
    const auto comm = pipeline.drl_comm_stats();
    table.add_row({util::fmt_double(gamma, 1),
                   util::fmt_double(savings.net_kwh / savings.standby_kwh, 3),
                   util::fmt_double(reward / static_cast<double>(steps), 2),
                   std::to_string(comm.messages_sent),
                   util::fmt_double(static_cast<double>(comm.bytes_on_wire) /
                                        (1024.0 * 1024.0),
                                    1)});
  }
  table.print();
  bench::dump_metrics("fig04_gamma_sweep");
  return 0;
}
