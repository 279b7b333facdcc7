// Ablations of design choices DESIGN.md calls out:
//   A. meter reporting interval (how stale real-time readings are),
//   B. log-scale vs linear watt encoding for the forecasters,
//   C. broadcast topology (full mesh vs star vs ring) for DFL accuracy
//      and wire cost,
//   D. base-layer direction: share the FIRST alpha layers (PFDRL) vs the
//      LAST alpha layers (personalize the bottom instead).
#include "common.hpp"

#include "core/layer_split.hpp"
#include "core/pipeline.hpp"
#include "ems/accounting.hpp"
#include "fl/aggregate.hpp"
#include "fl/dfl.hpp"

using namespace pfdrl;

namespace {

void ablation_meter_interval(const sim::Scenario& scenario) {
  const std::size_t day = data::kMinutesPerDay;
  util::TextTable table({"meter interval (min)", "net saved frac",
                         "violations/client"});
  for (std::size_t interval : {1u, 5u, 15u, 30u}) {
    auto cfg = sim::bench_pipeline(core::EmsMethod::kPfdrl);
    cfg.meter_interval_minutes = interval;
    core::EmsPipeline pipeline(scenario.traces, cfg);
    pipeline.train_forecasters(0, 2 * day);
    pipeline.train_ems(2 * day, 4 * day);
    const auto results = pipeline.evaluate(4 * day, 5 * day);
    const ems::SavingsTotals savings = ems::total_savings(results);
    double violations = 0.0;
    for (const auto& r : results) {
      violations += static_cast<double>(r.comfort_violations);
    }
    table.add_row({std::to_string(interval),
                   util::fmt_double(savings.net_kwh / savings.standby_kwh, 3),
                   util::fmt_double(
                       violations / static_cast<double>(results.size()), 1)});
  }
  table.print(
      "A. meter staleness: with event-based interruption billing (the user "
      "overrides\nonce per interruption), the interval shifts *when* "
      "savings/violations land, not\nhow many — near-flat is the expected "
      "outcome:");
  std::printf("\n");
}

void ablation_log_scale(const sim::Scenario& scenario) {
  const std::size_t day = data::kMinutesPerDay;
  util::TextTable table({"encoding", "BP accuracy"});
  for (bool log_scale : {true, false}) {
    fl::DflConfig cfg;
    cfg.method = forecast::Method::kBp;
    cfg.window.window = 16;
    cfg.window.log_scale = log_scale;
    fl::DflTrainer trainer(scenario.traces, cfg);
    trainer.run(0, 3 * day);
    table.add_row({log_scale ? "log1p (default)" : "linear",
                   util::fmt_percent(
                       trainer.mean_test_accuracy(3 * day, 4 * day))});
  }
  table.print(
      "B. watt encoding (relative accuracy metric needs the log scale):");
  std::printf("\n");
}

void ablation_recurrent_cell(const sim::Scenario& scenario) {
  const std::size_t day = data::kMinutesPerDay;
  util::TextTable table({"cell", "accuracy", "parameters"});
  for (auto method : {forecast::Method::kLstm, forecast::Method::kGru}) {
    fl::DflConfig cfg;
    cfg.method = method;
    cfg.window.window = 16;
    fl::DflTrainer trainer(scenario.traces, cfg);
    trainer.run(0, 3 * day);
    table.add_row({forecast::method_name(method),
                   util::fmt_percent(
                       trainer.mean_test_accuracy(3 * day, 4 * day)),
                   std::to_string(
                       trainer.forecaster(0, 0).parameters().size())});
  }
  table.print("E. recurrent cell (GRU extension vs the paper's LSTM):");
  std::printf("\n");
}

void ablation_topology(const sim::Scenario& scenario) {
  const std::size_t day = data::kMinutesPerDay;
  util::TextTable table(
      {"topology", "accuracy", "messages delivered", "MiB on wire"});
  struct Case {
    const char* label;
    fl::AggregationMode mode;
  };
  for (const auto& c :
       {Case{"full mesh (DFL)", fl::AggregationMode::kDecentralized},
        Case{"star via hub (FL)", fl::AggregationMode::kCentralized},
        Case{"local only", fl::AggregationMode::kNone}}) {
    fl::DflConfig cfg;
    cfg.method = forecast::Method::kBp;
    cfg.window.window = 16;
    cfg.aggregation = c.mode;
    fl::DflTrainer trainer(scenario.traces, cfg);
    trainer.run(0, 3 * day);
    const auto comm = trainer.comm_stats();
    table.add_row({c.label,
                   util::fmt_percent(
                       trainer.mean_test_accuracy(3 * day, 4 * day)),
                   std::to_string(comm.messages_delivered),
                   util::fmt_double(static_cast<double>(comm.bytes_on_wire) /
                                        (1024.0 * 1024.0),
                                    1)});
  }
  table.print("C. aggregation topology (same math, different wire cost):");
  std::printf("\n");
}

/// Share the LAST `alpha` layers instead of the first ones: FedPer-style
/// splits argue lower layers are general and upper layers personal; this
/// ablation checks the claim on the EMS task.
void ablation_split_direction(const sim::Scenario& scenario) {
  const std::size_t day = data::kMinutesPerDay;
  util::TextTable table({"shared slice", "net saved frac", "reward/step"});

  for (bool share_bottom : {true, false}) {
    auto cfg = sim::bench_pipeline(core::EmsMethod::kFl);  // no built-in fed
    core::EmsPipeline pipeline(scenario.traces, cfg);
    pipeline.train_forecasters(0, 2 * day);

    // Manual federation every gamma: average either the first or the
    // last `alpha` layers of homologous DQNs.
    const std::size_t alpha = 6;
    const auto federate = [&] {
      // Group actionable agents by device type.
      std::map<std::uint32_t, std::vector<nn::Mlp*>> groups;
      std::map<std::uint32_t, std::vector<rl::DqnAgent*>> agents;
      for (std::size_t h = 0; h < scenario.traces.size(); ++h) {
        for (std::size_t d = 0; d < scenario.traces[h].devices.size(); ++d) {
          if (scenario.traces[h].devices[d].spec.protected_device) continue;
          auto& agent = const_cast<rl::DqnAgent&>(pipeline.agent(h, d));
          const auto type = static_cast<std::uint32_t>(
              scenario.traces[h].devices[d].spec.type);
          groups[type].push_back(&agent.network());
          agents[type].push_back(&agent);
        }
      }
      for (auto& [type, nets] : groups) {
        if (nets.size() < 2) continue;
        nn::Mlp& ref = *nets.front();
        const std::size_t lo =
            share_bottom ? 0 : ref.layer_offset(ref.num_layers() - alpha);
        const std::size_t hi = share_bottom
                                   ? core::base_prefix_params(ref, alpha)
                                   : ref.parameter_count();
        std::vector<std::vector<double>> slices;
        for (nn::Mlp* net : nets) {
          const auto p = net->parameters();
          slices.emplace_back(p.begin() + lo, p.begin() + hi);
        }
        std::vector<std::span<const double>> views(slices.begin(),
                                                   slices.end());
        std::vector<double> avg(hi - lo, 0.0);
        fl::fedavg_prefix(views, avg.size(), avg);
        for (std::size_t k = 0; k < nets.size(); ++k) {
          auto p = nets[k]->parameters();
          std::copy(avg.begin(), avg.end(), p.begin() + lo);
          agents[type][k]->notify_external_parameter_update();
        }
      }
    };

    const std::size_t gamma_minutes = 12 * 60;
    for (std::size_t b = 2 * day; b < 4 * day; b += gamma_minutes) {
      pipeline.train_ems(b, b + gamma_minutes);
      federate();
    }

    const auto results = pipeline.evaluate(4 * day, 5 * day);
    const ems::SavingsTotals savings = ems::total_savings(results);
    double reward = 0.0;
    std::size_t steps = 0;
    for (const auto& r : results) {
      reward += r.total_reward;
      steps += r.steps;
    }
    table.add_row({share_bottom ? "first 6 layers (PFDRL)"
                                : "last 6 layers (inverted)",
                   util::fmt_double(savings.net_kwh / savings.standby_kwh, 3),
                   util::fmt_double(reward / static_cast<double>(steps), 2)});
  }
  table.print("D. which layers to share (base prefix vs inverted suffix):");
}

}  // namespace

int main() {
  bench::print_figure_header("Design ablations",
                             "choices called out in DESIGN.md section 5");
  const auto scenario = bench::bench_scenario(/*days=*/5);
  ablation_meter_interval(scenario);
  ablation_log_scale(scenario);
  ablation_topology(scenario);
  ablation_split_direction(scenario);
  ablation_recurrent_cell(scenario);
  return 0;
}
