#include "sim/experiment.hpp"

#include <algorithm>

#include "ems/accounting.hpp"

namespace pfdrl::sim {

core::PipelineConfig paper_pipeline(core::EmsMethod method,
                                    std::uint64_t seed) {
  core::PipelineConfig cfg;
  cfg.method = method;
  cfg.forecast_method = forecast::Method::kLstm;
  cfg.window.window = 16;
  // epochs/lr/stride 0 = per-method tuned defaults (resolve_train_config).
  cfg.beta_hours = 12.0;
  cfg.gamma_hours = 12.0;
  cfg.alpha = 6;
  cfg.dqn.hidden = {100, 100, 100, 100, 100, 100, 100, 100};
  cfg.dqn.learning_rate = 1e-3;
  cfg.dqn.discount = 0.9;
  cfg.dqn.replay_capacity = 2000;
  cfg.dqn.target_replace_every = 100;
  // Exploration stretched over ~4 simulated days: the paper's Fig. 9
  // convergence plays out over tens of days, and the speed advantage of
  // sharing EMS plans only shows while agents are still learning. The
  // EMS loop takes one decision per meter interval (default 5 min), so
  // 1200 act steps ≈ 6000 simulated minutes.
  cfg.dqn.epsilon_decay_steps = 1200;
  cfg.learn_every_minutes = 45;
  cfg.seed = seed;
  return cfg;
}

core::PipelineConfig fast_pipeline(core::EmsMethod method,
                                   std::uint64_t seed) {
  core::PipelineConfig cfg = paper_pipeline(method, seed);
  cfg.forecast_method = forecast::Method::kBp;
  cfg.window.window = 8;
  cfg.forecast_train.epochs = 1;
  cfg.forecast_train.stride = 6;
  cfg.dqn.hidden = {32, 32, 32, 32};
  cfg.alpha = std::min<std::size_t>(cfg.alpha, 3);
  cfg.learn_every_minutes = 8;
  return cfg;
}

core::PipelineConfig bench_pipeline(core::EmsMethod method,
                                    std::uint64_t seed) {
  core::PipelineConfig cfg = paper_pipeline(method, seed);
  cfg.forecast_method = forecast::Method::kBp;
  cfg.dqn.hidden = {48, 48, 48, 48, 48, 48, 48, 48};
  return cfg;
}

std::vector<ConvergencePoint> run_convergence(
    const Scenario& scenario, const core::PipelineConfig& cfg,
    std::size_t forecast_train_days, std::size_t ems_days) {
  core::EmsPipeline pipeline(scenario.traces, cfg);

  const std::size_t day = data::kMinutesPerDay;
  const std::size_t total = scenario.minutes();
  const std::size_t fc_end = std::min(forecast_train_days * day, total);
  pipeline.train_forecasters(0, fc_end);

  // The last trace day is held out: every convergence point evaluates
  // the greedy policy on the same day, so the series shows pure learning
  // progress (the paper's Fig. 9 protocol), not day-to-day workload noise.
  const std::size_t eval_begin = total >= day ? total - day : 0;

  std::vector<ConvergencePoint> points;
  const auto homes = static_cast<double>(scenario.num_homes());
  for (std::size_t d = 0; d < ems_days; ++d) {
    const std::size_t begin = std::min(fc_end + d * day, eval_begin);
    const std::size_t end = std::min(begin + day, eval_begin);
    if (begin >= end) break;
    pipeline.train_ems(begin, end);

    const auto results = pipeline.evaluate(eval_begin, total);
    ConvergencePoint pt;
    pt.day = d + 1;
    const ems::SavingsTotals savings = ems::total_savings(results);
    const double standby = savings.standby_kwh;
    double gross_saved = 0.0;
    double reward = 0.0;
    std::size_t violations = 0;
    std::size_t steps = 0;
    for (const auto& r : results) {
      gross_saved += r.saved_kwh;
      reward += r.total_reward;
      violations += r.comfort_violations;
      steps += r.steps;
    }
    pt.saved_kwh_per_client = savings.net_kwh / homes;
    pt.saved_fraction = savings.net_fraction();
    pt.gross_saved_fraction = standby > 0.0 ? gross_saved / standby : 0.0;
    pt.comfort_violations_per_client = static_cast<double>(violations) / homes;
    pt.mean_reward_per_step =
        steps > 0 ? reward / static_cast<double>(steps) : 0.0;
    points.push_back(pt);
  }
  return points;
}

}  // namespace pfdrl::sim
