#include "ems/accounting.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pfdrl::ems {

void EpisodeResult::merge(const EpisodeResult& other) noexcept {
  total_reward += other.total_reward;
  standby_kwh += other.standby_kwh;
  saved_kwh += other.saved_kwh;
  comfort_violations += other.comfort_violations;
  violation_kwh += other.violation_kwh;
  steps += other.steps;
  for (std::size_t h = 0; h < 24; ++h) {
    saved_kwh_by_hour[h] += other.saved_kwh_by_hour[h];
  }
}

SavingsTotals total_savings(std::span<const EpisodeResult> results) noexcept {
  SavingsTotals t;
  for (const EpisodeResult& r : results) {
    const double net = r.net_saved_kwh();
    t.net_kwh += std::max(0.0, net);
    t.net_kwh_unclamped += net;
    t.standby_kwh += r.standby_kwh;
    if (net < 0.0) ++t.losing_homes;
  }
  return t;
}

EpisodeResult score_actions(const EmsEnvironment& env,
                            const std::vector<int>& actions) {
  if (actions.size() != env.length()) {
    throw std::invalid_argument("score_actions: action count mismatch");
  }
  EpisodeResult result;
  result.steps = actions.size();
  bool in_violation = false;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    result.total_reward += env.reward_at(i, actions[i]);
    const auto truth = env.true_mode(i);
    const auto act = action_to_mode(actions[i]);
    const double kwh = env.real_watts(i) / 60.0 / 1000.0;
    if (truth == data::DeviceMode::kStandby) {
      result.standby_kwh += kwh;
      if (act == data::DeviceMode::kOff) {
        result.saved_kwh += kwh;
        const std::size_t hour =
            data::hour_of_day(env.begin_minute() + i);
        result.saved_kwh_by_hour[hour] += kwh;
      }
      in_violation = false;
    } else if (truth == data::DeviceMode::kOn &&
               act != data::DeviceMode::kOn) {
      // Interrupting a device in use. The user overrides immediately
      // (turns it back on), so each contiguous violated stretch costs
      // one interruption event plus that minute's energy — not the whole
      // session.
      if (!in_violation) {
        ++result.comfort_violations;
        result.violation_kwh += kwh;
        in_violation = true;
      }
    } else {
      in_violation = false;
    }
  }
  return result;
}

double saved_dollars(const EmsEnvironment& env,
                     const std::vector<int>& actions,
                     const data::Tariff& tariff, std::size_t minute0) {
  if (actions.size() != env.length()) {
    throw std::invalid_argument("saved_dollars: action count mismatch");
  }
  double cents = 0.0;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (env.true_mode(i) != data::DeviceMode::kStandby) continue;
    if (action_to_mode(actions[i]) != data::DeviceMode::kOff) continue;
    const double kwh = env.real_watts(i) / 60.0 / 1000.0;
    cents += kwh * tariff.cents_per_kwh(minute0 + i);
  }
  return cents / 100.0;
}

}  // namespace pfdrl::ems
