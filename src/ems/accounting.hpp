// Energy and monetary accounting for an executed EMS policy
// (paper §4.1 metrics 3 and 4).
//
// Savings are measured against generator ground truth: a minute counts
// as "saved" when the device truly sat in standby and the policy turned
// it off. Turning off (or standing-by) a device the user actually had on
// is a comfort violation — counted, never credited.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "data/tariff.hpp"
#include "ems/env.hpp"

namespace pfdrl::ems {

struct EpisodeResult {
  double total_reward = 0.0;
  /// Ground-truth standby energy available in the episode (kWh).
  double standby_kwh = 0.0;
  /// Standby energy the policy actually reclaimed (kWh).
  double saved_kwh = 0.0;
  /// On-minutes the policy wrongly interrupted.
  std::size_t comfort_violations = 0;
  /// Energy of interrupted use (kWh): the power the user was actually
  /// drawing during violated minutes. An EMS that cuts devices in use
  /// does not save that energy — the user restores it immediately — so
  /// figures bill it against the system (see net_saved_kwh).
  double violation_kwh = 0.0;
  std::size_t steps = 0;
  /// Saved energy bucketed by hour of day (kWh).
  std::array<double, 24> saved_kwh_by_hour{};

  /// Fraction of available standby energy reclaimed in [0, 1]
  /// (gross: ignores comfort violations — an always-off policy scores 1).
  [[nodiscard]] double saved_fraction() const noexcept {
    return standby_kwh > 0.0 ? saved_kwh / standby_kwh : 0.0;
  }
  /// Savings net of interrupted-use energy (can be negative while the
  /// policy is still reckless).
  [[nodiscard]] double net_saved_kwh() const noexcept {
    return saved_kwh - violation_kwh;
  }
  /// Net savings as a fraction of available standby energy, floored at 0.
  /// This is the metric the saved-standby-energy figures report.
  [[nodiscard]] double net_saved_fraction() const noexcept {
    if (standby_kwh <= 0.0) return 0.0;
    return net_saved_kwh() > 0.0 ? net_saved_kwh() / standby_kwh : 0.0;
  }

  void merge(const EpisodeResult& other) noexcept;
};

/// Neighbourhood net savings over per-home results. The clamped sum
/// floors each home at 0 (a losing home counts as saving nothing, as
/// EpisodeResult::net_saved_fraction does): that is the figure the
/// saved-standby-energy benches report. The unclamped sum bills losing
/// homes against the others, and `losing_homes` counts them.
struct SavingsTotals {
  double net_kwh = 0.0;            // sum of max(0, net) per home
  double net_kwh_unclamped = 0.0;  // sum of net per home
  double standby_kwh = 0.0;
  std::size_t losing_homes = 0;    // homes whose net is below 0

  /// Clamped net as a fraction of standby (0 without standby).
  [[nodiscard]] double net_fraction() const noexcept {
    return standby_kwh > 0.0 ? net_kwh / standby_kwh : 0.0;
  }
  [[nodiscard]] double net_fraction_unclamped() const noexcept {
    return standby_kwh > 0.0 ? net_kwh_unclamped / standby_kwh : 0.0;
  }
};

/// Sums `results` in order (so the clamped figure is bitwise the
/// historical per-site loop).
SavingsTotals total_savings(std::span<const EpisodeResult> results) noexcept;

/// Score a full action sequence against the environment. `actions[i]` is
/// the action taken at step i; actions.size() must equal env.length().
EpisodeResult score_actions(const EmsEnvironment& env,
                            const std::vector<int>& actions);

/// Monetary value (dollars) of saved energy under a tariff. `minute0` is
/// the minute-of-year of episode step 0 (for time-of-use pricing).
double saved_dollars(const EmsEnvironment& env, const std::vector<int>& actions,
                     const data::Tariff& tariff, std::size_t minute0);

}  // namespace pfdrl::ems
