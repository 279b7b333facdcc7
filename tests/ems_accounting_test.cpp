#include "ems/accounting.hpp"

#include <gtest/gtest.h>

namespace pfdrl::ems {
namespace {

using data::DeviceMode;

data::DeviceTrace phase_trace() {
  // 10 off, 20 standby, 10 on, 20 standby (60 minutes total).
  data::DeviceTrace t;
  t.spec.type = data::DeviceType::kTv;
  t.spec.standby_watts = 6.0;
  t.spec.on_watts = 120.0;
  t.watts.resize(60);
  t.modes.resize(60);
  for (std::size_t m = 0; m < 60; ++m) {
    if (m < 10) {
      t.modes[m] = DeviceMode::kOff;
      t.watts[m] = 0.0;
    } else if (m < 30) {
      t.modes[m] = DeviceMode::kStandby;
      t.watts[m] = 6.0;
    } else if (m < 40) {
      t.modes[m] = DeviceMode::kOn;
      t.watts[m] = 120.0;
    } else {
      t.modes[m] = DeviceMode::kStandby;
      t.watts[m] = 6.0;
    }
  }
  return t;
}

EmsEnvironment make_env(const data::DeviceTrace& trace) {
  return EmsEnvironment(trace, std::vector<double>(trace.minutes(), 6.0), 0,
                        5);
}

TEST(Accounting, ActionCountValidation) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  EXPECT_THROW(score_actions(env, std::vector<int>(10, 0)),
               std::invalid_argument);
}

TEST(Accounting, OracleReclaimsEverything) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  std::vector<int> actions(60);
  for (std::size_t i = 0; i < 60; ++i) {
    actions[i] = mode_to_action(optimal_action(trace.modes[i]));
  }
  const auto r = score_actions(env, actions);
  EXPECT_NEAR(r.standby_kwh, 40 * 6.0 / 60.0 / 1000.0, 1e-12);
  EXPECT_NEAR(r.saved_kwh, r.standby_kwh, 1e-12);
  EXPECT_EQ(r.comfort_violations, 0u);
  EXPECT_DOUBLE_EQ(r.violation_kwh, 0.0);
  EXPECT_DOUBLE_EQ(r.saved_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(r.net_saved_fraction(), 1.0);
  // Oracle reward: 10 off-minutes +10, 40 standby-off +30, 10 on +10.
  EXPECT_DOUBLE_EQ(r.total_reward, 10 * 10 + 40 * 30 + 10 * 10);
}

TEST(Accounting, AlwaysStandbySavesNothing) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  const std::vector<int> actions(60, 1);
  const auto r = score_actions(env, actions);
  EXPECT_DOUBLE_EQ(r.saved_kwh, 0.0);
  EXPECT_GT(r.standby_kwh, 0.0);
  EXPECT_EQ(r.comfort_violations, 1u);  // one on-stretch interrupted
}

TEST(Accounting, AlwaysOffBillsOneEventPerOnStretch) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  const std::vector<int> actions(60, 0);
  const auto r = score_actions(env, actions);
  EXPECT_DOUBLE_EQ(r.saved_fraction(), 1.0);  // gross saves everything
  EXPECT_EQ(r.comfort_violations, 1u);        // single contiguous on period
  EXPECT_NEAR(r.violation_kwh, 120.0 / 60.0 / 1000.0, 1e-12);  // 1 minute
  EXPECT_LT(r.net_saved_fraction(), 1.0);
}

TEST(Accounting, TwoSeparateViolationStretchesCountTwice) {
  auto trace = phase_trace();
  // Insert a second on-stretch at minutes 45..49.
  for (std::size_t m = 45; m < 50; ++m) {
    trace.modes[m] = DeviceMode::kOn;
    trace.watts[m] = 120.0;
  }
  const auto env = make_env(trace);
  const std::vector<int> actions(60, 0);
  const auto r = score_actions(env, actions);
  EXPECT_EQ(r.comfort_violations, 2u);
}

TEST(Accounting, ViolationStretchEndsWhenActionCorrects) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  std::vector<int> actions(60, 0);
  actions[32] = 2;  // correct mid-stretch...
  // ...then wrong again from 33: that is a NEW violated stretch.
  const auto r = score_actions(env, actions);
  EXPECT_EQ(r.comfort_violations, 2u);
}

TEST(Accounting, SavedByHourBuckets) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  const std::vector<int> actions(60, 0);
  const auto r = score_actions(env, actions);
  // All 60 minutes are within hour 0.
  EXPECT_NEAR(r.saved_kwh_by_hour[0], r.saved_kwh, 1e-12);
  for (std::size_t h = 1; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(r.saved_kwh_by_hour[h], 0.0);
  }
}

TEST(Accounting, MergeSums) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  std::vector<int> oracle(60);
  for (std::size_t i = 0; i < 60; ++i) {
    oracle[i] = mode_to_action(optimal_action(trace.modes[i]));
  }
  auto a = score_actions(env, oracle);
  const auto b = score_actions(env, std::vector<int>(60, 0));
  const double saved_sum = a.saved_kwh + b.saved_kwh;
  const auto violations = a.comfort_violations + b.comfort_violations;
  a.merge(b);
  EXPECT_NEAR(a.saved_kwh, saved_sum, 1e-12);
  EXPECT_EQ(a.comfort_violations, violations);
  EXPECT_EQ(a.steps, 120u);
}

TEST(Accounting, NetSavedFractionFloorsAtZero) {
  EpisodeResult r;
  r.standby_kwh = 1.0;
  r.saved_kwh = 0.1;
  r.violation_kwh = 0.5;
  EXPECT_DOUBLE_EQ(r.net_saved_kwh(), -0.4);
  EXPECT_DOUBLE_EQ(r.net_saved_fraction(), 0.0);
}

// A neighbourhood with one losing home: the clamped total counts it as
// saving nothing, the unclamped total bills its loss against the others.
TEST(Accounting, SavingsTotalsCountLosingHome) {
  std::vector<EpisodeResult> homes(3);
  homes[0].standby_kwh = 1.0;
  homes[0].saved_kwh = 0.75;
  homes[0].violation_kwh = 0.25;  // net +0.5
  homes[1].standby_kwh = 2.0;
  homes[1].saved_kwh = 0.25;
  homes[1].violation_kwh = 1.25;  // net -1.0: the losing home
  homes[2].standby_kwh = 1.0;
  homes[2].saved_kwh = 1.0;  // net +1.0
  const SavingsTotals t = total_savings(homes);
  EXPECT_EQ(t.net_kwh, 1.5);
  EXPECT_EQ(t.net_kwh_unclamped, 0.5);
  EXPECT_EQ(t.standby_kwh, 4.0);
  EXPECT_EQ(t.losing_homes, 1u);
  EXPECT_EQ(t.net_fraction(), 0.375);
  EXPECT_EQ(t.net_fraction_unclamped(), 0.125);

  const SavingsTotals none = total_savings({});
  EXPECT_EQ(none.net_fraction(), 0.0);
  EXPECT_EQ(none.net_fraction_unclamped(), 0.0);
  EXPECT_EQ(none.losing_homes, 0u);
}

TEST(Accounting, FractionsZeroWithoutStandby) {
  EpisodeResult r;
  EXPECT_DOUBLE_EQ(r.saved_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(r.net_saved_fraction(), 0.0);
}

TEST(Accounting, SavedDollarsFixedTariff) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  const std::vector<int> actions(60, 0);
  const data::FixedTariff tariff(10.0);  // 10 cents/kWh
  const double dollars = saved_dollars(env, actions, tariff, 0);
  const double saved_kwh = 40 * 6.0 / 60.0 / 1000.0;
  EXPECT_NEAR(dollars, saved_kwh * 10.0 / 100.0, 1e-12);
}

TEST(Accounting, SavedDollarsVariableUsesTimeOfUse) {
  const auto trace = phase_trace();
  const auto env = make_env(trace);
  const std::vector<int> actions(60, 0);
  const data::VariableTariff tariff;
  // Overnight (minute 0 of year = midnight Jan) is cheap; 4 PM August
  // is expensive: the same actions should be worth more in August.
  const double cheap = saved_dollars(env, actions, tariff, 0);
  const std::size_t august_4pm =
      7 * data::kMinutesPerMonth + 16 * 60;
  const double pricey = saved_dollars(env, actions, tariff, august_4pm);
  EXPECT_GT(pricey, cheap);
}

}  // namespace
}  // namespace pfdrl::ems
