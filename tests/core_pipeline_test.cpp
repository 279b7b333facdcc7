#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <array>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace pfdrl::core {
namespace {

sim::Scenario tiny() {
  auto cfg = sim::tiny_scenario(42);
  return sim::Scenario::generate(cfg);
}

PipelineConfig tiny_pipeline(EmsMethod method) {
  auto cfg = sim::fast_pipeline(method, 42);
  cfg.forecast_method = forecast::Method::kLr;  // cheapest
  cfg.dqn.hidden = {12, 12};
  return cfg;
}

TEST(Pipeline, RejectsEmptyTraces) {
  std::vector<data::HouseholdTrace> empty;
  EXPECT_THROW(EmsPipeline(empty, tiny_pipeline(EmsMethod::kPfdrl)),
               std::invalid_argument);
}

TEST(Pipeline, ProtectedDevicesHaveNoAgent) {
  const auto scenario = tiny();
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(EmsMethod::kLocal));
  for (std::size_t h = 0; h < scenario.traces.size(); ++h) {
    for (std::size_t d = 0; d < scenario.traces[h].devices.size(); ++d) {
      if (scenario.traces[h].devices[d].spec.protected_device) {
        EXPECT_THROW((void)pipeline.agent(h, d), std::out_of_range);
      } else {
        EXPECT_NO_THROW((void)pipeline.agent(h, d));
      }
    }
  }
}

TEST(Pipeline, SharesEmsPlansOnlyForFrlAndPfdrl) {
  EXPECT_FALSE(shares_ems_plans(EmsMethod::kLocal));
  EXPECT_FALSE(shares_ems_plans(EmsMethod::kCloud));
  EXPECT_FALSE(shares_ems_plans(EmsMethod::kFl));
  EXPECT_TRUE(shares_ems_plans(EmsMethod::kFrl));
  EXPECT_TRUE(shares_ems_plans(EmsMethod::kPfdrl));
}

class PipelineAllMethods : public ::testing::TestWithParam<EmsMethod> {};

TEST_P(PipelineAllMethods, EndToEndSmoke) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(GetParam()));
  pipeline.train_forecasters(0, day);
  const double acc = pipeline.forecast_accuracy(day, 2 * day);
  EXPECT_GT(acc, 0.2);
  EXPECT_LE(acc, 1.0);
  pipeline.train_ems(day, 2 * day);
  const auto results = pipeline.evaluate(day, 2 * day);
  ASSERT_EQ(results.size(), scenario.num_homes());
  for (const auto& r : results) {
    EXPECT_GT(r.steps, 0u);
    EXPECT_GE(r.standby_kwh, 0.0);
    EXPECT_GE(r.saved_kwh, 0.0);
    EXPECT_LE(r.saved_kwh, r.standby_kwh + 1e-9);
  }
}

TEST_P(PipelineAllMethods, CommStatsMatchMethod) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(GetParam()));
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);

  const auto fc = pipeline.forecast_comm_stats();
  const auto drl = pipeline.drl_comm_stats();
  switch (GetParam()) {
    case EmsMethod::kLocal:
      EXPECT_EQ(fc.messages_sent, 0u);
      EXPECT_EQ(drl.messages_sent, 0u);
      break;
    case EmsMethod::kCloud:
      // Cloud ships raw data, not parameters; no bus traffic either way.
      EXPECT_EQ(fc.messages_sent, 0u);
      EXPECT_EQ(drl.messages_sent, 0u);
      break;
    case EmsMethod::kFl:
      EXPECT_GT(fc.messages_sent, 0u);
      EXPECT_EQ(drl.messages_sent, 0u);
      break;
    case EmsMethod::kFrl:
      EXPECT_GT(fc.messages_sent, 0u);
      EXPECT_GT(drl.messages_sent, 0u);
      break;
    case EmsMethod::kPfdrl:
      EXPECT_GT(fc.messages_sent, 0u);
      EXPECT_GT(drl.messages_sent, 0u);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, PipelineAllMethods,
                         ::testing::Values(EmsMethod::kLocal,
                                           EmsMethod::kCloud, EmsMethod::kFl,
                                           EmsMethod::kFrl,
                                           EmsMethod::kPfdrl));

TEST(Pipeline, PfdrlBroadcastsLessDrlDataThanFrl) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;

  auto frl_cfg = tiny_pipeline(EmsMethod::kFrl);
  auto pfdrl_cfg = tiny_pipeline(EmsMethod::kPfdrl);
  pfdrl_cfg.alpha = 1;

  EmsPipeline frl(scenario.traces, frl_cfg);
  EmsPipeline pfdrl(scenario.traces, pfdrl_cfg);
  frl.train_forecasters(0, day);
  pfdrl.train_forecasters(0, day);
  frl.train_ems(day, 2 * day);
  pfdrl.train_ems(day, 2 * day);

  EXPECT_LT(pfdrl.drl_comm_stats().bytes_on_wire,
            frl.drl_comm_stats().bytes_on_wire);
}

TEST(Pipeline, EvaluateSavingsDollarsShape) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, tiny_pipeline(EmsMethod::kPfdrl));
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);
  const data::FixedTariff tariff;
  const auto dollars =
      pipeline.evaluate_savings_dollars(day, 2 * day, tariff, 0);
  ASSERT_EQ(dollars.size(), scenario.num_homes());
  for (double d : dollars) EXPECT_GE(d, 0.0);
}

TEST(Pipeline, SecureAggregationMatchesPlainForecasts) {
  // End-to-end: the PFDRL pipeline with masked DFL broadcasts produces
  // the same forecast accuracy as the plain one (masks cancel in the
  // aggregate).
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  auto plain_cfg = tiny_pipeline(EmsMethod::kPfdrl);
  auto secure_cfg = plain_cfg;
  secure_cfg.secure_aggregation = true;
  EmsPipeline plain(scenario.traces, plain_cfg);
  EmsPipeline secure(scenario.traces, secure_cfg);
  plain.train_forecasters(0, day);
  secure.train_forecasters(0, day);
  EXPECT_NEAR(plain.forecast_accuracy(day, 2 * day),
              secure.forecast_accuracy(day, 2 * day), 1e-6);
}

TEST(Pipeline, LearnCadenceAndAccountingFollowMeterInterval) {
  // Regression for the learn-cadence/round-accounting bug. The EMS loop
  // advances one meter interval per decision step; with a 15-minute meter
  // a 240-minute γ round is 16 steps, not 240. The old per-minute loop
  // pushed 240 transitions per device per round, and a naive
  // `(begin + t) % learn_every == 0` gate over strided minute offsets
  // aliases against the stride: with learn_every = 40 it only fires when
  // t is a multiple of lcm(40, 15) = 120 — 2 learns per round instead of
  // the 6 a 40-minute cadence promises. The interval-aware gate
  // `(begin + t) % learn_every < stride` fires exactly 240/40 = 6 times.
  const auto scenario = tiny();
  auto cfg = tiny_pipeline(EmsMethod::kLocal);
  cfg.meter_interval_minutes = 15;
  cfg.learn_every_minutes = 40;
  cfg.gamma_hours = 4.0;  // 240-minute rounds
  obs::MetricsRegistry reg;  // private sink: keep the assertions exact
  cfg.metrics = &reg;

  std::size_t actionable = 0;
  for (const auto& home : scenario.traces) {
    for (const auto& dev : home.devices) {
      if (!dev.spec.protected_device) ++actionable;
    }
  }
  ASSERT_GT(actionable, 0u);

  const std::size_t day = data::kMinutesPerDay;
  EmsPipeline pipeline(scenario.traces, cfg);
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, day + 240);  // exactly one γ round

  EXPECT_EQ(reg.counter("ems.rounds").value(), 1u);
  EXPECT_EQ(reg.counter("ems.env_steps").value(), actionable * 16);
  EXPECT_EQ(reg.counter("ems.replay_pushes").value(), actionable * 16);
  EXPECT_EQ(reg.counter("ems.learn_calls").value(), actionable * 6);
  for (std::size_t h = 0; h < scenario.traces.size(); ++h) {
    for (std::size_t d = 0; d < scenario.traces[h].devices.size(); ++d) {
      if (scenario.traces[h].devices[d].spec.protected_device) continue;
      EXPECT_EQ(pipeline.agent(h, d).replay().total_pushed(), 16u);
    }
  }

  // A second round doubles every per-round count — no drift, no aliasing
  // against the new begin offset (1680 % 40 = 0 still, but 1680 % 15 = 0
  // keeps the stride phase identical).
  pipeline.train_ems(day + 240, day + 480);
  EXPECT_EQ(reg.counter("ems.rounds").value(), 2u);
  EXPECT_EQ(reg.counter("ems.env_steps").value(), actionable * 32);
  EXPECT_EQ(reg.counter("ems.learn_calls").value(), actionable * 12);
  EXPECT_EQ(reg.series("ems.epsilon_series").size(), 2u);
  EXPECT_EQ(reg.histogram("ems.round_seconds").count(), 2u);
}

/// Test-local groups-of-one reference for the EMS training step of a
/// PFDRL pipeline: fresh agents seeded as EmsPipeline seeds them, each
/// rolled out alone over the same environments (forecasts from
/// `forecasts`' trained DFL models) and trained by its own learn() (a
/// learner group of one), with a DrlFederation round after every γ
/// window. Returns every agent's parameters, home-major.
std::vector<double> per_agent_reference(
    const std::vector<data::HouseholdTrace>& traces, const PipelineConfig& cfg,
    const EmsPipeline& forecasts, std::size_t begin, std::size_t end) {
  const fl::DflTrainer& dfl = *forecasts.dfl_trainer();
  const EpisodeRunner runner(
      traces,
      [&](std::size_t h, std::size_t d, std::size_t b, std::size_t e) {
        // EmsPipeline's forecast series: leading minutes without history
        // are padded with the real reading.
        const auto& trace = traces[h].devices[d];
        const forecast::Forecaster& model = dfl.forecaster(h, d);
        const auto series = model.predict_series(trace, b, e);
        std::vector<double> out;
        const std::size_t first =
            data::first_feasible_target(model.window_config(), b);
        for (std::size_t m = b; m < first && m < e; ++m) {
          out.push_back(trace.watts[m]);
        }
        out.insert(out.end(), series.begin(), series.end());
        out.resize(e - b, trace.spec.standby_watts);
        return out;
      },
      cfg.meter_interval_minutes);
  std::vector<std::unique_ptr<rl::DqnAgent>> agents;
  std::vector<std::pair<std::size_t, std::size_t>> slots;  // (home, dev)
  std::vector<FederatedDevice> devices;
  for (std::size_t h = 0; h < traces.size(); ++h) {
    for (std::size_t d = 0; d < traces[h].devices.size(); ++d) {
      if (traces[h].devices[d].spec.protected_device) continue;
      rl::DqnConfig qc = cfg.dqn;
      qc.state_dim = ems::EmsEnvironment::kStateDim;
      qc.num_actions = ems::kNumActions;
      const auto type =
          static_cast<std::uint64_t>(traces[h].devices[d].spec.type);
      qc.seed = cfg.seed * 7919 + type;
      qc.exploration_seed = cfg.seed * 104729 + h * 257 + type + 1;
      agents.push_back(std::make_unique<rl::DqnAgent>(qc));
      slots.emplace_back(h, d);
      devices.push_back({static_cast<net::AgentId>(h),
                         static_cast<std::uint32_t>(type), agents.back().get()});
    }
  }
  const std::size_t layers = agents.front()->network().num_layers();
  net::FaultPlan fault = cfg.fault;
  fault.seed = net::derive_fault_seed(cfg.seed, 2);
  DrlFederation federation(traces.size(), std::min(cfg.alpha, layers),
                           net::TopologyKind::kFullMesh, fault);
  const std::size_t stride = std::max<std::size_t>(1, cfg.meter_interval_minutes);
  const auto round_minutes = static_cast<std::size_t>(cfg.gamma_hours * 60.0);
  std::uint64_t round = 0;
  for (std::size_t wb = begin; wb < end; wb += round_minutes, ++round) {
    const std::size_t we = std::min(wb + round_minutes, end);
    for (std::size_t i = 0; i < agents.size(); ++i) {
      rl::DqnAgent& agent = *agents[i];
      const ems::EmsEnvironment env =
          runner.environment(slots[i].first, slots[i].second, wb, we);
      std::array<double, ems::EmsEnvironment::kStateDim> state;
      std::array<double, ems::EmsEnvironment::kStateDim> next;
      env.state_into(0, state);
      for (std::size_t t = 0; t < env.length(); t += stride) {
        const std::size_t t_next = std::min(t + stride, env.length());
        const int action = agent.act(state);
        double r = 0.0;
        for (std::size_t m = t; m < t_next; ++m) r += env.reward_at(m, action);
        const bool terminal = t_next >= env.length();
        if (terminal) {
          next = state;
        } else {
          env.state_into(t_next, next);
        }
        agent.remember({{state.begin(), state.end()},
                        action,
                        r,
                        {next.begin(), next.end()},
                        terminal});
        if ((wb + t) % cfg.learn_every_minutes < stride) agent.learn();
        state = next;
      }
    }
    federation.round(devices, round);
  }
  std::vector<double> all;
  for (const auto& agent : agents) {
    const auto p = agent->network().parameters();
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

// Grouping invariance end-to-end (docs/fused_training.md): EMS rounds
// always run in cross-home lockstep with stacked DQN learn slabs (one
// group per shard, or per pool thread unsharded), inline (shards <= 1)
// and pooled (shards > 1) exchange alike, and every agent's parameters
// must stay bitwise identical to each agent rolled out alone and trained
// as a group of one. No EMS group leaves lockstep; LR forecasts make
// every DFL group train per job.
TEST(Pipeline, FusedEmsMatchesPerAgentReference) {
  auto sc = sim::tiny_scenario(42);
  sc.neighborhood.num_households = 4;
  const auto scenario = sim::Scenario::generate(sc);
  const auto& traces = scenario.traces;
  const std::size_t day = data::kMinutesPerDay;
  for (const std::size_t shards : {0, 1, 2, 3}) {
    obs::MetricsRegistry reg;
    auto cfg = tiny_pipeline(EmsMethod::kPfdrl);
    cfg.shards = shards;
    cfg.metrics = &reg;
    EmsPipeline pipeline(traces, cfg);
    pipeline.train_forecasters(0, day);
    const auto reference =
        per_agent_reference(traces, cfg, pipeline, day, 2 * day);
    pipeline.train_ems(day, 2 * day);
    std::vector<double> fused;
    for (std::size_t h = 0; h < traces.size(); ++h) {
      for (std::size_t d = 0; d < traces[h].devices.size(); ++d) {
        const auto* agent = pipeline.agent_ptr(h, d);
        if (agent == nullptr) continue;
        const auto p = agent->network().parameters();
        fused.insert(fused.end(), p.begin(), p.end());
      }
    }
    EXPECT_EQ(fused, reference) << "shards=" << shards;
    EXPECT_GT(reg.counter("ems.learn_calls").value(), 0u);
    EXPECT_EQ(reg.counter("ems.fused_fallback_groups").value(), 0u);
    EXPECT_GT(reg.counter("dfl.fused_fallback_groups").value(), 0u);
  }
}

// EMS shard timing comes from the compute cells, so a sharded run
// records it whatever its fault plan: a clean PFDRL run and a lossy one
// alike.
TEST(Pipeline, ShardTimingRecordedCleanAndLossy) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  for (const double drop : {0.0, 0.2}) {
    obs::MetricsRegistry reg;
    auto cfg = tiny_pipeline(EmsMethod::kPfdrl);
    cfg.shards = 2;
    cfg.fault.link.drop_probability = drop;
    cfg.metrics = &reg;
    EmsPipeline pipeline(scenario.traces, cfg);
    pipeline.train_forecasters(0, day);
    pipeline.train_ems(day, 2 * day);
    const std::uint64_t rounds = reg.counter("ems.rounds").value();
    ASSERT_GT(rounds, 0u);
    EXPECT_EQ(reg.counter("drl.rounds").value(), rounds) << "drop " << drop;
    EXPECT_GE(reg.gauge("ems.shard.imbalance").value(), 1.0) << "drop " << drop;
    EXPECT_EQ(reg.histogram("ems.shard.seconds").count(), 2 * rounds)
        << "drop " << drop;
  }
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto scenario = tiny();
  const std::size_t day = data::kMinutesPerDay;
  const auto run = [&] {
    EmsPipeline pipeline(scenario.traces, tiny_pipeline(EmsMethod::kPfdrl));
    pipeline.train_forecasters(0, day);
    pipeline.train_ems(day, 2 * day);
    const auto results = pipeline.evaluate(day, 2 * day);
    double total = 0.0;
    for (const auto& r : results) total += r.total_reward;
    return total;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace pfdrl::core
