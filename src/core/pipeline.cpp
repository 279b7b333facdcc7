#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "fl/exchange.hpp"
#include "net/shard_router.hpp"
#include "obs/metrics.hpp"
#include "rl/fused.hpp"
#include "util/shard.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::core {

bool shares_ems_plans(EmsMethod m) noexcept {
  return m == EmsMethod::kFrl || m == EmsMethod::kPfdrl;
}

namespace {

fl::AggregationMode forecast_aggregation(EmsMethod m) noexcept {
  switch (m) {
    case EmsMethod::kLocal: return fl::AggregationMode::kNone;
    case EmsMethod::kFl:
    case EmsMethod::kFrl: return fl::AggregationMode::kCentralized;
    case EmsMethod::kPfdrl: return fl::AggregationMode::kDecentralized;
    case EmsMethod::kCloud: break;  // handled by CloudTrainer
  }
  return fl::AggregationMode::kNone;
}

}  // namespace

EmsPipeline::EmsPipeline(const std::vector<data::HouseholdTrace>& traces,
                         PipelineConfig cfg)
    : traces_(traces),
      cfg_(cfg),
      runner_(
          traces_,
          [this](std::size_t home, std::size_t dev, std::size_t begin,
                 std::size_t end) {
            return forecast_series(home, dev, begin, end);
          },
          cfg_.meter_interval_minutes, &metrics()) {
  if (traces_.empty()) throw std::invalid_argument("EmsPipeline: no traces");
  if (const std::size_t shards = std::min(cfg_.shards, traces_.size());
      shards > 1) {
    metrics().gauge("ems.shard.count").set(static_cast<double>(shards));
  }

  // Forecasting backend.
  if (cfg_.method == EmsMethod::kCloud) {
    fl::CloudConfig cc;
    cc.method = cfg_.forecast_method;
    cc.window = cfg_.window;
    cc.train = cfg_.forecast_train;
    cc.round_period_hours = cfg_.beta_hours;
    cc.seed = cfg_.seed;
    cloud_.emplace(traces_, cc);
  } else {
    fl::DflConfig dc;
    dc.method = cfg_.forecast_method;
    dc.window = cfg_.window;
    dc.train = cfg_.forecast_train;
    dc.broadcast_period_hours = cfg_.beta_hours;
    dc.aggregation = forecast_aggregation(cfg_.method);
    dc.secure_aggregation =
        cfg_.secure_aggregation &&
        dc.aggregation != fl::AggregationMode::kNone;
    dc.seed = cfg_.seed;
    dc.fault = cfg_.fault;  // seed 0 → DflTrainer derives bus-1 stream
    dc.robustness = cfg_.robustness;
    dc.metrics = &metrics();
    dc.shards = cfg_.shards;
    dc.wire_codec = cfg_.wire_codec;
    dc.wire_quant = cfg_.wire_quant;
    dc.topology = cfg_.topology;
    dc.topology_options = cfg_.topology_options;
    dfl_.emplace(traces_, dc);
  }

  // One DQN per (home, actionable device). Protected devices (fridge,
  // HVAC, water heater — autonomous duty cyclers) are metered and
  // forecast but never actuated, so they get no agent (nullptr slot).
  // Weight seed is shared across residences per device type (homologous
  // networks must start identical for averaging to be meaningful);
  // exploration seeds differ per home.
  agents_.resize(traces_.size());
  for (std::size_t h = 0; h < traces_.size(); ++h) {
    agents_[h].reserve(traces_[h].devices.size());
    for (std::size_t d = 0; d < traces_[h].devices.size(); ++d) {
      if (traces_[h].devices[d].spec.protected_device) {
        agents_[h].push_back(nullptr);
        continue;
      }
      rl::DqnConfig qc = cfg_.dqn;
      qc.state_dim = ems::EmsEnvironment::kStateDim;
      qc.num_actions = ems::kNumActions;
      const auto type =
          static_cast<std::uint64_t>(traces_[h].devices[d].spec.type);
      qc.seed = cfg_.seed * 7919 + type;
      qc.exploration_seed = cfg_.seed * 104729 + h * 257 + type + 1;
      agents_[h].push_back(std::make_unique<rl::DqnAgent>(qc));
    }
  }

  if (shares_ems_plans(cfg_.method)) {
    const rl::DqnAgent* any = nullptr;
    for (const auto& home : agents_) {
      for (const auto& a : home) {
        if (a) { any = a.get(); break; }
      }
      if (any) break;
    }
    if (any == nullptr) {
      throw std::invalid_argument("EmsPipeline: no actionable devices");
    }
    const std::size_t layers = any->network().num_layers();
    const std::size_t share =
        cfg_.method == EmsMethod::kFrl ? layers
                                       : std::min(cfg_.alpha, layers);
    const auto topology = cfg_.topology.value_or(
        cfg_.method == EmsMethod::kFrl ? net::TopologyKind::kStar
                                       : net::TopologyKind::kFullMesh);
    // The DRL plan exchange rides the same fault plan as the forecast
    // path but on its own RNG stream (bus id 2) so the two buses never
    // share a drop mask; the per-type shape guard keeps averaging
    // well-formed when contributions go missing.
    net::FaultPlan drl_fault = cfg_.fault;
    if (drl_fault.seed == 0) {
      drl_fault.seed = net::derive_fault_seed(cfg_.seed, 2);
    }
    federation_.emplace(traces_.size(), share, topology, std::move(drl_fault),
                        &metrics(), cfg_.robustness, cfg_.topology_options,
                        cfg_.shards, cfg_.wire_codec, cfg_.wire_quant);
  }
}

EmsPipeline::~EmsPipeline() = default;

void EmsPipeline::train_forecasters(std::size_t begin, std::size_t end) {
  obs::SpanTimer span(metrics().histogram("forecast.train_seconds"));
  if (cloud_) {
    cloud_->run(begin, end);
  } else {
    dfl_->run(begin, end);
  }
  // Model parameters moved: every cached forecast series is stale.
  runner_.invalidate_forecasts();
}

double EmsPipeline::forecast_accuracy(std::size_t begin,
                                      std::size_t end) const {
  return cloud_ ? cloud_->mean_test_accuracy(begin, end)
                : dfl_->mean_test_accuracy(begin, end);
}

std::vector<double> EmsPipeline::forecast_series(std::size_t home,
                                                 std::size_t dev,
                                                 std::size_t begin,
                                                 std::size_t end) const {
  const auto& trace = traces_[home].devices[dev];
  const forecast::Forecaster& model =
      cloud_ ? cloud_->model_for_type(trace.spec.type)
             : dfl_->forecaster(home, dev);
  auto series = model.predict_series(trace, begin, end);
  // predict_series targets start at max(begin, window): pad the leading
  // minutes (no history yet) with the real reading so indices align.
  const std::size_t first =
      data::first_feasible_target(model.window_config(), begin);
  std::vector<double> out;
  out.reserve(end - begin);
  for (std::size_t m = begin; m < first && m < end; ++m) {
    out.push_back(trace.watts[m]);
  }
  out.insert(out.end(), series.begin(), series.end());
  out.resize(end - begin, trace.spec.standby_watts);
  return out;
}

void EmsPipeline::run_fused_group(const std::vector<EmsJob>& jobs,
                                  const fl::CellPlan& plan, std::size_t c,
                                  std::size_t begin, std::size_t end,
                                  const EmsRoundCounters& counters) {
  // One decision step per meter interval: each agent commits a mode when
  // a fresh reading arrives, holds it until the next report, and banks
  // the reward integrated over the held interval.
  const std::size_t stride =
      std::max<std::size_t>(1, cfg_.meter_interval_minutes);
  const std::size_t gb = plan.job_begin[c];
  const std::size_t n = plan.job_begin[c + 1] - gb;
  if (n == 0) return;
  std::vector<ems::EmsEnvironment> envs;
  std::vector<rl::DqnAgent*> group_agents;
  envs.reserve(n);
  group_agents.reserve(n);
  for (std::size_t j = gb; j < gb + n; ++j) {
    const auto [h, d] = jobs[j];
    envs.push_back(runner_.environment(h, d, begin, end));
    group_agents.push_back(agents_[h][d].get());
  }
  std::uint64_t steps = 0;
  std::uint64_t learns = 0;
  std::vector<std::array<double, ems::EmsEnvironment::kStateDim>> states(n);
  std::vector<std::array<double, ems::EmsEnvironment::kStateDim>>
      next_states(n);
  std::vector<double> losses(n);
  rl::FusedDqnLearner& learner = *fused_learners_[c];
  // Lockstep rollout of members [i0, i1), which share one environment
  // length. Every agent is built from one cfg_.dqn, so the learner never
  // refuses a group.
  const auto rollout = [&](std::size_t i0, std::size_t i1) {
    const std::span<rl::DqnAgent* const> members(&group_agents[i0], i1 - i0);
    const std::size_t len = envs[i0].length();
    for (std::size_t i = i0; i < i1; ++i) envs[i].state_into(0, states[i]);
    for (std::size_t t = 0; t < len; t += stride) {
      const std::size_t t_next = std::min(t + stride, len);
      const bool terminal = t_next >= len;
      for (std::size_t i = i0; i < i1; ++i) {
        rl::DqnAgent& agent = *group_agents[i];
        const ems::EmsEnvironment& env = envs[i];
        const int action = agent.act(states[i]);
        double r = 0.0;
        for (std::size_t m = t; m < t_next; ++m) {
          r += env.reward_at(m, action);
        }
        if (terminal) {
          next_states[i] = states[i];
        } else {
          env.state_into(t_next, next_states[i]);
        }
        agent.remember({{states[i].begin(), states[i].end()},
                        action,
                        r,
                        {next_states[i].begin(), next_states[i].end()},
                        terminal});
        states[i] = next_states[i];
      }
      // `t` is a minute offset but advances one meter interval per step:
      // learn whenever the step's interval [t, t+stride) crosses a
      // multiple of the learn period, so the average learn cadence is
      // one step per learn_every_minutes of simulated time regardless of
      // the meter interval (and unaliased against `begin`). The gate
      // depends only on (begin, t), so the members learn on the same
      // ticks.
      if ((begin + t) % cfg_.learn_every_minutes < stride) {
        if (!learner.learn(members, {&losses[i0], i1 - i0})) {
          throw std::logic_error("EmsPipeline: learner refused a group");
        }
        learns += i1 - i0;
      }
      steps += i1 - i0;
    }
  };
  const bool ragged =
      std::any_of(envs.begin(), envs.end(), [&](const ems::EmsEnvironment& e) {
        return e.length() != envs.front().length();
      });
  if (ragged) {
    // Ragged environments can't run in lockstep: one member at a time,
    // each a learner group of one.
    for (std::size_t i = 0; i < n; ++i) rollout(i, i + 1);
    counters.fused_fallback_groups.add(1);
  } else {
    rollout(0, n);
  }
  counters.env_steps.add(steps);
  counters.replay_pushes.add(steps);
  counters.learn_calls.add(learns);
}

void EmsPipeline::train_ems(std::size_t begin, std::size_t end) {
  obs::MetricsRegistry& reg = metrics();
  const EmsRoundCounters counters{reg.counter("ems.env_steps"),
                                  reg.counter("ems.replay_pushes"),
                                  reg.counter("ems.learn_calls"),
                                  reg.counter("ems.fused_fallback_groups")};
  obs::Gauge& eps_gauge = reg.gauge("ems.epsilon");
  obs::Series& eps_series = reg.series("ems.epsilon_series");

  // The window's work-list: one job per live (home, device) agent,
  // home-major, and its compute cells (one fused group each).
  std::vector<EmsJob> jobs;
  std::vector<std::size_t> job_homes;
  for (std::size_t h = 0; h < agents_.size(); ++h) {
    for (std::size_t d = 0; d < agents_[h].size(); ++d) {
      if (agents_[h][d]) {
        jobs.push_back({h, d});
        job_homes.push_back(h);
      }
    }
  }
  const fl::CellPlan plan =
      fl::plan_cells(job_homes, traces_.size(), cfg_.shards);
  while (fused_learners_.size() < plan.cells()) {
    fused_learners_.push_back(std::make_unique<rl::FusedDqnLearner>());
  }

  // Home-major federated device list, one per job, made once: the
  // exchange session holds spans into the live networks, which never
  // move during training.
  std::vector<FederatedDevice> devices;
  fl::RoundLoop loop;
  std::unique_ptr<fl::ParamExchange> session;
  if (federation_) {
    devices.reserve(jobs.size());
    for (const auto& [h, d] : jobs) {
      devices.push_back(
          {static_cast<net::AgentId>(h),
           static_cast<std::uint32_t>(traces_[h].devices[d].spec.type),
           agents_[h][d].get()});
    }
    session = federation_->open_rounds(devices, loop);
  }

  // Per-job exploration rates of the current round, flat-summed in
  // ascending job order at round_done so the recorded mean never depends
  // on which cell finished first (per-cell partial sums would drift in
  // ulps).
  std::vector<double> round_eps(jobs.size(), 0.0);
  std::mutex restart_mutex;

  loop.prefix = "ems";
  loop.metrics = &reg;
  loop.compute = [&](std::size_t c, std::uint64_t r, std::size_t wb,
                     std::size_t we) {
    // Warm-restart hook: a residence whose crash window ended with the
    // previous round re-enters this round having lost its process state;
    // the installed hook (sim::SnapshotManager) reloads it from its last
    // snapshot before any new experience is collected. Cell-local and
    // driven by the explicit round id; calls are serialized, and distinct
    // homes restore independent state, so cross-cell order doesn't
    // matter.
    if (on_home_restart_ && r > 0) {
      const net::FailureSchedule& failures = cfg_.robustness.failures;
      if (!failures.crashes.empty()) {
        for (std::size_t h = plan.home_begin[c]; h < plan.home_begin[c + 1];
             ++h) {
          const auto id = static_cast<net::AgentId>(h);
          if (failures.crashed(id, r - 1) && !failures.crashed(id, r)) {
            std::lock_guard<std::mutex> lock(restart_mutex);
            on_home_restart_(h);
          }
        }
      }
    }
    run_fused_group(jobs, plan, c, wb, we, counters);
    for (std::size_t j = plan.job_begin[c]; j < plan.job_begin[c + 1]; ++j) {
      round_eps[j] = agents_[jobs[j].home][jobs[j].dev]->epsilon();
    }
  };
  loop.round_done = [&](std::uint64_t r) {
    // Mean exploration rate across agents after this round — the epsilon
    // trajectory is the quickest convergence sanity check in a dump.
    if (!jobs.empty()) {
      double eps_sum = 0.0;
      for (const double e : round_eps) eps_sum += e;
      const double mean = eps_sum / static_cast<double>(jobs.size());
      eps_gauge.set(mean);
      eps_series.append(mean);
    }
    ems_rounds_done_ = r + 1;
  };
  loop.round_end = on_round_end_;
  fl::run_rounds(plan, loop, ems_rounds_done_, begin, end,
                 static_cast<std::size_t>(cfg_.gamma_hours * 60.0));
}

void EmsPipeline::for_each_greedy_rollout(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, const ems::EmsEnvironment&,
                             const std::vector<int>&)>& visit) const {
  // One pool task per home shard (the pinned util::shard_of map, clamped
  // to the home count), or a flat parallel_for when unsharded.
  const std::size_t n = traces_.size();
  const std::size_t shards = std::min(cfg_.shards, n);
  const util::ShardTiming timing = util::sharded_for(
      util::ThreadPool::global(), n, shards,
      [&](std::size_t h) { return util::shard_of(h, n, shards); },
      [&](std::size_t h) {
        for (std::size_t d = 0; d < agents_[h].size(); ++d) {
          if (!agents_[h][d]) continue;
          const ems::EmsEnvironment env = runner_.environment(h, d, begin, end);
          visit(h, env, EpisodeRunner::greedy_actions(*agents_[h][d], env));
        }
      });
  obs::record_shard_timing(metrics(), "ems.eval_shard", timing);
}

std::vector<ems::EpisodeResult> EmsPipeline::evaluate(std::size_t begin,
                                                      std::size_t end) const {
  std::vector<ems::EpisodeResult> per_home(traces_.size());
  // visit runs on the worker owning home h: per_home[h] has one writer.
  for_each_greedy_rollout(
      begin, end,
      [&](std::size_t h, const ems::EmsEnvironment& env,
          const std::vector<int>& actions) {
        per_home[h].merge(ems::score_actions(env, actions));
      });
  return per_home;
}

std::vector<double> EmsPipeline::evaluate_savings_dollars(
    std::size_t begin, std::size_t end, const data::Tariff& tariff,
    std::size_t minute0_of_year) const {
  std::vector<double> per_home(traces_.size(), 0.0);
  for_each_greedy_rollout(
      begin, end,
      [&](std::size_t h, const ems::EmsEnvironment& env,
          const std::vector<int>& actions) {
        per_home[h] += ems::saved_dollars(env, actions, tariff, minute0_of_year);
      });
  return per_home;
}

net::BusStats EmsPipeline::forecast_comm_stats() const {
  return dfl_ ? dfl_->comm_stats() : net::BusStats{};
}

net::BusStats EmsPipeline::drl_comm_stats() const {
  return federation_ ? federation_->comm_stats() : net::BusStats{};
}

obs::MetricsRegistry& EmsPipeline::metrics() const noexcept {
  return cfg_.metrics != nullptr ? *cfg_.metrics
                                 : obs::MetricsRegistry::global();
}

void EmsPipeline::sync_runtime_metrics() const {
  obs::MetricsRegistry& reg = metrics();
  obs::record_bus_stats(reg, "bus.forecast", forecast_comm_stats());
  obs::record_bus_stats(reg, "bus.drl", drl_comm_stats());
  if (dfl_ && dfl_->shard_router() != nullptr) {
    obs::record_shard_router_stats(reg, "bus.forecast",
                                   dfl_->shard_router()->stats());
  }
  if (federation_ && federation_->shard_router() != nullptr) {
    obs::record_shard_router_stats(reg, "bus.drl",
                                   federation_->shard_router()->stats());
  }
  // Combined wire.* rollup across both federation buses; the per-bus
  // views live under wire.forecast / wire.drl.
  if ((dfl_ && dfl_->wire_codec() != nullptr) ||
      (federation_ && federation_->wire_codec() != nullptr)) {
    net::CodecStats combined;
    for (const net::WireCodec* codec :
         {dfl_ ? dfl_->wire_codec() : nullptr,
          federation_ ? federation_->wire_codec() : nullptr}) {
      if (codec == nullptr) continue;
      const net::CodecStats s = codec->stats();
      combined.frames += s.frames;
      combined.repeat_frames += s.repeat_frames;
      combined.raw_escapes += s.raw_escapes;
      combined.raw_bytes += s.raw_bytes;
      combined.coded_bytes += s.coded_bytes;
      combined.encode_ns += s.encode_ns;
      combined.decode_ns += s.decode_ns;
    }
    obs::record_codec_stats(reg, "wire", combined);
  }
  obs::record_thread_pool_stats(reg, "pool",
                                util::ThreadPool::global().stats());
  obs::record_nn_workspace_stats(reg);
  obs::record_nn_kernel_stats(reg);
  obs::record_nn_fused_stats(reg);
}

const rl::DqnAgent& EmsPipeline::agent(std::size_t home,
                                       std::size_t dev) const {
  const auto& slot = agents_.at(home).at(dev);
  if (!slot) {
    throw std::out_of_range("EmsPipeline::agent: protected device has none");
  }
  return *slot;
}

rl::DqnAgent* EmsPipeline::mutable_agent(std::size_t home, std::size_t dev) {
  return agents_.at(home).at(dev).get();
}

}  // namespace pfdrl::core
