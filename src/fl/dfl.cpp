#include "fl/dfl.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "fl/rounds.hpp"
#include "forecast/fused.hpp"
#include "forecast/metrics.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {

const char* aggregation_mode_name(AggregationMode m) noexcept {
  switch (m) {
    case AggregationMode::kDecentralized: return "decentralized";
    case AggregationMode::kCentralized: return "centralized";
    case AggregationMode::kNone: return "local";
  }
  return "?";
}

namespace {
net::TopologyKind topology_for(AggregationMode m) noexcept {
  return m == AggregationMode::kCentralized ? net::TopologyKind::kStar
                                            : net::TopologyKind::kFullMesh;
}

// Forecast bus = bus id 1 in the experiment's fault-seed namespace (the
// DRL federation bus is id 2). Only derived when the plan itself carries
// no seed, so explicit FaultPlan::seed always wins.
net::FaultPlan seeded_fault(net::FaultPlan fault, std::uint64_t exp_seed) {
  if (fault.seed == 0) fault.seed = net::derive_fault_seed(exp_seed, 1);
  return fault;
}
}  // namespace

DflTrainer::DflTrainer(const std::vector<data::HouseholdTrace>& traces,
                       DflConfig cfg)
    : traces_(traces),
      cfg_(cfg),
      router_(cfg.shards > 1
                  ? std::make_unique<net::ShardRouter>(
                        std::max<std::size_t>(1, traces.size()), cfg.shards)
                  : nullptr),
      codec_(cfg.wire_codec || cfg.wire_quant
                 ? std::make_unique<net::WireCodec>(
                       net::CodecOptions{.quantize = cfg.wire_quant})
                 : nullptr),
      bus_(net::Topology(cfg.topology.value_or(topology_for(cfg.aggregation)),
                         std::max<std::size_t>(1, traces.size()),
                         cfg.topology_options),
           seeded_fault(cfg.fault, cfg.seed)) {
  if (router_) bus_.set_shard_router(router_.get());
  if (codec_) bus_.set_codec(codec_.get());
  if (traces_.empty()) throw std::invalid_argument("DflTrainer: no traces");
  if (cfg_.secure_aggregation &&
      (!cfg_.fault.reliable() || cfg_.robustness.degraded())) {
    throw std::invalid_argument(
        "DflTrainer: secure aggregation needs a reliable link and no "
        "degradation policy (pairwise masks only cancel under full "
        "participation)");
  }
  const net::TopologyKind bus_kind = bus_.topology().kind();
  if (cfg_.secure_aggregation && bus_kind != net::TopologyKind::kFullMesh &&
      bus_kind != net::TopologyKind::kStar) {
    throw std::invalid_argument(
        "DflTrainer: secure aggregation needs a full-view topology "
        "(full_mesh or star) — sparse broadcasts leave masks uncancelled");
  }
  const std::size_t minutes = traces_.front().minutes();
  for (const auto& t : traces_) {
    if (t.minutes() != minutes) {
      throw std::invalid_argument("DflTrainer: trace length mismatch");
    }
  }
  agents_.resize(traces_.size());
  for (std::size_t h = 0; h < traces_.size(); ++h) {
    for (std::size_t d = 0; d < traces_[h].devices.size(); ++d) {
      // Same (method, window, seed) everywhere: the paper requires all
      // residences to start from the same default model per device type,
      // otherwise averaging mixes incompatible coordinate systems.
      const auto type =
          static_cast<std::uint64_t>(traces_[h].devices[d].spec.type);
      agents_[h].devices.push_back(forecast::make_forecaster(
          cfg_.method, cfg_.window, cfg_.seed * 1000 + type));
    }
  }
}

DflTrainer::~DflTrainer() = default;

std::size_t DflTrainer::run(std::size_t train_begin, std::size_t train_end) {
  // One job per (home, device), home-major. The exchange items follow the
  // same order (Alg. 1's aggregation step, one item per job); forecasters
  // expose no mutable flat span, so averages arrive through the commit.
  struct Job {
    std::size_t home;
    std::size_t dev;
  };
  std::vector<Job> jobs;
  std::vector<std::size_t> job_homes;
  std::vector<ExchangeItem> items;
  for (std::size_t h = 0; h < agents_.size(); ++h) {
    for (std::size_t d = 0; d < agents_[h].devices.size(); ++d) {
      jobs.push_back({h, d});
      job_homes.push_back(h);
      items.push_back(
          {.agent = static_cast<net::AgentId>(h),
           .device_type =
               static_cast<std::uint32_t>(traces_[h].devices[d].spec.type),
           .send = agents_[h].devices[d]->parameters(),
           .in_place = {}});
    }
  }
  const CellPlan plan = plan_cells(job_homes, agents_.size(), cfg_.shards);
  while (fused_pool_.size() < plan.cells()) {
    fused_pool_.push_back(std::make_unique<forecast::FusedForecastTrainer>());
  }

  // One session for the whole run: the items' spans are the live
  // forecaster parameters, which training and commits update in place.
  const SecureAggregator aggregator(cfg_.secure);
  std::optional<ParamExchange> session;
  if (cfg_.aggregation != AggregationMode::kNone && agents_.size() > 1) {
    ParamExchange::Options options;
    options.kind = net::MessageKind::kForecastParams;
    options.secure = cfg_.secure_aggregation ? &aggregator : nullptr;
    options.metrics = cfg_.metrics;
    options.group_size_histogram = "dfl.agg_group_size";
    options.policy = cfg_.robustness;
    session.emplace(bus_, std::move(options), std::move(items));
  }

  obs::Counter* windows_counter = nullptr;
  obs::Counter* fallback_counter = nullptr;
  obs::Counter* trained_counter = nullptr;
  if (cfg_.metrics != nullptr) {
    windows_counter = &cfg_.metrics->counter("dfl.train_windows");
    fallback_counter = &cfg_.metrics->counter("dfl.fused_fallback_groups");
    trained_counter = &cfg_.metrics->counter("dfl.devices_trained");
  }
  // Small-batch training (paper Table 2): federated agents train on a
  // bounded sample of each round's windows and lean on aggregation for
  // coverage; the Local baseline (kNone) uses everything it has. The
  // span/stride arithmetic is home-independent (every forecaster shares
  // cfg_.window), which is what lets a fused group share one config.
  const auto capped_train = [&](const forecast::Forecaster& model,
                                std::size_t begin, std::size_t end) {
    forecast::TrainConfig train =
        forecast::resolve_train_config(cfg_.method, cfg_.train);
    const std::size_t hist = data::history_needed(model.window_config());
    const std::size_t span = end > begin + hist ? end - begin - hist : 0;
    if (cfg_.max_round_samples > 0 &&
        cfg_.aggregation != AggregationMode::kNone) {
      const std::size_t n = span / std::max<std::size_t>(1, train.stride);
      if (n > cfg_.max_round_samples) {
        train.stride = (span + cfg_.max_round_samples - 1) /
                       cfg_.max_round_samples;
      }
    }
    return std::pair{train, span};
  };

  RoundLoop loop;
  loop.prefix = "dfl";
  loop.metrics = cfg_.metrics;
  loop.session = session ? &*session : nullptr;
  loop.commit = [&](std::size_t i, std::span<const double> averaged) {
    agents_[jobs[i].home].devices[jobs[i].dev]->set_parameters(averaged);
  };
  loop.fold = [&](const ExchangeStats& stats) {
    if (cfg_.metrics == nullptr) return;
    cfg_.metrics->counter("dfl.contributions_accepted").add(stats.accepted);
    cfg_.metrics->counter("dfl.contributions_rejected").add(stats.rejected);
  };
  // A cell's jobs train as one fused group. Per-job RNGs fork from the
  // explicit round id, so results do not depend on the cell or thread
  // that trains a job.
  loop.compute = [&](std::size_t c, std::uint64_t r, std::size_t begin,
                     std::size_t end) {
    const std::size_t jb = plan.job_begin[c];
    const std::size_t je = plan.job_begin[c + 1];
    if (jb == je) return;
    std::vector<util::Rng> rngs;
    rngs.reserve(je - jb);
    std::vector<forecast::FusedTrainJob> fjobs(je - jb);
    for (std::size_t j = jb; j < je; ++j) {
      const auto [h, d] = jobs[j];
      rngs.push_back(util::Rng(cfg_.seed).fork(r * 10000 + h * 100 + d));
      fjobs[j - jb] = {agents_[h].devices[d].get(), &traces_[h].devices[d],
                       &rngs.back(), 0.0};
    }
    const auto [train, span] =
        capped_train(*fjobs.front().forecaster, begin, end);
    if (windows_counter != nullptr) {
      windows_counter->add(static_cast<std::uint64_t>(je - jb) *
                           (span / std::max<std::size_t>(1, train.stride)));
    }
    if (!fused_pool_[c]->train(fjobs, begin, end, train)) {
      // Non-fusable group (closed-form method, mismatched shapes):
      // per-job fallback with the still-unconsumed forked RNGs.
      if (fallback_counter != nullptr) fallback_counter->add(1);
      for (std::size_t j = jb; j < je; ++j) {
        const auto [h, d] = jobs[j];
        agents_[h].devices[d]->train(traces_[h].devices[d], begin, end,
                                     train, rngs[j - jb]);
      }
    }
  };
  loop.round_done = [&](std::uint64_t r) {
    rounds_done_ = r + 1;
    if (trained_counter != nullptr) trained_counter->add(jobs.size());
  };
  const std::size_t rounds = run_rounds(
      plan, loop, rounds_done_, train_begin, train_end,
      static_cast<std::size_t>(cfg_.broadcast_period_hours * 60.0));

  if (cfg_.metrics != nullptr) {
    obs::record_bus_stats(*cfg_.metrics, "bus.forecast", bus_.stats());
    if (router_) {
      obs::record_shard_router_stats(*cfg_.metrics, "bus.forecast",
                                     router_->stats());
    }
    if (codec_) {
      obs::record_codec_stats(*cfg_.metrics, "wire.forecast",
                              codec_->stats());
    }
  }
  return rounds;
}

const forecast::Forecaster& DflTrainer::forecaster(std::size_t home,
                                                   std::size_t dev) const {
  return *agents_.at(home).devices.at(dev);
}

forecast::Forecaster& DflTrainer::mutable_forecaster(std::size_t home,
                                                     std::size_t dev) {
  return *agents_.at(home).devices.at(dev);
}

double DflTrainer::mean_test_accuracy(std::size_t begin,
                                      std::size_t end) const {
  util::RunningStats stats;
  for (double acc : per_agent_accuracy(begin, end)) stats.add(acc);
  return stats.mean();
}

std::vector<double> DflTrainer::per_agent_accuracy(std::size_t begin,
                                                   std::size_t end) const {
  std::vector<double> out(agents_.size(), 0.0);
  util::ThreadPool::global().parallel_for(0, agents_.size(), [&](std::size_t h) {
    util::RunningStats stats;
    for (std::size_t d = 0; d < agents_[h].devices.size(); ++d) {
      const auto result = forecast::evaluate(*agents_[h].devices[d],
                                             traces_[h].devices[d], begin, end);
      if (result.samples > 0) stats.add(result.mean_accuracy);
    }
    out[h] = stats.mean();
  });
  return out;
}

}  // namespace pfdrl::fl
