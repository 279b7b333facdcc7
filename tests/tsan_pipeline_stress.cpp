// Data-race stress for the dependency-driven round pipeline: repeated
// fl::RoundPipeline segments driving fl::ParamExchange's pipelined
// schedule (per-shard publish/apply over refcounted payload double buffers)
// on a 4-worker pool, so the per-(shard, round) readiness counters, the
// continuation handoff, and the frozen-inbox/live-compute buffer split
// all run under maximum scheduler pressure. A second case runs whole
// fl::DflTrainer forecast runs (tiny LSTMs, 4 shards, decentralized) on
// the round driver, where fused training cells, exchange commits into
// live forecaster parameters and the shared metric counters all overlap.
// Built with -fsanitize=thread (see tests/CMakeLists.txt); a clean exit
// 0 is the pass signal. Every pipelined repetition must reproduce the
// barrier (or unsharded) reference hash bitwise, so the checks double as
// a lost-update / double-apply detector when the binary is run without
// TSan.
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "data/household.hpp"
#include "data/trace.hpp"
#include "fl/dfl.hpp"
#include "fl/exchange.hpp"
#include "fl/rounds.hpp"
#include "net/bus.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pfdrl;

constexpr std::size_t kAgents = 32;
constexpr std::size_t kShards = 8;
constexpr std::size_t kParams = 16;
constexpr std::size_t kRounds = 10;
constexpr int kReps = 8;
constexpr std::uint64_t kSeed = 42;

std::uint64_t fnv1a(std::span<const double> params,
                    std::uint64_t h = 1469598103934665603ULL) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// One engine instance: bus + router + parameter arena, identical for
/// the bsp reference and every pipelined repetition.
struct Setup {
  net::MessageBus bus;
  net::ShardRouter router;
  std::vector<double> params;
  std::vector<fl::ExchangeItem> items;

  explicit Setup(const net::Topology& topology)
      : bus(topology, {}),
        router(kAgents, kShards),
        params(kAgents * kParams),
        items(kAgents) {
    bus.set_shard_router(&router);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] =
          static_cast<double>(net::detail::mix64(kSeed ^ i) >> 40) * 1e-6;
    }
    for (std::size_t a = 0; a < kAgents; ++a) {
      const std::span<double> slice(params.data() + a * kParams, kParams);
      items[a] = {.agent = static_cast<net::AgentId>(a),
                  .device_type = 0,
                  .send = slice,
                  .in_place = slice};
    }
  }

  // Pure function of (seed, round, agent) — schedule-independent.
  void local_step(std::size_t a, std::uint64_t r) {
    for (std::size_t i = 0; i < kParams; ++i) {
      const std::uint64_t g = net::detail::mix64(
          kSeed ^ (r * 1315423911ULL) ^ (a * kParams + i));
      params[a * kParams + i] =
          params[a * kParams + i] * 0.999 + static_cast<double>(g >> 40) * 1e-9;
    }
  }
};

fl::ParamExchange::Options exchange_options() {
  fl::ParamExchange::Options opts;
  opts.kind = net::MessageKind::kForecastParams;
  opts.min_group = 2;
  return opts;
}

/// Barrier-schedule reference: the oracle hash every pipelined rep must
/// reproduce bitwise.
std::uint64_t run_bsp(const net::Topology& topology) {
  Setup setup(topology);
  fl::ParamExchange exchange(setup.bus, exchange_options(), setup.items);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t a = 0; a < kAgents; ++a) setup.local_step(a, r);
    exchange.round(r, [](std::size_t, std::span<const double>) {});
  }
  return fnv1a(setup.params);
}

std::uint64_t run_pipeline(const net::Topology& topology) {
  Setup setup(topology);
  fl::ParamExchange exchange(setup.bus, exchange_options(), setup.items);
  if (exchange.num_shards() != kShards) {
    std::fprintf(stderr, "FATAL: exchange shard count %zu != %zu\n",
                 exchange.num_shards(), kShards);
    std::exit(1);
  }
  fl::RoundPipeline pipe(fl::shard_broadcast_graph(
      topology, [&](net::AgentId a) { return setup.router.shard_of(a); },
      kShards));
  fl::RoundPipeline::Ops ops;
  ops.compute = [&](std::size_t s, std::uint64_t r) {
    for (std::size_t a = s * (kAgents / kShards);
         a < (s + 1) * (kAgents / kShards); ++a) {
      setup.local_step(a, r);
    }
  };
  ops.publish = [&](std::size_t s, std::uint64_t r) {
    exchange.publish_shard(s, r);
  };
  ops.apply = [&](std::size_t s, std::uint64_t r) {
    exchange.apply_shard(s, r, [](std::size_t, std::span<const double>) {});
  };
  pipe.run(util::ThreadPool::global(), 0, kRounds, ops);

  const auto& stats = pipe.stats();
  if (stats.rounds != kRounds || stats.shard_rounds != kRounds * kShards) {
    std::fprintf(stderr, "FATAL: pipeline retired %llu rounds / %llu cells\n",
                 static_cast<unsigned long long>(stats.rounds),
                 static_cast<unsigned long long>(stats.shard_rounds));
    std::exit(1);
  }
  return fnv1a(setup.params);
}

/// One DFL forecast run over `traces`: tiny LSTMs, decentralized full
/// mesh, four β-rounds. Returns the hash of every forecaster's
/// parameters; `pipelined_rounds` receives dfl.pipeline.rounds.
std::uint64_t run_dfl(const std::vector<data::HouseholdTrace>& traces,
                      std::size_t shards, std::uint64_t& pipelined_rounds) {
  obs::MetricsRegistry reg;
  fl::DflConfig cfg;
  cfg.method = forecast::Method::kLstm;
  cfg.window.window = 6;
  cfg.window.horizon = 3;
  cfg.train.epochs = 1;
  cfg.train.stride = 40;
  cfg.broadcast_period_hours = 6.0;
  cfg.shards = shards;
  cfg.metrics = &reg;
  fl::DflTrainer trainer(traces, cfg);
  trainer.run(0, 24 * 60);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t home = 0; home < traces.size(); ++home) {
    for (std::size_t d = 0; d < traces[home].devices.size(); ++d) {
      h = fnv1a(trainer.forecaster(home, d).parameters(), h);
    }
  }
  pipelined_rounds = reg.counter("dfl.pipeline.rounds").value();
  return h;
}

}  // namespace

int main() {
  // 4 workers regardless of the host: the handoff pressure the job is
  // for. Must precede the first ThreadPool::global() touch.
  util::ThreadPool::set_global_workers(4);

  // Hierarchical (sparse shard graph — real overlap, partial readiness
  // targets) and full mesh (all-to-all readiness, maximum contention on
  // every counter).
  const net::Topology topologies[] = {
      net::Topology(net::TopologyKind::kHierarchical, kAgents,
                    net::TopologyOptions{.cluster_size = kAgents / kShards,
                                         .fanout = 3,
                                         .gossip_seed = kSeed}),
      net::Topology(net::TopologyKind::kFullMesh, kAgents),
  };
  for (const net::Topology& topology : topologies) {
    const std::uint64_t oracle = run_bsp(topology);
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t got = run_pipeline(topology);
      if (got != oracle) {
        std::fprintf(stderr,
                     "FATAL: rep %d hash %016llx != bsp oracle %016llx\n", rep,
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(oracle));
        return 1;
      }
    }
  }

  data::NeighborhoodConfig nc;
  nc.num_households = 8;
  nc.min_devices = 2;
  nc.max_devices = 2;
  nc.seed = kSeed;
  data::TraceConfig tc;
  tc.days = 1;
  tc.seed = kSeed;
  std::vector<data::HouseholdTrace> traces;
  for (const auto& home : data::make_neighborhood(nc)) {
    traces.push_back(data::generate_household_trace(home, tc));
  }
  std::uint64_t pipelined = 0;
  const std::uint64_t dfl_oracle = run_dfl(traces, 0, pipelined);
  constexpr int kDflReps = 3;
  for (int rep = 0; rep < kDflReps; ++rep) {
    const std::uint64_t got = run_dfl(traces, 4, pipelined);
    if (pipelined != 4) {
      std::fprintf(stderr, "FATAL: DFL rep %d pipelined %llu of 4 rounds\n",
                   rep, static_cast<unsigned long long>(pipelined));
      return 1;
    }
    if (got != dfl_oracle) {
      std::fprintf(stderr,
                   "FATAL: DFL rep %d hash %016llx != unsharded oracle "
                   "%016llx\n",
                   rep, static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(dfl_oracle));
      return 1;
    }
  }
  std::printf("tsan_pipeline_stress: %d pipelined reps x 2 topologies "
              "matched the bsp oracle, %d sharded DFL runs matched the "
              "unsharded one — OK\n",
              kReps, kDflReps);
  return 0;
}
