// Data-race stress for the round loop: fl::run_rounds trains parallel
// compute cells, then runs the whole fl::ParamExchange::round, which on a
// sharded bus encodes every sender's messages on the pool (one task per
// agent, kAgents / kShards = 4 agents per shard, so encodes on distinct
// codec streams run concurrently), broadcasts in item order, hands the
// cross-shard pair batches over, and then drains every inbox and
// aggregates every item on the pool — racing the codec's stream map,
// stats and per-thread scratch, the inboxes, the exchange tallies and the
// commits into live parameter slices. The cases run on a sharded bus with
// the lossless wire codec on, full mesh and hierarchical, plus whole
// fl::DflTrainer forecast runs (tiny LSTMs, 4 shards) where fused
// training cells, exchange commits into live forecaster parameters and
// the shared metric counters all meet.
//
// Built with -fsanitize=thread (see tests/CMakeLists.txt); a clean exit
// 0 is the pass signal. The optional argument pins the global pool's
// worker count (default 4); ctest runs the binary at 1 and at 4. Every
// sharded repetition must reproduce the unsharded reference bitwise —
// parameters, bytes on the wire and deliveries — so the checks double as
// a lost-update / double-apply detector when the binary runs without
// TSan.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "data/household.hpp"
#include "data/trace.hpp"
#include "fl/dfl.hpp"
#include "fl/exchange.hpp"
#include "fl/rounds.hpp"
#include "net/bus.hpp"
#include "net/codec.hpp"
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

/// What one engine run leaves behind; sharded runs must match the
/// unsharded reference field for field.
struct Outcome {
  std::uint64_t hash = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t messages_delivered = 0;

  bool operator==(const Outcome&) const = default;
};

/// One engine run over `kRounds` rounds of fl::run_rounds: one job per
/// agent, a pure per-(seed, round, agent) local step as the cell work,
/// and one codec-on exchange session. `shards` <= 1 leaves the bus
/// unrouted (serial exchange, pool-sized cells).
Outcome run_engine(const net::Topology& topology, std::size_t shards) {
  net::MessageBus bus(topology, {});
  net::ShardRouter router(kAgents, shards > 1 ? shards : 1);
  net::WireCodec codec;
  if (shards > 1) bus.set_shard_router(&router);
  bus.set_codec(&codec);

  std::vector<double> params(kAgents * kParams);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i] = static_cast<double>(net::detail::mix64(kSeed ^ i) >> 40) * 1e-6;
  }
  std::vector<fl::ExchangeItem> items(kAgents);
  std::vector<std::size_t> job_homes(kAgents);
  for (std::size_t a = 0; a < kAgents; ++a) {
    const std::span<double> slice(params.data() + a * kParams, kParams);
    items[a] = {.agent = static_cast<net::AgentId>(a),
                .device_type = 0,
                .send = slice,
                .in_place = slice};
    job_homes[a] = a;
  }
  fl::ParamExchange::Options opts;
  opts.kind = net::MessageKind::kForecastParams;
  fl::ParamExchange exchange(bus, opts, std::move(items));

  const fl::CellPlan plan = fl::plan_cells(job_homes, kAgents, shards);
  fl::RoundLoop loop;
  loop.session = &exchange;
  loop.compute = [&](std::size_t c, std::uint64_t r, std::size_t,
                     std::size_t) {
    for (std::size_t a = plan.home_begin[c]; a < plan.home_begin[c + 1]; ++a) {
      for (std::size_t i = 0; i < kParams; ++i) {
        const std::uint64_t g = net::detail::mix64(
            kSeed ^ (r * 1315423911ULL) ^ (a * kParams + i));
        params[a * kParams + i] = params[a * kParams + i] * 0.999 +
                                  static_cast<double>(g >> 40) * 1e-9;
      }
    }
  };
  fl::run_rounds(plan, loop, 0, 0, kRounds, 1);

  const net::BusStats stats = bus.stats();
  return {fnv1a(params), stats.bytes_on_wire, stats.messages_delivered};
}

/// One DFL forecast run over `traces`: tiny LSTMs, decentralized full
/// mesh, four β-rounds. Returns the hash of every forecaster's
/// parameters; `rounds` receives dfl.rounds.
std::uint64_t run_dfl(const std::vector<data::HouseholdTrace>& traces,
                      std::size_t shards, std::uint64_t& rounds) {
  obs::MetricsRegistry reg;
  fl::DflConfig cfg;
  cfg.method = forecast::Method::kLstm;
  cfg.window.window = 6;
  cfg.window.horizon = 3;
  cfg.train.epochs = 1;
  cfg.train.stride = 40;
  cfg.broadcast_period_hours = 6.0;
  cfg.shards = shards;
  cfg.wire_codec = true;
  cfg.metrics = &reg;
  fl::DflTrainer trainer(traces, cfg);
  trainer.run(0, 24 * 60);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t home = 0; home < traces.size(); ++home) {
    for (std::size_t d = 0; d < traces[home].devices.size(); ++d) {
      h = fnv1a(trainer.forecaster(home, d).parameters(), h);
    }
  }
  rounds = reg.counter("dfl.rounds").value();
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  // Must precede the first ThreadPool::global() touch.
  const long workers = argc > 1 ? std::atol(argv[1]) : 4;
  if (workers < 1) {
    std::fprintf(stderr, "usage: %s [pool-workers >= 1]\n", argv[0]);
    return 2;
  }
  util::ThreadPool::set_global_workers(static_cast<std::size_t>(workers));

  // Full mesh (every shard sends into every other shard's inboxes — the
  // most cross-shard traffic) and hierarchical (sparse cross-shard
  // traffic).
  const net::Topology topologies[] = {
      net::Topology(net::TopologyKind::kFullMesh, kAgents),
      net::Topology(net::TopologyKind::kHierarchical, kAgents,
                    net::TopologyOptions{.cluster_size = kAgents / kShards,
                                         .fanout = 3,
                                         .gossip_seed = kSeed}),
  };
  for (const net::Topology& topology : topologies) {
    const Outcome oracle = run_engine(topology, 0);
    for (int rep = 0; rep < kReps; ++rep) {
      const Outcome got = run_engine(topology, kShards);
      if (!(got == oracle)) {
        std::fprintf(stderr,
                     "FATAL: rep %d hash %016llx bytes %llu delivered %llu != "
                     "unsharded %016llx bytes %llu delivered %llu\n",
                     rep, static_cast<unsigned long long>(got.hash),
                     static_cast<unsigned long long>(got.bytes_on_wire),
                     static_cast<unsigned long long>(got.messages_delivered),
                     static_cast<unsigned long long>(oracle.hash),
                     static_cast<unsigned long long>(oracle.bytes_on_wire),
                     static_cast<unsigned long long>(
                         oracle.messages_delivered));
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
  std::uint64_t rounds = 0;
  const std::uint64_t dfl_oracle = run_dfl(traces, 0, rounds);
  constexpr int kDflReps = 3;
  for (int rep = 0; rep < kDflReps; ++rep) {
    const std::uint64_t got = run_dfl(traces, 4, rounds);
    if (rounds != 4) {
      std::fprintf(stderr, "FATAL: DFL rep %d ran %llu of 4 rounds\n", rep,
                   static_cast<unsigned long long>(rounds));
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
  std::printf("tsan_round_stress (%ld workers): %d sharded reps x 2 "
              "topologies matched the unsharded run, %d sharded DFL runs "
              "matched the unsharded one — OK\n",
              workers, kReps, kDflReps);
  return 0;
}
