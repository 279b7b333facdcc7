// ParamExchange engine unit tests: grouped averaging, shape guard, star
// relay, secure-aggregation masking, in-place prefix averaging, the
// zero-copy allocation guarantee (payload copies scale with items, not
// receivers), item validation, and sharded star and lossy rounds.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fl/exchange.hpp"
#include "fl/secure_agg.hpp"
#include "net/bus.hpp"
#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"

namespace pfdrl::fl {
namespace {

// One flat parameter vector per agent, all the same device type.
std::vector<std::vector<double>> make_params(std::size_t agents,
                                             std::size_t len) {
  std::vector<std::vector<double>> params(agents, std::vector<double>(len));
  for (std::size_t a = 0; a < agents; ++a) {
    for (std::size_t i = 0; i < len; ++i) {
      params[a][i] = static_cast<double>(a * 100 + i);
    }
  }
  return params;
}

std::vector<ExchangeItem> make_items(std::vector<std::vector<double>>& params,
                                     std::uint32_t type = 7) {
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < params.size(); ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = type,
                     .send = params[a],
                     .in_place = {}});
  }
  return items;
}

TEST(ParamExchange, FullMeshAveragesPerGroup) {
  const std::size_t n = 3;
  auto params = make_params(n, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange exchange(bus, {}, make_items(params));

  std::vector<std::vector<double>> committed(n);
  const auto stats =
      exchange.round(0, [&](std::size_t i, std::span<const double> averaged) {
        committed[i].assign(averaged.begin(), averaged.end());
      });

  EXPECT_EQ(stats.accepted, n * (n - 1));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.items_averaged, n);
  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(committed[a].size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      // mean over agents of (a*100 + i) = 100 + i for n = 3.
      EXPECT_DOUBLE_EQ(committed[a][i], 100.0 + static_cast<double>(i));
    }
  }
}

TEST(ParamExchange, PayloadCopiesScaleWithItemsNotReceivers) {
  // The acceptance criterion for the zero-copy refactor: a full-mesh
  // broadcast performs O(1) payload allocations per item regardless of
  // how many receivers fan out.
  for (const std::size_t n : {std::size_t{4}, std::size_t{12}}) {
    auto params = make_params(n, 32);
    net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
    obs::MetricsRegistry reg;
    ParamExchange::Options options;
    options.metrics = &reg;
    ParamExchange exchange(bus, options, make_items(params));
    const auto stats = exchange.round(0, {});
    EXPECT_EQ(stats.payload_allocations, n) << "receivers=" << n - 1;
    EXPECT_EQ(reg.counter("exchange.payload_copies").value(), n);
    EXPECT_EQ(reg.counter("exchange.items").value(), n);
    EXPECT_EQ(reg.counter("exchange.rounds").value(), 1u);
  }
}

TEST(ParamExchange, ShapeGuardRejectsMismatchedContributions) {
  const std::size_t n = 3;
  auto params = make_params(n, 4);
  params[2].resize(6, 0.0);  // odd one out
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange exchange(bus, {}, make_items(params));

  std::vector<bool> touched(n, false);
  const auto stats =
      exchange.round(0, [&](std::size_t i, std::span<const double>) {
        touched[i] = true;
      });

  // Agents 0/1 accept each other and reject agent 2 (one rejection
  // each); agent 2 rejects both of theirs and averages nothing.
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.items_averaged, 2u);
  EXPECT_TRUE(touched[0]);
  EXPECT_TRUE(touched[1]);
  EXPECT_FALSE(touched[2]);  // below min_group: keeps local parameters
}

TEST(ParamExchange, DisjointTypesNeverMix) {
  const std::size_t n = 2;
  auto params = make_params(n, 3);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < n; ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = static_cast<std::uint32_t>(a),  // unique
                     .send = params[a],
                     .in_place = {}});
  }
  ParamExchange exchange(bus, {}, std::move(items));
  const auto stats =
      exchange.round(0, [](std::size_t, std::span<const double>) { FAIL(); });
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.items_averaged, 0u);
}

TEST(ParamExchange, StarHubRelaysLeafContributions) {
  const std::size_t n = 3;
  auto params = make_params(n, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kStar, n));
  ParamExchange exchange(bus, {}, make_items(params));

  std::vector<std::vector<double>> committed(n);
  const auto stats =
      exchange.round(0, [&](std::size_t i, std::span<const double> averaged) {
        committed[i].assign(averaged.begin(), averaged.end());
      });

  // Each of the two leaf messages is relayed to the one other leaf.
  EXPECT_EQ(stats.relayed, 2u);
  // Despite the star, every agent ends with the full contribution set
  // and the same average as the full mesh.
  EXPECT_EQ(stats.accepted, n * (n - 1));
  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(committed[a].size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(committed[a][i], 100.0 + static_cast<double>(i));
    }
  }
}

TEST(ParamExchange, InPlacePrefixLeavesPersonalizationSuffix) {
  const std::size_t n = 2;
  const std::size_t len = 6;
  const std::size_t prefix = 4;
  auto params = make_params(n, len);
  const auto original = params;
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, n));
  std::vector<ExchangeItem> items;
  for (std::size_t a = 0; a < n; ++a) {
    items.push_back({.agent = static_cast<net::AgentId>(a),
                     .device_type = 7,
                     .send = std::span<const double>(params[a]).subspan(0, prefix),
                     .in_place = params[a]});
  }
  ParamExchange exchange(bus, {}, std::move(items));
  std::size_t commits = 0;
  const auto stats =
      exchange.round(0, [&](std::size_t, std::span<const double> averaged) {
        EXPECT_EQ(averaged.size(), prefix);
        ++commits;
      });
  EXPECT_EQ(commits, n);
  EXPECT_EQ(stats.params_averaged, n * prefix);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t i = 0; i < prefix; ++i) {
      const double mean = (original[0][i] + original[1][i]) / 2.0;
      EXPECT_DOUBLE_EQ(params[a][i], mean);
    }
    for (std::size_t i = prefix; i < len; ++i) {
      EXPECT_DOUBLE_EQ(params[a][i], original[a][i]);  // untouched
    }
  }
}

TEST(ParamExchange, SecureMasksCancelInTheMean) {
  const std::size_t n = 3;
  auto params = make_params(n, 8);
  net::MessageBus plain_bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange plain(plain_bus, {}, make_items(params));
  std::vector<std::vector<double>> want(n);
  plain.round(5, [&](std::size_t i, std::span<const double> averaged) {
    want[i].assign(averaged.begin(), averaged.end());
  });

  const SecureAggregator aggregator;
  net::MessageBus masked_bus(net::Topology(net::TopologyKind::kFullMesh, n));
  ParamExchange::Options options;
  options.secure = &aggregator;
  ParamExchange masked(masked_bus, options, make_items(params));
  std::vector<std::vector<double>> got(n);
  masked.round(5, [&](std::size_t i, std::span<const double> averaged) {
    got[i].assign(averaged.begin(), averaged.end());
  });

  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(got[a].size(), want[a].size());
    for (std::size_t i = 0; i < got[a].size(); ++i) {
      // Pairwise masks cancel in the sum; only float cancellation error
      // survives.
      EXPECT_NEAR(got[a][i], want[a][i], 1e-9);
    }
  }
}

TEST(ParamExchange, RejectsItemForAgentNotOnTheBus) {
  auto params = make_params(3, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 2));
  // Agent 2 does not exist on a 2-agent bus: its inbox would be read out
  // of bounds at aggregation.
  EXPECT_THROW(ParamExchange(bus, {}, make_items(params)),
               std::invalid_argument);
}

TEST(ParamExchange, RejectsItemsNotSortedByAgent) {
  auto params = make_params(3, 4);
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, 3));
  auto items = make_items(params);
  std::swap(items[0], items[2]);
  EXPECT_THROW(ParamExchange(bus, {}, std::move(items)),
               std::invalid_argument);
}

TEST(ParamExchange, ShardedStarAndLossyRoundsRun) {
  // A star hub relays leaves in item order and stochastic faults draw
  // the per-bus stream in delivery order; with a shard router attached
  // both still run whole rounds.
  auto params = make_params(4, 4);
  net::MessageBus star(net::Topology(net::TopologyKind::kStar, 4));
  net::ShardRouter star_router(4, 2);
  star.set_shard_router(&star_router);
  ParamExchange on_star(star, {}, make_items(params));
  EXPECT_EQ(on_star.round(0, {}).items_averaged, 4u);

  net::FaultPlan lossy;
  lossy.link.drop_probability = 0.1;
  net::MessageBus mesh(net::Topology(net::TopologyKind::kFullMesh, 4), lossy);
  net::ShardRouter mesh_router(4, 2);
  mesh.set_shard_router(&mesh_router);
  ParamExchange on_lossy(mesh, {}, make_items(params));
  EXPECT_NO_THROW(on_lossy.round(0, {}));
}

}  // namespace
}  // namespace pfdrl::fl
