// Shard assignment arithmetic, the cross-shard batching router, and the
// engine-level equivalence contracts the sharded refactor rests on:
// attaching a router must not change what a clean-plan bus delivers or
// bills, and an exchange round on a routed bus (which fans out on the
// pool) must be bitwise identical to one on a flat bus.
#include "net/shard_router.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "fl/exchange.hpp"
#include "net/bus.hpp"
#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "util/shard.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl {
namespace {

// --- util::shard ------------------------------------------------------

TEST(ShardMath, ContiguousBalancedAndInverse) {
  for (std::size_t n : {1u, 2u, 7u, 10u, 100u}) {
    for (std::size_t shards : {1u, 2u, 3u, 8u, 100u, 150u}) {
      // shard_of must be the exact inverse of the shard_begin partition.
      for (std::size_t s = 0; s < std::min(shards, n); ++s) {
        const std::size_t lo = util::shard_begin(s, n, shards);
        const std::size_t hi = util::shard_begin(s + 1, n, shards);
        EXPECT_LE(hi - lo, (n + shards - 1) / shards);
        for (std::size_t i = lo; i < hi; ++i) {
          EXPECT_EQ(util::shard_of(i, n, shards), s)
              << "n=" << n << " shards=" << shards << " i=" << i;
        }
      }
      // Monotone, total cover.
      EXPECT_EQ(util::shard_begin(0, n, shards), 0u);
      EXPECT_EQ(util::shard_begin(shards, n, shards), n);
    }
  }
}

TEST(ShardMath, UnshardedIsShardZero) {
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(util::shard_of(i, 5, 0), 0u);
    EXPECT_EQ(util::shard_of(i, 5, 1), 0u);
  }
}

TEST(ShardMath, TimingImbalance) {
  util::ShardTiming empty;
  EXPECT_DOUBLE_EQ(empty.max_over_mean(), 1.0);
  util::ShardTiming t;
  t.shard_seconds = {1.0, 1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(t.max_over_mean(), 2.0);  // max 4 / mean 2
}

TEST(ShardMath, ShardedForVisitsEverythingOnce) {
  util::ThreadPool pool(2);
  std::vector<int> visits(100, 0);
  const util::ShardTiming timing = util::sharded_for(
      pool, visits.size(), 4,
      [&](std::size_t i) { return util::shard_of(i, visits.size(), 4); },
      [&](std::size_t i) { visits[i] += 1; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 100);
  EXPECT_EQ(timing.shard_seconds.size(), 4u);
}

// --- ShardRouter ------------------------------------------------------

TEST(ShardRouter, CtorValidatesAndClamps) {
  EXPECT_THROW(net::ShardRouter(0, 2), std::invalid_argument);
  net::ShardRouter clamped(3, 99);
  EXPECT_EQ(clamped.num_shards(), 3u);  // never more shards than agents
  net::ShardRouter floor(8, 0);
  EXPECT_EQ(floor.num_shards(), 1u);
}

TEST(ShardRouter, CrossShardMatchesAssignment) {
  net::ShardRouter router(10, 2);  // shards {0..4}, {5..9}
  EXPECT_FALSE(router.cross_shard(0, 4));
  EXPECT_TRUE(router.cross_shard(0, 5));
  EXPECT_TRUE(router.cross_shard(9, 1));
  EXPECT_EQ(router.shard_of(4), 0u);
  EXPECT_EQ(router.shard_of(5), 1u);
}

net::Message make_msg(net::AgentId sender, double tag) {
  net::Message m;
  m.sender = sender;
  m.payload = std::vector<double>{tag};
  return m;
}

TEST(ShardRouter, FlushOrderIsPinnedRowMajor) {
  net::ShardRouter router(9, 3);  // shards {0,1,2} {3,4,5} {6,7,8}
  // Enqueue in scrambled pair order; two messages on the (2,0) pair to
  // check in-pair FIFO.
  router.enqueue(0, make_msg(7, 1.0));   // pair (2,0)
  router.enqueue(6, make_msg(0, 2.0));   // pair (0,2)
  router.enqueue(1, make_msg(8, 3.0));   // pair (2,0) again
  router.enqueue(3, make_msg(2, 4.0));   // pair (0,1)
  EXPECT_EQ(router.pending(), 4u);

  std::vector<double> tags;
  std::vector<net::AgentId> targets;
  const std::size_t n = router.flush([&](net::AgentId to, net::Message&& m) {
    targets.push_back(to);
    tags.push_back(m.payload[0]);
  });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(router.pending(), 0u);
  // Ascending (src shard, dst shard): (0,1), (0,2), then (2,0) in FIFO.
  EXPECT_EQ(tags, (std::vector<double>{4.0, 2.0, 1.0, 3.0}));
  EXPECT_EQ(targets, (std::vector<net::AgentId>{3, 6, 0, 1}));

  const auto stats = router.stats();
  EXPECT_EQ(stats.messages_batched, 4u);
  EXPECT_EQ(stats.batches_flushed, 3u);  // three non-empty pairs
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.max_batch_depth, 2u);
  EXPECT_GT(stats.batched_bytes, 0u);
}

TEST(ShardRouter, EnqueueOutOfRangeThrows) {
  net::ShardRouter router(4, 2);
  EXPECT_THROW(router.enqueue(4, make_msg(0, 0.0)), std::out_of_range);
  EXPECT_THROW(router.enqueue(0, make_msg(9, 0.0)), std::out_of_range);
}

// --- Bus equivalence with and without a router ------------------------

TEST(ShardedBus, CleanPlanDeliveryAndBillingUnchanged) {
  constexpr std::size_t kAgents = 6;
  net::MessageBus flat(net::Topology(net::TopologyKind::kFullMesh, kAgents),
                       {});
  net::MessageBus sharded(
      net::Topology(net::TopologyKind::kFullMesh, kAgents), {});
  net::ShardRouter router(kAgents, 2);
  sharded.set_shard_router(&router);

  for (net::AgentId a = 0; a < kAgents; ++a) {
    EXPECT_EQ(flat.broadcast(make_msg(a, static_cast<double>(a))),
              sharded.broadcast(make_msg(a, static_cast<double>(a))));
  }
  EXPECT_GT(router.pending(), 0u);
  sharded.flush_shard_batches();

  // Every inbox drains the same multiset of senders; wire billing is
  // per delivery, so the stats lines agree exactly.
  for (net::AgentId a = 0; a < kAgents; ++a) {
    auto lhs = flat.drain(a);
    auto rhs = sharded.drain(a);
    ASSERT_EQ(lhs.size(), rhs.size()) << "agent " << a;
    std::vector<net::AgentId> ls, rs;
    for (const auto& m : lhs) ls.push_back(m.sender);
    for (const auto& m : rhs) rs.push_back(m.sender);
    std::sort(ls.begin(), ls.end());
    std::sort(rs.begin(), rs.end());
    EXPECT_EQ(ls, rs) << "agent " << a;
  }
  const auto fs = flat.stats();
  const auto ss = sharded.stats();
  EXPECT_EQ(fs.messages_sent, ss.messages_sent);
  EXPECT_EQ(fs.messages_delivered, ss.messages_delivered);
  EXPECT_EQ(fs.bytes_on_wire, ss.bytes_on_wire);
  EXPECT_EQ(fs.simulated_transfer_seconds, ss.simulated_transfer_seconds);
}

// --- Sharded exchange is bitwise identical to flat --------------------

// With a router attached the round parks cross-shard deliveries in pair
// batches, flushes them after the broadcast, then fans its drain and
// aggregate steps out on the pool; without one it runs every phase
// inline. Either way every item averages the same sorted contribution
// set, and the bus bills the same deliveries and wire bytes — with the
// lossless codec on as well.
TEST(ShardedExchange, RouterMatchesNoRouterBitwise) {
  constexpr std::size_t kAgents = 8;
  constexpr std::size_t kParams = 12;

  struct Outcome {
    std::vector<double> params;
    net::BusStats bus;
  };
  const auto run = [&](bool with_router, bool codec_on) {
    net::MessageBus bus(
        net::Topology(net::TopologyKind::kFullMesh, kAgents), {});
    net::ShardRouter router(kAgents, 4);
    net::WireCodec codec;
    if (with_router) bus.set_shard_router(&router);
    if (codec_on) bus.set_codec(&codec);

    Outcome out;
    out.params.resize(kAgents * kParams);
    for (std::size_t i = 0; i < out.params.size(); ++i) {
      out.params[i] = static_cast<double>((i * 2654435761u) % 1000) / 997.0;
    }
    std::vector<fl::ExchangeItem> items(kAgents);
    for (std::size_t a = 0; a < kAgents; ++a) {
      const std::span<double> slice(out.params.data() + a * kParams, kParams);
      items[a] = {.agent = static_cast<net::AgentId>(a),
                  .device_type = static_cast<std::uint32_t>(a % 2),
                  .send = slice,
                  .in_place = slice};
    }
    fl::ParamExchange exchange(bus, {}, std::move(items));
    EXPECT_EQ(bus.shard_router() != nullptr, with_router);
    for (std::uint64_t r = 0; r < 3; ++r) {
      exchange.round(r, [](std::size_t, std::span<const double>) {});
    }
    out.bus = bus.stats();
    return out;
  };

  for (const bool codec_on : {false, true}) {
    const Outcome flat = run(false, codec_on);
    const Outcome sharded = run(true, codec_on);
    ASSERT_EQ(flat.params.size(), sharded.params.size());
    for (std::size_t i = 0; i < flat.params.size(); ++i) {
      EXPECT_EQ(flat.params[i], sharded.params[i])  // bitwise
          << "codec " << codec_on << " param " << i;
    }
    EXPECT_EQ(flat.bus.messages_delivered, sharded.bus.messages_delivered)
        << "codec " << codec_on;
    EXPECT_EQ(flat.bus.bytes_on_wire, sharded.bus.bytes_on_wire)
        << "codec " << codec_on;
    EXPECT_GT(sharded.bus.messages_delivered, 0u);
  }
}

// --- sim::ShardPlan cost-weighted assignment --------------------------

TEST(WeightedShardPlan, EqualWeightsReproduceUniformBoundaries) {
  for (std::size_t n : {7u, 10u, 100u, 1000u}) {
    for (std::size_t shards : {2u, 3u, 8u}) {
      const std::vector<std::size_t> weights(n, 5);
      const auto uniform = sim::ShardPlan::make(n, shards);
      const auto weighted = sim::ShardPlan::make_weighted(weights, shards);
      ASSERT_TRUE(weighted.weighted());
      ASSERT_EQ(weighted.shards, uniform.shards);  // same clamping
      for (std::size_t s = 0; s < weighted.shards; ++s) {
        EXPECT_EQ(weighted.shard_range(s), uniform.shard_range(s))
            << n << " homes, " << shards << " shards, shard " << s;
      }
    }
  }
}

TEST(WeightedShardPlan, ShardOfInvertsRangesAndStaysMonotone) {
  // Device count ramps across the city — the pattern that skews the
  // uniform equal-count plan hardest.
  const std::size_t n = 10000;
  std::vector<std::size_t> weights(n);
  for (std::size_t a = 0; a < n; ++a) weights[a] = 1 + (3 * a) / n;
  const auto plan = sim::ShardPlan::make_weighted(weights, 8);
  ASSERT_EQ(plan.shards, 8u);
  std::size_t covered = 0;
  std::size_t prev_shard = 0;
  for (std::size_t s = 0; s < plan.shards; ++s) {
    const auto [first, last] = plan.shard_range(s);
    EXPECT_EQ(first, covered);  // contiguous, no gaps
    EXPECT_LT(first, last);     // non-empty
    for (std::size_t home = first; home < last; ++home) {
      ASSERT_EQ(plan.shard_of(home), s);
      ASSERT_GE(s, prev_shard);  // monotone in the home id
      prev_shard = s;
    }
    covered = last;
  }
  EXPECT_EQ(covered, n);
}

TEST(WeightedShardPlan, RampWeightsCutCostImbalance) {
  const std::size_t n = 10000;
  std::vector<std::size_t> weights(n);
  for (std::size_t a = 0; a < n; ++a) weights[a] = 1 + (3 * a) / n;
  const auto uniform = sim::ShardPlan::make(n, 8);
  const auto weighted = sim::ShardPlan::make_weighted(weights, 8);
  // Equal-count shards put all the heavy homes in the last shard...
  EXPECT_GT(uniform.weight_imbalance(weights), 1.5);
  // ...while weight-balanced boundaries even the cost out.
  EXPECT_LT(weighted.weight_imbalance(weights), 1.05);
  EXPECT_LT(weighted.weight_imbalance(weights),
            uniform.weight_imbalance(weights));
}

TEST(WeightedShardPlan, DegenerateInputsFallBackToUniform) {
  // One shard, or all-zero weights: no boundaries, uniform arithmetic.
  EXPECT_FALSE(
      sim::ShardPlan::make_weighted(std::vector<std::size_t>(10, 3), 1)
          .weighted());
  EXPECT_FALSE(
      sim::ShardPlan::make_weighted(std::vector<std::size_t>(10, 0), 4)
          .weighted());
  // Fewer homes than shards clamps like make() does.
  const auto plan =
      sim::ShardPlan::make_weighted(std::vector<std::size_t>(3, 1), 8);
  EXPECT_EQ(plan.shards, 3u);
}

TEST(ShardRouter, WeightedBoundariesAgreeWithPlan) {
  const std::size_t n = 1000;
  std::vector<std::size_t> weights(n);
  for (std::size_t a = 0; a < n; ++a) weights[a] = 1 + (3 * a) / n;
  const auto plan = sim::ShardPlan::make_weighted(weights, 6);
  net::ShardRouter router(n, plan.boundaries);
  EXPECT_EQ(router.num_shards(), plan.shards);
  for (std::size_t a = 0; a < n; ++a) {
    ASSERT_EQ(router.shard_of(static_cast<net::AgentId>(a)),
              plan.shard_of(a));
  }
}

TEST(ShardRouter, MalformedBoundariesThrow) {
  using Bounds = std::vector<std::size_t>;
  EXPECT_THROW(net::ShardRouter(10, Bounds{0}), std::invalid_argument);
  EXPECT_THROW(net::ShardRouter(10, Bounds{1, 10}), std::invalid_argument);
  EXPECT_THROW(net::ShardRouter(10, Bounds{0, 9}), std::invalid_argument);
  EXPECT_THROW(net::ShardRouter(10, Bounds{0, 5, 5, 10}),
               std::invalid_argument);
  EXPECT_THROW(net::ShardRouter(10, Bounds{0, 7, 3, 10}),
               std::invalid_argument);
  EXPECT_NO_THROW(net::ShardRouter(10, Bounds{0, 3, 7, 10}));
}

}  // namespace
}  // namespace pfdrl
