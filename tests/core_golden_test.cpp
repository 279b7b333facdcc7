// Fixed-seed golden determinism test for the PFDRL pipeline.
//
// Runs a small but complete PFDRL pipeline (3 homes, 4 devices each,
// LR forecasters, 2-hidden-layer DQNs, alpha = 2 so the federated round
// exercises the prefix split) and asserts the forecast accuracy and the
// per-home EpisodeResult totals are *bitwise* identical to values
// recorded from the pre-ParamExchange implementation. Every stage is
// deterministic by construction (per-job forked RNGs, fixed aggregation
// order, fixed-order chunked reductions), so any drift here means a
// refactor changed numerical behaviour, not just structure.
//
// If this test fails after an *intentional* semantic change, re-record
// the constants by running the test and copying the "golden actual"
// block it prints on failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>

#include "core/pipeline.hpp"
#include "data/trace.hpp"
#include "forecast/forecaster.hpp"
#include "nn/kernels.hpp"
#include "obs/metrics.hpp"
#include "rl/dqn.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"

namespace pfdrl {
namespace {

struct GoldenHome {
  double total_reward;
  double standby_kwh;
  double saved_kwh;
  std::size_t comfort_violations;
  double violation_kwh;
  std::size_t steps;
};

// Recorded from the seed implementation (PR 1 tree) with the exact
// configuration in run_small(); %.17g round-trips doubles exactly.
constexpr double kGoldenAccuracy = 0.64804216308708673;
const GoldenHome kGolden[3] = {
    {34620, 0.13383352753431202, 0.13383352753431202, 4,
     0.012029867034949609, 2880},
    {53280, 0.26892035280230486, 0.072634918212407307, 1,
     0.0014929682995983061, 4320},
    {34860, 0.10526374927161707, 0.094155883730830184, 2,
     0.042400546539063777, 4320},
};

struct SmallOutcome {
  double accuracy = 0.0;
  std::vector<ems::EpisodeResult> results;
  /// dfl.rounds and ems.rounds: the rounds each federated phase ran.
  std::uint64_t dfl_rounds = 0;
  std::uint64_t ems_rounds = 0;
};

SmallOutcome run_small(std::size_t shards, bool wire_codec = false) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 3;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 4;
  sc.neighborhood.seed = 42;
  sc.trace.days = 2;
  sc.trace.seed = 42;
  const auto traces = sim::Scenario::generate(sc).traces;

  auto cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, 42);
  cfg.forecast_method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  cfg.dqn.hidden = {12, 12};
  cfg.alpha = 2;  // genuine base/personalization split (3 dense layers)
  cfg.gamma_hours = 6.0;
  cfg.shards = shards;
  cfg.wire_codec = wire_codec;
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;

  core::EmsPipeline pipeline(traces, cfg);
  const std::size_t day = data::kMinutesPerDay;
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);

  SmallOutcome out;
  out.dfl_rounds = reg.counter("dfl.rounds").value();
  out.ems_rounds = reg.counter("ems.rounds").value();
  out.accuracy = pipeline.forecast_accuracy(day, 2 * day);
  out.results = pipeline.evaluate(day, 2 * day);
  return out;
}

void expect_golden(const SmallOutcome& out) {
  ASSERT_EQ(out.results.size(), 3u);
  if (out.accuracy != kGoldenAccuracy) {
    std::printf("golden actual:\n  accuracy %.17g\n", out.accuracy);
    for (const auto& r : out.results) {
      std::printf("  {%.17g, %.17g, %.17g, %zu, %.17g, %zu},\n",
                  r.total_reward, r.standby_kwh, r.saved_kwh,
                  r.comfort_violations, r.violation_kwh, r.steps);
    }
  }
  EXPECT_EQ(out.accuracy, kGoldenAccuracy);
  for (std::size_t h = 0; h < out.results.size(); ++h) {
    const auto& r = out.results[h];
    EXPECT_EQ(r.total_reward, kGolden[h].total_reward) << "home " << h;
    EXPECT_EQ(r.standby_kwh, kGolden[h].standby_kwh) << "home " << h;
    EXPECT_EQ(r.saved_kwh, kGolden[h].saved_kwh) << "home " << h;
    EXPECT_EQ(r.comfort_violations, kGolden[h].comfort_violations)
        << "home " << h;
    EXPECT_EQ(r.violation_kwh, kGolden[h].violation_kwh) << "home " << h;
    EXPECT_EQ(r.steps, kGolden[h].steps) << "home " << h;
  }
}

TEST(GoldenPfdrl, SmallRunIsBitwiseStable) { expect_golden(run_small(0)); }

// A sharded run (one compute cell per shard, batched cross-shard
// routing) must reproduce the unsharded run bitwise on a clean fault
// plan — the same pinned constants, not merely run-to-run agreement. See
// docs/scaling.md for why this holds (order-independent clean delivery +
// sorted drains + per-job forked RNGs).
TEST(GoldenPfdrl, ShardedRunMatchesFlatGoldenBitwise) {
  expect_golden(run_small(2));
}

// The lossless wire codec must be invisible to every pinned constant:
// received parameters are bitwise what the sender broadcast, and coded
// frame sizes only feed the wire-byte ledger (which no golden quantity
// reads under the no-deadline policy). Flat and sharded engines, codec
// on — same goldens, unmodified.
TEST(GoldenPfdrl, WireCodecOnMatchesGoldenBitwise) {
  expect_golden(run_small(0, /*wire_codec=*/true));
  expect_golden(run_small(2, /*wire_codec=*/true));
}

// Sharded runs hand cross-shard traffic over as batched pair slabs,
// drain and aggregate on the pool and train one compute cell per shard;
// unsharded runs deliver directly, exchange inline and train one cell
// per pool thread. Both federated phases must run the same rounds and
// match the same pinned constants, codec off and on: every item averages
// the same contribution set in the same pinned sort order however the
// round fans out.
TEST(GoldenPfdrl, ShardedRoundsMatchFlatRoundsBitwise) {
  const SmallOutcome flat = run_small(0);
  EXPECT_GT(flat.dfl_rounds, 0u);
  EXPECT_GT(flat.ems_rounds, 0u);
  expect_golden(flat);
  for (const bool codec : {false, true}) {
    const SmallOutcome sharded = run_small(2, codec);
    EXPECT_EQ(sharded.dfl_rounds, flat.dfl_rounds) << "codec " << codec;
    EXPECT_EQ(sharded.ems_rounds, flat.ems_rounds) << "codec " << codec;
    expect_golden(sharded);
  }
}

// Chaos determinism: a fully loaded fault plan (drops, delay+jitter,
// duplication, reordering, a partition window, a crashed residence, a
// straggler, a deadline and a quorum gate) must still be bitwise
// reproducible per seed — all fault randomness rides per-bus seeded
// streams drawn in a fixed delivery order. Twin runs pin the determinism
// property; the pinned constants further down pin the trajectory itself,
// so a change in the order the exchange round draws the fault stream
// cannot pass unnoticed.
struct ChaosOutcome {
  double accuracy = 0.0;
  std::vector<ems::EpisodeResult> results;
  std::uint64_t quorum_met = 0;
  std::uint64_t quorum_missed = 0;
  std::uint64_t stale_rounds = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_crashes = 0;
  std::uint64_t late_msgs = 0;
  std::uint64_t retries = 0;
};

ChaosOutcome run_chaos(std::uint64_t seed, std::size_t shards = 0,
                       core::EmsMethod method = core::EmsMethod::kPfdrl) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 4;
  sc.neighborhood.min_devices = 4;
  sc.neighborhood.max_devices = 4;
  sc.neighborhood.seed = seed;
  sc.trace.days = 2;
  sc.trace.seed = seed;
  const auto traces = sim::Scenario::generate(sc).traces;

  auto cfg = sim::fast_pipeline(method, seed);
  cfg.forecast_method = forecast::Method::kLr;
  cfg.window.window = 8;
  cfg.window.horizon = 5;
  cfg.dqn.hidden = {12, 12};
  cfg.alpha = 2;
  cfg.beta_hours = 6.0;
  cfg.gamma_hours = 3.0;  // many DRL rounds so every fault window fires
  cfg.fault.link.drop_probability = 0.2;
  cfg.fault.delay_s = 0.002;
  cfg.fault.jitter_s = 0.004;
  cfg.fault.duplicate_probability = 0.05;
  cfg.fault.reorder = true;
  cfg.fault.partitions.push_back({.from_round = 1,
                                  .until_round = 3,
                                  .group = {0, 1}});
  cfg.robustness.round_deadline_s = 0.006;
  cfg.robustness.quorum_fraction = 0.5;
  cfg.robustness.failures.crashes.push_back(
      {.agent = 2, .from_round = 0, .until_round = 2});
  cfg.robustness.failures.stragglers.push_back(
      {.agent = 3, .compute_delay_s = 0.02});
  cfg.shards = shards;
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;

  core::EmsPipeline pipeline(traces, cfg);
  const std::size_t day = data::kMinutesPerDay;
  pipeline.train_forecasters(0, day);
  pipeline.train_ems(day, 2 * day);

  ChaosOutcome out;
  out.accuracy = pipeline.forecast_accuracy(day, 2 * day);
  out.results = pipeline.evaluate(day, 2 * day);
  out.quorum_met = reg.counter("exchange.quorum_met").value();
  out.quorum_missed = reg.counter("exchange.quorum_missed").value();
  out.stale_rounds = reg.counter("exchange.stale_rounds").value();
  out.fault_drops = reg.counter("fault.drops").value();
  out.fault_crashes = reg.counter("fault.crashes").value();
  out.late_msgs = reg.counter("exchange.late_msgs").value();
  out.retries = reg.counter("exchange.retries").value();
  return out;
}

TEST(GoldenChaos, SeededChaosRunIsBitwiseReproducible) {
  const auto first = run_chaos(42);
  const auto second = run_chaos(42);

  // The chaos actually engaged: faults fired and the degradation
  // machinery made real decisions (otherwise this test pins nothing).
  EXPECT_GT(first.fault_drops, 0u);
  EXPECT_GT(first.fault_crashes, 0u);
  EXPECT_GT(first.quorum_met + first.quorum_missed, 0u);
  EXPECT_GT(first.late_msgs + first.stale_rounds, 0u);

  EXPECT_EQ(first.accuracy, second.accuracy);
  EXPECT_EQ(first.quorum_met, second.quorum_met);
  EXPECT_EQ(first.quorum_missed, second.quorum_missed);
  EXPECT_EQ(first.stale_rounds, second.stale_rounds);
  EXPECT_EQ(first.fault_drops, second.fault_drops);
  EXPECT_EQ(first.late_msgs, second.late_msgs);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t h = 0; h < first.results.size(); ++h) {
    EXPECT_EQ(first.results[h].total_reward, second.results[h].total_reward);
    EXPECT_EQ(first.results[h].standby_kwh, second.results[h].standby_kwh);
    EXPECT_EQ(first.results[h].saved_kwh, second.results[h].saved_kwh);
    EXPECT_EQ(first.results[h].comfort_violations,
              second.results[h].comfort_violations);
    EXPECT_EQ(first.results[h].steps, second.results[h].steps);
  }
}

// Sharded chaos is compared sharded-vs-sharded, never against the flat
// run: fault randomness is consumed in delivery order, and batching
// cross-shard messages changes that order, so the realized fault mask
// legitimately differs between the two engines. What must hold is that
// the sharded engine is itself bitwise reproducible per seed.
TEST(GoldenChaos, ShardedChaosTwinRunsAgree) {
  const auto first = run_chaos(42, /*shards=*/2);
  const auto second = run_chaos(42, /*shards=*/2);

  EXPECT_GT(first.fault_drops, 0u);
  EXPECT_GT(first.fault_crashes, 0u);
  EXPECT_GT(first.quorum_met + first.quorum_missed, 0u);

  EXPECT_EQ(first.accuracy, second.accuracy);
  EXPECT_EQ(first.quorum_met, second.quorum_met);
  EXPECT_EQ(first.quorum_missed, second.quorum_missed);
  EXPECT_EQ(first.stale_rounds, second.stale_rounds);
  EXPECT_EQ(first.fault_drops, second.fault_drops);
  EXPECT_EQ(first.late_msgs, second.late_msgs);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t h = 0; h < first.results.size(); ++h) {
    EXPECT_EQ(first.results[h].total_reward, second.results[h].total_reward);
    EXPECT_EQ(first.results[h].standby_kwh, second.results[h].standby_kwh);
    EXPECT_EQ(first.results[h].saved_kwh, second.results[h].saved_kwh);
    EXPECT_EQ(first.results[h].comfort_violations,
              second.results[h].comfort_violations);
    EXPECT_EQ(first.results[h].steps, second.results[h].steps);
  }
}

// Pinned chaos trajectories. Recorded from an earlier tree with the
// exact configuration in run_chaos(); %.17g round-trips doubles exactly.
// Re-record (copy the "chaos actual" block printed on failure) only
// after an intentional change to fault semantics or draw order.
struct PinnedChaos {
  double accuracy;
  GoldenHome homes[4];
  std::uint64_t quorum_met;
  std::uint64_t quorum_missed;
  std::uint64_t stale_rounds;
  std::uint64_t fault_drops;
  std::uint64_t fault_crashes;
  std::uint64_t late_msgs;
  std::uint64_t retries;
};

const PinnedChaos kChaosFlat = {
    0.57066328298213187,
    {
        {34620, 0.13383352753431202, 0.13383352753431202, 4,
         0.012029867034949609, 2880},
        {56100, 0.26892035280230486, 0.11210176176634434, 0, 0, 4320},
        {24500, 0.10526374927161707, 0.094155883730830184, 2,
         0.042400546539063777, 4320},
        {49680, 0.2851359371341437, 0.2851359371341437, 5,
         0.016762598944584737, 4320},
    },
    26, 112, 112, 150, 14, 162, 0};
const PinnedChaos kChaosSharded = {
    0.52884303281303691,
    {
        {34620, 0.13383352753431202, 0.13383352753431202, 4,
         0.012029867034949609, 2880},
        {52940, 0.26892035280230486, 0.06907766470979862, 1,
         0.0014929682995983061, 4320},
        {40220, 0.10526374927161707, 0.094155883730830184, 2,
         0.042400546539063777, 4320},
        {49680, 0.2851359371341437, 0.2851359371341437, 5,
         0.016762598944584737, 4320},
    },
    28, 110, 110, 150, 14, 159, 0};
const PinnedChaos kChaosFrlStar = {
    0.51568477321980422,
    {
        {34620, 0.13383352753431202, 0.13383352753431202, 4,
         0.012029867034949609, 2880},
        {46980, 0.26892035280230486, 0.01303855626149027, 1,
         0.0014929682995983061, 4320},
        {34660, 0.10526374927161707, 0.094155883730830184, 2,
         0.042400546539063777, 4320},
        {49680, 0.2851359371341437, 0.2851359371341437, 5,
         0.016762598944584737, 4320},
    },
    12, 126, 126, 175, 14, 217, 66};

void expect_pinned(const ChaosOutcome& out, const PinnedChaos& pin) {
  ASSERT_EQ(out.results.size(), 4u);
  const auto mismatch = [&] {
    if (out.accuracy != pin.accuracy) return true;
    for (std::size_t h = 0; h < 4; ++h) {
      const auto& r = out.results[h];
      const auto& g = pin.homes[h];
      if (r.total_reward != g.total_reward || r.standby_kwh != g.standby_kwh ||
          r.saved_kwh != g.saved_kwh ||
          r.comfort_violations != g.comfort_violations ||
          r.violation_kwh != g.violation_kwh || r.steps != g.steps) {
        return true;
      }
    }
    return out.quorum_met != pin.quorum_met ||
           out.quorum_missed != pin.quorum_missed ||
           out.stale_rounds != pin.stale_rounds ||
           out.fault_drops != pin.fault_drops ||
           out.fault_crashes != pin.fault_crashes ||
           out.late_msgs != pin.late_msgs || out.retries != pin.retries;
  };
  if (mismatch()) {
    std::printf("chaos actual:\n    %.17g,\n    {\n", out.accuracy);
    for (const auto& r : out.results) {
      std::printf("        {%.17g, %.17g, %.17g, %zu, %.17g, %zu},\n",
                  r.total_reward, r.standby_kwh, r.saved_kwh,
                  r.comfort_violations, r.violation_kwh, r.steps);
    }
    std::printf("    },\n    %llu, %llu, %llu, %llu, %llu, %llu, %llu\n",
                static_cast<unsigned long long>(out.quorum_met),
                static_cast<unsigned long long>(out.quorum_missed),
                static_cast<unsigned long long>(out.stale_rounds),
                static_cast<unsigned long long>(out.fault_drops),
                static_cast<unsigned long long>(out.fault_crashes),
                static_cast<unsigned long long>(out.late_msgs),
                static_cast<unsigned long long>(out.retries));
  }
  EXPECT_EQ(out.accuracy, pin.accuracy);
  for (std::size_t h = 0; h < 4; ++h) {
    const auto& r = out.results[h];
    const auto& g = pin.homes[h];
    EXPECT_EQ(r.total_reward, g.total_reward) << "home " << h;
    EXPECT_EQ(r.standby_kwh, g.standby_kwh) << "home " << h;
    EXPECT_EQ(r.saved_kwh, g.saved_kwh) << "home " << h;
    EXPECT_EQ(r.comfort_violations, g.comfort_violations) << "home " << h;
    EXPECT_EQ(r.violation_kwh, g.violation_kwh) << "home " << h;
    EXPECT_EQ(r.steps, g.steps) << "home " << h;
  }
  EXPECT_EQ(out.quorum_met, pin.quorum_met);
  EXPECT_EQ(out.quorum_missed, pin.quorum_missed);
  EXPECT_EQ(out.stale_rounds, pin.stale_rounds);
  EXPECT_EQ(out.fault_drops, pin.fault_drops);
  EXPECT_EQ(out.fault_crashes, pin.fault_crashes);
  EXPECT_EQ(out.late_msgs, pin.late_msgs);
  EXPECT_EQ(out.retries, pin.retries);
}

TEST(GoldenChaos, FlatChaosMatchesPinnedConstants) {
  expect_pinned(run_chaos(42), kChaosFlat);
}

TEST(GoldenChaos, ShardedChaosMatchesPinnedConstants) {
  expect_pinned(run_chaos(42, /*shards=*/2), kChaosSharded);
}

// FRL federates over a star: every leaf contribution crosses the lossy
// leaf->hub link, so the hub's relay and retry stage draws the fault
// stream too. The run must actually retry for this to pin that stage.
TEST(GoldenChaos, FrlStarChaosMatchesPinnedConstants) {
  const auto out = run_chaos(42, /*shards=*/0, core::EmsMethod::kFrl);
  EXPECT_GT(out.retries, 0u) << "hub retry path never engaged";
  EXPECT_GT(out.fault_drops, 0u);
  expect_pinned(out, kChaosFrlStar);
}

// Pinned training trajectories. Each case trains one model through its
// public entry point (Forecaster::train, DqnAgent::learn) on fixed seeded
// data and folds every loss, the final parameters and the optimizer state
// into one FNV-1a hash, so a refactor of the training engines must keep
// the bits, not merely converge. The LSTM and GRU gates call sigmoid/tanh,
// whose vector-math build differs from the scalar build by a few ulp
// (nn/kernels.hpp), so those two cases carry one pin per build; BP and the
// DQN use ReLU only and have one pin.
//
// Re-record (copy the "training actual" line printed on failure) only
// after an intentional change to training semantics.
std::uint64_t fnv1a(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, double value) {
  return fnv1a(h, std::span<const double>(&value, 1));
}

void expect_training_pin(std::uint64_t actual, std::uint64_t pin,
                         const char* what) {
  if (actual != pin) {
    std::printf("training actual: %s 0x%016llxULL (vector math %d)\n", what,
                static_cast<unsigned long long>(actual),
                pfdrl::nn::kernels::vector_math_active() ? 1 : 0);
  }
  EXPECT_EQ(actual, pin) << what;
}

/// Two training rounds (two half-day windows, each with its own forked
/// RNG, as DFL rounds fork theirs) of one forecaster on a fixed trace.
std::uint64_t forecaster_training_hash(forecast::Method method) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households = 1;
  sc.neighborhood.min_devices = 3;
  sc.neighborhood.max_devices = 3;
  sc.neighborhood.seed = 42;
  sc.trace.days = 1;
  sc.trace.seed = 42;
  const auto traces = sim::Scenario::generate(sc).traces;
  const data::DeviceTrace& trace = traces[0].devices[0];

  data::WindowConfig window;
  window.window = 8;
  window.horizon = 5;
  forecast::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.stride = 6;
  const auto model = forecast::make_forecaster(method, window, 42000);
  std::uint64_t h = kFnvOffset;
  const std::size_t half = data::kMinutesPerDay / 2;
  for (std::uint64_t round = 0; round < 2; ++round) {
    util::Rng rng = util::Rng(42).fork(round);
    const double loss =
        model->train(trace, round * half, (round + 1) * half, cfg, rng);
    EXPECT_GT(loss, 0.0);
    h = fnv1a(h, loss);
  }
  h = fnv1a(h, model->parameters());
  return fnv1a(h, model->train_state());
}

/// ~50 learn() steps of a small DQN on a fixed replay, folding every TD
/// loss and then both networks, the Adam state and the step counter.
std::uint64_t dqn_training_hash(bool double_dqn) {
  rl::DqnConfig cfg;
  cfg.state_dim = 3;
  cfg.num_actions = 3;
  cfg.hidden = {16, 16};
  cfg.replay_capacity = 256;
  cfg.batch_size = 16;
  cfg.target_replace_every = 10;
  cfg.seed = 5;
  cfg.double_dqn = double_dqn;
  rl::DqnAgent agent(cfg);
  util::Rng fill(303);
  for (int t = 0; t < 64; ++t) {
    rl::Transition tr;
    tr.state = {fill.normal(), fill.normal(), fill.normal()};
    tr.action = static_cast<int>(fill.uniform_int(0, 2));
    tr.reward = fill.uniform(-1, 1);
    tr.next_state = {fill.normal(), fill.normal(), fill.normal()};
    tr.terminal = fill.uniform() < 0.1;
    agent.remember(std::move(tr));
  }
  std::uint64_t h = kFnvOffset;
  for (int step = 0; step < 50; ++step) h = fnv1a(h, agent.learn());
  const rl::DqnAgentState s = agent.capture_state();
  h = fnv1a(h, s.online_params);
  h = fnv1a(h, s.target_params);
  h = fnv1a(h, s.optimizer.m);
  h = fnv1a(h, s.optimizer.v);
  h = fnv1a(h, static_cast<double>(s.optimizer.t));
  return fnv1a(h, static_cast<double>(s.learn_steps));
}

// One pin per transcendental build (see above).
std::uint64_t recurrent_pin(std::uint64_t vector_math, std::uint64_t scalar) {
  return nn::kernels::vector_math_active() ? vector_math : scalar;
}

TEST(GoldenTraining, LstmMatchesPinnedConstants) {
  expect_training_pin(forecaster_training_hash(forecast::Method::kLstm),
                      recurrent_pin(0x5b005a773e8e0483ULL, 0x7a5f93e022746540ULL),
                      "lstm");
}

TEST(GoldenTraining, GruMatchesPinnedConstants) {
  expect_training_pin(forecaster_training_hash(forecast::Method::kGru),
                      recurrent_pin(0xcd342e1420cafbf1ULL, 0x06f7e4d7d1a98f64ULL),
                      "gru");
}

TEST(GoldenTraining, BpMatchesPinnedConstants) {
  expect_training_pin(forecaster_training_hash(forecast::Method::kBp),
                      0xbbc366f4e98219c6ULL, "bp");
}

TEST(GoldenTraining, DqnMatchesPinnedConstants) {
  expect_training_pin(dqn_training_hash(false), 0x6ccabba88c6724ecULL, "dqn");
  expect_training_pin(dqn_training_hash(true), 0x07d1f83dc98e4a95ULL,
                      "double dqn");
}

}  // namespace
}  // namespace pfdrl
