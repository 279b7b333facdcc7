// Micro-benchmarks of the computational kernels underlying the system:
// matmul, dense forward, MLP/LSTM training steps (the fused engines over
// a group of one network), replay sampling, message bus broadcast, and
// federated averaging.
//
// The JSON context carries a "pfdrl_host" entry (nproc, CPU model, build
// type and flags, git sha); "library_build_type" is the build type of the
// installed Google Benchmark library, not of this code.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "fl/aggregate.hpp"
#include "net/bus.hpp"
#include "nn/dense.hpp"
#include "nn/fused.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/workspace.hpp"
#include "rl/dqn.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace {

using namespace pfdrl;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  nn::Matrix a(n, n);
  nn::Matrix b(n, n);
  for (double& x : a.data()) x = rng.normal();
  for (double& x : b.data()) x = rng.normal();
  nn::Matrix out(n, n);
  for (auto _ : state) {
    nn::matmul(a, b, out);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_DenseForward(benchmark::State& state) {
  const std::size_t batch = 32, in = 100, out_dim = 100;
  util::Rng rng(2);
  std::vector<double> params(nn::dense_param_count(in, out_dim));
  nn::dense_init(params, in, out_dim, nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(batch, in);
  for (double& v : x.data()) v = rng.normal();
  nn::Matrix y;
  for (auto _ : state) {
    nn::dense_forward(params, in, out_dim, x, nn::Activation::kRelu, y);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_DenseForward);

void BM_Matvec1(benchmark::State& state) {
  const std::size_t in = 100, out_dim = 100;
  util::Rng rng(12);
  std::vector<double> params(nn::dense_param_count(in, out_dim));
  nn::dense_init(params, in, out_dim, nn::InitScheme::kHeNormal, rng);
  const std::span<const double> w(params.data(), in * out_dim);
  const std::span<const double> b(params.data() + in * out_dim, out_dim);
  std::vector<double> x(in);
  for (double& v : x) v = rng.normal();
  std::vector<double> y(out_dim);
  for (auto _ : state) {
    nn::matvec1(w, b, x, in, out_dim, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetLabel("100x100 layer, batch 1");
}
BENCHMARK(BM_Matvec1);

void BM_DenseForwardBatch1(benchmark::State& state) {
  const std::size_t in = 100, out_dim = 100;
  util::Rng rng(13);
  std::vector<double> params(nn::dense_param_count(in, out_dim));
  nn::dense_init(params, in, out_dim, nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(1, in);
  for (double& v : x.data()) v = rng.normal();
  nn::Matrix y;
  for (auto _ : state) {
    nn::dense_forward(params, in, out_dim, x, nn::Activation::kRelu, y);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetLabel("matvec1 dispatch path");
}
BENCHMARK(BM_DenseForwardBatch1);

// The two batch-1 inference paths of the paper's DQN net, side by side:
// the allocating predict() vs the workspace arena path the agents use.
void BM_MlpPredictAlloc(benchmark::State& state) {
  util::Rng rng(14);
  nn::Mlp net({5, 100, 100, 100, 100, 100, 100, 100, 100, 3},
              nn::Activation::kRelu, nn::Activation::kIdentity,
              nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(1, 5);
  for (double& v : x.data()) v = rng.normal();
  for (auto _ : state) {
    const nn::Matrix q = net.predict(x);
    benchmark::DoNotOptimize(q.data().data());
  }
  state.SetLabel("paper 8x100 net, fresh workspace per call");
}
BENCHMARK(BM_MlpPredictAlloc);

void BM_MlpPredictWorkspace(benchmark::State& state) {
  util::Rng rng(14);  // same seed: identical net as BM_MlpPredictAlloc
  nn::Mlp net({5, 100, 100, 100, 100, 100, 100, 100, 100, 3},
              nn::Activation::kRelu, nn::Activation::kIdentity,
              nn::InitScheme::kHeNormal, rng);
  nn::Matrix x(1, 5);
  for (double& v : x.data()) v = rng.normal();
  nn::Workspace ws;
  for (auto _ : state) {
    ws.reset();
    const nn::Matrix& q = net.predict(x, ws);
    benchmark::DoNotOptimize(q.data().data());
  }
  state.SetLabel("paper 8x100 net, reused arena (steady-state 0 allocs)");
}
BENCHMARK(BM_MlpPredictWorkspace);

void BM_DqnActGreedy(benchmark::State& state) {
  rl::DqnConfig cfg;  // paper defaults: 8x100 ReLU, 3 actions
  cfg.state_dim = 5;
  rl::DqnAgent agent(cfg);
  util::Rng rng(15);
  std::vector<double> s(cfg.state_dim);
  for (double& v : s) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_greedy(s));
  }
  state.SetLabel("per-decision EMS hot path");
}
BENCHMARK(BM_DqnActGreedy);

void BM_MlpTrainBatch(benchmark::State& state) {
  util::Rng rng(3);
  nn::Mlp net({5, 100, 100, 100, 100, 100, 100, 100, 100, 3},
              nn::Activation::kRelu, nn::Activation::kIdentity,
              nn::InitScheme::kHeNormal, rng);
  nn::Adam opt(1e-3);
  nn::Matrix x(32, 5);
  nn::Matrix y(32, 3);
  for (double& v : x.data()) v = rng.normal();
  for (double& v : y.data()) v = rng.normal();
  nn::FusedMlp engine;
  nn::Mlp* nets[] = {&net};
  nn::Optimizer* opts[] = {&opt};
  const nn::FusedSlice slices[] = {{0, 32}};
  double loss[1];
  for (auto _ : state) {
    engine.train_batch(nets, slices, x, y, nn::LossKind::kHuber, opts, loss);
    benchmark::DoNotOptimize(loss[0]);
  }
  state.SetLabel("paper 8x100 DQN net, batch 32, group of one");
}
BENCHMARK(BM_MlpTrainBatch);

void BM_LstmTrainBatch(benchmark::State& state) {
  util::Rng rng(4);
  nn::LstmRegressor net(3, 32, 1, rng);
  nn::Adam opt(1e-3);
  std::vector<nn::Matrix> xs(16, nn::Matrix(32, 3));
  nn::Matrix y(32, 1);
  for (auto& m : xs) {
    for (double& v : m.data()) v = rng.normal();
  }
  for (double& v : y.data()) v = rng.normal();
  nn::FusedLstm engine;
  nn::LstmRegressor* nets[] = {&net};
  nn::Optimizer* opts[] = {&opt};
  const nn::FusedSlice slices[] = {{0, 32}};
  std::vector<const nn::Matrix*> steps;
  for (const auto& m : xs) steps.push_back(&m);
  double loss[1];
  for (auto _ : state) {
    engine.train_batch(nets, slices, steps, y, nn::LossKind::kMae, opts, loss);
    benchmark::DoNotOptimize(loss[0]);
  }
  state.SetLabel("window 16, hidden 32, batch 32, group of one");
}
BENCHMARK(BM_LstmTrainBatch);

void BM_ReplaySample(benchmark::State& state) {
  rl::ReplayBuffer buf(2000);
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    rl::Transition t;
    t.state.assign(5, rng.normal());
    t.next_state.assign(5, rng.normal());
    buf.push(std::move(t));
  }
  for (auto _ : state) {
    const auto batch = buf.sample(32, rng);
    benchmark::DoNotOptimize(batch.data());
  }
}
BENCHMARK(BM_ReplaySample);

void BM_BusBroadcast(benchmark::State& state) {
  const auto homes = static_cast<std::size_t>(state.range(0));
  net::MessageBus bus(net::Topology(net::TopologyKind::kFullMesh, homes));
  net::Message msg;
  msg.sender = 0;
  msg.payload.assign(10000, 1.0);
  for (auto _ : state) {
    bus.broadcast(msg);
    for (std::size_t h = 1; h < homes; ++h) {
      auto drained = bus.drain(static_cast<net::AgentId>(h));
      benchmark::DoNotOptimize(drained.data());
    }
  }
  state.SetLabel("10k-double payload");
}
BENCHMARK(BM_BusBroadcast)->Arg(5)->Arg(20);

void BM_FedAvg(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<std::vector<double>> inputs(clients,
                                          std::vector<double>(80000));
  for (auto& v : inputs) {
    for (double& x : v) x = rng.normal();
  }
  std::vector<std::span<const double>> views(inputs.begin(), inputs.end());
  std::vector<double> out(80000);
  for (auto _ : state) {
    fl::fedavg(views, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("80k params (paper DQN scale)");
}
BENCHMARK(BM_FedAvg)->Arg(5)->Arg(100);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("pfdrl_host", bench::host_stamp_json());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
