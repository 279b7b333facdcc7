// Fused forecaster training (docs/fused_training.md) — the only training
// loop of the minibatch forecasters (BP, LSTM, GRU). Their
// Forecaster::train() runs one group of one job (train_as_group_of_one).
//
// A DFL round trains one forecaster per (home, device) on that device's
// newly recorded minutes — thousands of tiny minibatches through
// identical architectures. The fused trainer takes a group of such jobs
// (same method, same window/train config), builds every job's dataset,
// and then runs the group's epochs in lockstep: each epoch's shuffled
// rows are gathered ONCE into a persistent epoch arena laid out in
// batch-consumption order, and each (epoch, batch index) trains its
// home-major span of that arena in place (via the engines' src_row0
// offset) through the nn::Fused* engines against each job's own
// parameter bank and Adam state.
//
// Determinism contract: grouping invariance. Per job, the observable
// sequence depends on that job alone — the empty-dataset early-out fires
// before any RNG use, each epoch shuffles the job's own index order with
// the job's own RNG (util::Rng::shuffle consumes the stream as a function
// of the vector size alone), batches are visited at the same offsets, and
// each slice's forward/BPTT/Adam step is bitwise its group-of-one step
// (nn/fused.hpp). Jobs whose dataset runs out of batches early simply
// drop out of later fused batches; their epoch-loss bookkeeping is
// untouched by the others. A group of N therefore trains bitwise like N
// groups of one.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "data/trace.hpp"
#include "forecast/forecaster.hpp"
#include "nn/fused.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace pfdrl::nn {
class GruRegressor;
class LstmRegressor;
class Mlp;
}  // namespace pfdrl::nn

namespace pfdrl::forecast {

/// One (home, device) training job inside a fused group. `loss` receives
/// the mean batch loss of the final epoch (what Forecaster::train()
/// returns).
struct FusedTrainJob {
  Forecaster* forecaster = nullptr;
  const data::DeviceTrace* trace = nullptr;
  util::Rng* rng = nullptr;
  double loss = 0.0;
};

/// Fused multi-home forecaster trainer. One train() call trains every job
/// over [begin, end) with its own RNG, bitwise identical to training the
/// jobs one by one (each as a group of one).
class FusedForecastTrainer {
 public:
  /// Runs the whole group over [begin, end) with the shared config.
  /// Returns false — with no job state touched — when the group is not
  /// fusable (closed-form or mixed methods, mismatched network or dataset
  /// shapes); the caller must train such jobs one by one through
  /// Forecaster::train(). A group of one NN job always fuses.
  bool train(std::span<FusedTrainJob> jobs, std::size_t begin,
             std::size_t end, const TrainConfig& cfg);

 private:
  /// The shared epoch loop once every job's network is collected.
  bool train_group(std::span<FusedTrainJob> jobs, std::size_t begin,
                   std::size_t end, const TrainConfig& tcfg, Method method);

  nn::FusedLstm lstm_;
  nn::FusedGru gru_;
  nn::FusedMlp mlp_;
  // Per-job datasets (rebuilt per round; building is pure so a refusal
  // after dataset construction still leaves job state untouched), and
  // each job's step matrices and targets inside them.
  std::vector<data::SequenceSet> seq_sets_;
  std::vector<data::SupervisedSet> sup_sets_;
  std::vector<std::vector<const nn::Matrix*>> job_xs_;
  std::vector<const nn::Matrix*> job_y_;
  // Per-job shuffle orders.
  std::vector<std::vector<std::size_t>> orders_;
  // Capacity-reusing epoch arena + dispatch buffers. The arena holds the
  // WHOLE epoch's rows in exact batch-consumption order — one t-outer
  // gather pass per epoch instead of a strided re-gather per batch — and
  // each batch trains in place via the engines' src_row0 offset. The
  // gather_* maps record arena row -> (job, dataset row) for the pass.
  std::vector<nn::Matrix> slab_xs_;  // per-step arenas (one for BP)
  nn::Matrix slab_y_;
  std::vector<std::size_t> gather_job_;
  std::vector<std::size_t> gather_src_;
  std::vector<std::size_t> active_;  // jobs with non-empty datasets
  std::vector<std::size_t> part_;    // jobs participating in one batch
  std::vector<nn::FusedSlice> slices_;
  std::vector<const nn::Matrix*> xs_ptrs_;
  std::vector<nn::Optimizer*> opts_;
  std::vector<double> batch_losses_;
  std::vector<double> loss_sums_;
  std::vector<std::size_t> batch_counts_;
  std::vector<nn::LstmRegressor*> lstm_nets_;
  std::vector<nn::GruRegressor*> gru_nets_;
  std::vector<nn::Mlp*> mlp_nets_;
  std::vector<nn::LstmRegressor*> lstm_all_;
  std::vector<nn::GruRegressor*> gru_all_;
  std::vector<nn::Mlp*> mlp_all_;
  std::vector<nn::Adam*> adam_all_;
};

/// Forecaster::train() of the minibatch methods: one FusedForecastTrainer
/// run over a single job. The trainer lives on this call, so forecasters
/// that train through a shared DFL trainer carry no training scratch.
double train_as_group_of_one(Forecaster& forecaster,
                             const data::DeviceTrace& trace, std::size_t begin,
                             std::size_t end, const TrainConfig& cfg,
                             util::Rng& rng);

}  // namespace pfdrl::forecast
