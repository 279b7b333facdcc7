#include "forecast/fused.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "forecast/bp.hpp"
#include "forecast/gru_forecaster.hpp"
#include "forecast/lstm_forecaster.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/mlp.hpp"

namespace pfdrl::forecast {

// The trainer runs each forecaster's training against shared slabs; it
// needs the network and its Adam optimizer — nothing else.
struct FusedAccess {
  static nn::LstmRegressor& net(LstmForecaster& f) { return f.net_; }
  static nn::Adam& opt(LstmForecaster& f) { return f.opt_; }
  static nn::GruRegressor& net(GruForecaster& f) { return f.net_; }
  static nn::Adam& opt(GruForecaster& f) { return f.opt_; }
  static nn::Mlp& net(BpForecaster& f) { return f.net_; }
  static nn::Adam& opt(BpForecaster& f) { return f.opt_; }
};

namespace {

/// Collects every job's network and optimizer. Returns false when the
/// networks' shapes differ (the group cannot share slabs).
template <class Model, class Net>
bool collect(std::span<FusedTrainJob> jobs, std::vector<Net*>& nets,
             std::vector<nn::Adam*>& opts) {
  nets.clear();
  opts.clear();
  for (const FusedTrainJob& j : jobs) {
    auto& f = static_cast<Model&>(*j.forecaster);
    nets.push_back(&FusedAccess::net(f));
    opts.push_back(&FusedAccess::opt(f));
  }
  const Net& ref = *nets.front();
  return std::all_of(nets.begin(), nets.end(), [&](const Net* n) {
    if constexpr (std::is_same_v<Net, nn::Mlp>) {
      return n->same_architecture(ref);
    } else {
      return n->feature_dim() == ref.feature_dim() &&
             n->hidden_dim() == ref.hidden_dim() &&
             n->output_dim() == ref.output_dim();
    }
  });
}

/// The members of one batch, picked from the group's networks.
template <class Net>
std::span<Net* const> pick(const std::vector<Net*>& all,
                           const std::vector<std::size_t>& part,
                           std::vector<Net*>& out) {
  out.clear();
  for (const std::size_t a : part) out.push_back(all[a]);
  return out;
}

}  // namespace

bool FusedForecastTrainer::train(std::span<FusedTrainJob> jobs,
                                 std::size_t begin, std::size_t end,
                                 const TrainConfig& cfg) {
  if (jobs.empty()) return true;
  const Method method = jobs.front().forecaster->method();
  for (const FusedTrainJob& j : jobs) {
    if (j.forecaster->method() != method) return false;
  }
  bool fusable = false;  // closed-form methods have no minibatch loop
  switch (method) {
    case Method::kLstm:
      fusable = collect<LstmForecaster>(jobs, lstm_all_, adam_all_);
      break;
    case Method::kGru:
      fusable = collect<GruForecaster>(jobs, gru_all_, adam_all_);
      break;
    case Method::kBp:
      fusable = collect<BpForecaster>(jobs, mlp_all_, adam_all_);
      break;
    default: break;
  }
  const bool fused =
      fusable &&
      train_group(jobs, begin, end, resolve_train_config(method, cfg), method);
  // The round's datasets and their epoch arena are dead once the group
  // has trained; free them rather than hold a copy of every member's
  // data between rounds.
  seq_sets_.clear();
  sup_sets_.clear();
  job_xs_.clear();
  job_y_.clear();
  slab_xs_.clear();
  slab_y_ = nn::Matrix();
  return fused;
}

bool FusedForecastTrainer::train_group(std::span<FusedTrainJob> jobs,
                                       std::size_t begin, std::size_t end,
                                       const TrainConfig& tcfg,
                                       Method method) {
  // Dataset construction is pure: nothing observable happens to a job
  // until after every fusability check has passed. The recurrent methods
  // train on per-step sequence matrices, BP on one flat window matrix;
  // either way a job's data is a list of step matrices plus targets.
  const bool recurrent = method != Method::kBp;
  if (recurrent) {
    seq_sets_.resize(jobs.size());
  } else {
    sup_sets_.resize(jobs.size());
  }
  job_xs_.resize(jobs.size());
  job_y_.resize(jobs.size());
  active_.clear();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    data::WindowConfig wc = jobs[j].forecaster->window_config();
    wc.stride = tcfg.stride;
    job_xs_[j].clear();
    if (recurrent) {
      seq_sets_[j] = data::make_sequences(*jobs[j].trace, wc, begin, end);
      for (const nn::Matrix& x : seq_sets_[j].xs) job_xs_[j].push_back(&x);
      job_y_[j] = &seq_sets_[j].y;
    } else {
      sup_sets_[j] = data::make_supervised(*jobs[j].trace, wc, begin, end);
      job_xs_[j].push_back(&sup_sets_[j].x);
      job_y_[j] = &sup_sets_[j].y;
    }
    jobs[j].loss = 0.0;
    // Empty datasets drop out before any RNG use.
    if (job_y_[j]->rows() > 0) active_.push_back(j);
  }
  if (active_.empty()) return true;
  const std::size_t steps = job_xs_[active_.front()].size();
  const std::size_t feat = job_xs_[active_.front()].front()->cols();
  std::size_t max_size = 0;
  for (const std::size_t a : active_) {
    if (job_xs_[a].size() != steps || job_xs_[a].front()->cols() != feat) {
      return false;
    }
    max_size = std::max(max_size, job_y_[a]->rows());
  }

  // Commit point: from here every job's state moves.
  orders_.resize(jobs.size());
  for (const std::size_t a : active_) {
    adam_all_[a]->set_learning_rate(tcfg.learning_rate);
    orders_[a].resize(job_y_[a]->rows());
    std::iota(orders_[a].begin(), orders_[a].end(), 0);
  }
  slab_xs_.resize(steps);
  xs_ptrs_.resize(steps);
  loss_sums_.resize(jobs.size());
  batch_counts_.resize(jobs.size());

  // The rows of job `a`'s batch at epoch offset `ofs` (0 once it has run
  // out of batches this epoch).
  const auto batch_rows = [&](std::size_t a, std::size_t ofs) {
    const std::size_t n = job_y_[a]->rows();
    return ofs >= n ? std::size_t{0} : std::min(tcfg.batch_size, n - ofs);
  };

  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    for (const std::size_t a : active_) jobs[a].rng->shuffle(orders_[a]);
    std::fill(loss_sums_.begin(), loss_sums_.end(), 0.0);
    std::fill(batch_counts_.begin(), batch_counts_.end(), std::size_t{0});
    // ---- Epoch arena gather: map every arena row to its (job, sample)
    // in exact batch-consumption order, then copy each step slab in one
    // sequential pass. Each batch then trains in place at its arena
    // offset — no per-batch gather or reshape.
    gather_job_.clear();
    gather_src_.clear();
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      for (const std::size_t a : active_) {
        const std::size_t bs = batch_rows(a, ofs);
        for (std::size_t i = 0; i < bs; ++i) {
          gather_job_.push_back(a);
          gather_src_.push_back(orders_[a][ofs + i]);
        }
      }
    }
    const std::size_t total = gather_job_.size();
    for (std::size_t t = 0; t < steps; ++t) {
      slab_xs_[t].reshape(total, feat);
      for (std::size_t r = 0; r < total; ++r) {
        auto row = job_xs_[gather_job_[r]][t]->row(gather_src_[r]);
        std::copy(row.begin(), row.end(), slab_xs_[t].row(r).begin());
      }
      xs_ptrs_[t] = &slab_xs_[t];
    }
    slab_y_.reshape(total, 1);
    for (std::size_t r = 0; r < total; ++r) {
      slab_y_(r, 0) = (*job_y_[gather_job_[r]])(gather_src_[r], 0);
    }

    std::size_t batch_row0 = 0;
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      part_.clear();
      slices_.clear();
      opts_.clear();
      std::size_t rows = 0;
      for (const std::size_t a : active_) {
        const std::size_t bs = batch_rows(a, ofs);
        if (bs == 0) continue;
        part_.push_back(a);
        slices_.push_back({rows, bs});
        opts_.push_back(adam_all_[a]);
        rows += bs;
      }
      batch_losses_.resize(part_.size());
      switch (method) {
        case Method::kLstm:
          lstm_.train_batch(pick(lstm_all_, part_, lstm_nets_), slices_,
                            xs_ptrs_, slab_y_, nn::LossKind::kMae, opts_,
                            batch_losses_, /*clip_norm=*/5.0,
                            /*src_row0=*/batch_row0);
          break;
        case Method::kGru:
          gru_.train_batch(pick(gru_all_, part_, gru_nets_), slices_,
                           xs_ptrs_, slab_y_, nn::LossKind::kMae, opts_,
                           batch_losses_, /*clip_norm=*/5.0,
                           /*src_row0=*/batch_row0);
          break;
        default:
          mlp_.train_batch(pick(mlp_all_, part_, mlp_nets_), slices_,
                           slab_xs_[0], slab_y_, nn::LossKind::kMae, opts_,
                           batch_losses_, /*src_row0=*/batch_row0);
          break;
      }
      batch_row0 += rows;
      for (std::size_t p = 0; p < part_.size(); ++p) {
        loss_sums_[part_[p]] += batch_losses_[p];
        ++batch_counts_[part_[p]];
      }
    }
    for (const std::size_t a : active_) {
      jobs[a].loss = batch_counts_[a] != 0
                         ? loss_sums_[a] / static_cast<double>(batch_counts_[a])
                         : 0.0;
    }
  }
  return true;
}

double train_as_group_of_one(Forecaster& forecaster,
                             const data::DeviceTrace& trace, std::size_t begin,
                             std::size_t end, const TrainConfig& cfg,
                             util::Rng& rng) {
  FusedTrainJob job{&forecaster, &trace, &rng, 0.0};
  FusedForecastTrainer trainer;
  trainer.train({&job, 1}, begin, end, cfg);  // one job always fuses
  return job.loss;
}

}  // namespace pfdrl::forecast
