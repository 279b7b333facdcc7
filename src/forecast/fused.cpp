#include "forecast/fused.hpp"

#include <algorithm>
#include <numeric>

#include "forecast/bp.hpp"
#include "forecast/gru_forecaster.hpp"
#include "forecast/lstm_forecaster.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/mlp.hpp"

namespace pfdrl::forecast {

// The fused trainer replays each forecaster's private train loop against
// shared slabs; it needs the same private state the loop touches (the
// network and its Adam optimizer — nothing else).
struct FusedAccess {
  static nn::LstmRegressor& net(LstmForecaster& f) { return f.net_; }
  static nn::Adam& opt(LstmForecaster& f) { return f.opt_; }
  static nn::GruRegressor& net(GruForecaster& f) { return f.net_; }
  static nn::Adam& opt(GruForecaster& f) { return f.opt_; }
  static nn::Mlp& net(BpForecaster& f) { return f.net_; }
  static nn::Adam& opt(BpForecaster& f) { return f.opt_; }
};

bool FusedForecastTrainer::train(std::span<FusedTrainJob> jobs,
                                 std::size_t begin, std::size_t end,
                                 const TrainConfig& cfg) {
  if (jobs.empty()) return true;
  const Method method = jobs.front().forecaster->method();
  for (const FusedTrainJob& j : jobs) {
    if (j.forecaster->method() != method) return false;
  }
  const TrainConfig tcfg = resolve_train_config(method, cfg);
  bool fused = false;  // closed-form methods have no minibatch loop
  switch (method) {
    case Method::kLstm: fused = train_lstm(jobs, begin, end, tcfg); break;
    case Method::kGru: fused = train_gru(jobs, begin, end, tcfg); break;
    case Method::kBp: fused = train_bp(jobs, begin, end, tcfg); break;
    default: break;
  }
  // The round's datasets and their epoch arena are dead once the group
  // has trained; free them rather than hold a copy of every member's
  // data between rounds (the per-home path frees its set on return).
  seq_sets_.clear();
  sup_sets_.clear();
  slab_xs_.clear();
  slab_y_ = nn::Matrix();
  return fused;
}

bool FusedForecastTrainer::train_lstm(std::span<FusedTrainJob> jobs,
                                      std::size_t begin, std::size_t end,
                                      const TrainConfig& tcfg) {
  lstm_all_.clear();
  adam_all_.clear();
  for (const FusedTrainJob& j : jobs) {
    auto& f = static_cast<LstmForecaster&>(*j.forecaster);
    lstm_all_.push_back(&FusedAccess::net(f));
    adam_all_.push_back(&FusedAccess::opt(f));
  }
  const nn::LstmRegressor& ref = *lstm_all_.front();
  for (const nn::LstmRegressor* n : lstm_all_) {
    if (n->feature_dim() != ref.feature_dim() ||
        n->hidden_dim() != ref.hidden_dim() ||
        n->output_dim() != ref.output_dim()) {
      return false;
    }
  }

  // Dataset construction is pure: nothing observable happens to a job
  // until after every fusability check has passed.
  seq_sets_.resize(jobs.size());
  active_.clear();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    data::WindowConfig wc = jobs[j].forecaster->window_config();
    wc.stride = tcfg.stride;
    seq_sets_[j] = data::make_sequences(*jobs[j].trace, wc, begin, end);
    jobs[j].loss = 0.0;
    // Empty datasets early-out before any RNG use, as the solo path does.
    if (seq_sets_[j].size() > 0) active_.push_back(j);
  }
  if (active_.empty()) return true;
  const std::size_t steps = seq_sets_[active_.front()].xs.size();
  const std::size_t feat = seq_sets_[active_.front()].step_features();
  std::size_t max_size = 0;
  for (const std::size_t a : active_) {
    if (seq_sets_[a].xs.size() != steps ||
        seq_sets_[a].step_features() != feat) {
      return false;
    }
    max_size = std::max(max_size, seq_sets_[a].size());
  }

  // Commit point: from here the per-job sequence mirrors the solo loop.
  orders_.resize(jobs.size());
  for (const std::size_t a : active_) {
    adam_all_[a]->set_learning_rate(tcfg.learning_rate);
    orders_[a].resize(seq_sets_[a].size());
    std::iota(orders_[a].begin(), orders_[a].end(), 0);
  }
  slab_xs_.resize(steps);
  loss_sums_.resize(jobs.size());
  batch_counts_.resize(jobs.size());

  xs_ptrs_.resize(steps);
  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    for (const std::size_t a : active_) jobs[a].rng->shuffle(orders_[a]);
    std::fill(loss_sums_.begin(), loss_sums_.end(), 0.0);
    std::fill(batch_counts_.begin(), batch_counts_.end(), std::size_t{0});
    // ---- Epoch arena gather: map every arena row to its (job, sample)
    // in exact batch-consumption order, then copy each timestep slab in
    // one sequential t-outer pass. Each batch then trains in place at
    // its arena offset — no per-batch gather or reshape.
    gather_job_.clear();
    gather_src_.clear();
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      for (const std::size_t a : active_) {
        const std::size_t n = seq_sets_[a].size();
        if (ofs >= n) continue;  // this job ran out of batches this epoch
        const std::size_t bs = std::min(tcfg.batch_size, n - ofs);
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
        auto row = seq_sets_[gather_job_[r]].xs[t].row(gather_src_[r]);
        std::copy(row.begin(), row.end(), slab_xs_[t].row(r).begin());
      }
      xs_ptrs_[t] = &slab_xs_[t];
    }
    slab_y_.reshape(total, 1);
    for (std::size_t r = 0; r < total; ++r) {
      slab_y_(r, 0) = seq_sets_[gather_job_[r]].y(gather_src_[r], 0);
    }

    std::size_t batch_row0 = 0;
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      part_.clear();
      slices_.clear();
      lstm_nets_.clear();
      opts_.clear();
      std::size_t rows = 0;
      for (const std::size_t a : active_) {
        const std::size_t n = seq_sets_[a].size();
        if (ofs >= n) continue;
        const std::size_t bs = std::min(tcfg.batch_size, n - ofs);
        part_.push_back(a);
        slices_.push_back({rows, bs});
        lstm_nets_.push_back(lstm_all_[a]);
        opts_.push_back(adam_all_[a]);
        rows += bs;
      }
      batch_losses_.resize(part_.size());
      lstm_.train_batch(lstm_nets_, slices_, xs_ptrs_, slab_y_,
                        nn::LossKind::kMae, opts_, batch_losses_,
                        /*clip_norm=*/5.0, /*src_row0=*/batch_row0);
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

bool FusedForecastTrainer::train_gru(std::span<FusedTrainJob> jobs,
                                     std::size_t begin, std::size_t end,
                                     const TrainConfig& tcfg) {
  gru_all_.clear();
  adam_all_.clear();
  for (const FusedTrainJob& j : jobs) {
    auto& f = static_cast<GruForecaster&>(*j.forecaster);
    gru_all_.push_back(&FusedAccess::net(f));
    adam_all_.push_back(&FusedAccess::opt(f));
  }
  const nn::GruRegressor& ref = *gru_all_.front();
  for (const nn::GruRegressor* n : gru_all_) {
    if (n->feature_dim() != ref.feature_dim() ||
        n->hidden_dim() != ref.hidden_dim() ||
        n->output_dim() != ref.output_dim()) {
      return false;
    }
  }

  seq_sets_.resize(jobs.size());
  active_.clear();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    data::WindowConfig wc = jobs[j].forecaster->window_config();
    wc.stride = tcfg.stride;
    seq_sets_[j] = data::make_sequences(*jobs[j].trace, wc, begin, end);
    jobs[j].loss = 0.0;
    if (seq_sets_[j].size() > 0) active_.push_back(j);
  }
  if (active_.empty()) return true;
  const std::size_t steps = seq_sets_[active_.front()].xs.size();
  const std::size_t feat = seq_sets_[active_.front()].step_features();
  std::size_t max_size = 0;
  for (const std::size_t a : active_) {
    if (seq_sets_[a].xs.size() != steps ||
        seq_sets_[a].step_features() != feat) {
      return false;
    }
    max_size = std::max(max_size, seq_sets_[a].size());
  }

  orders_.resize(jobs.size());
  for (const std::size_t a : active_) {
    adam_all_[a]->set_learning_rate(tcfg.learning_rate);
    orders_[a].resize(seq_sets_[a].size());
    std::iota(orders_[a].begin(), orders_[a].end(), 0);
  }
  slab_xs_.resize(steps);
  loss_sums_.resize(jobs.size());
  batch_counts_.resize(jobs.size());

  xs_ptrs_.resize(steps);
  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    for (const std::size_t a : active_) jobs[a].rng->shuffle(orders_[a]);
    std::fill(loss_sums_.begin(), loss_sums_.end(), 0.0);
    std::fill(batch_counts_.begin(), batch_counts_.end(), std::size_t{0});
    // Epoch arena gather, as in train_lstm.
    gather_job_.clear();
    gather_src_.clear();
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      for (const std::size_t a : active_) {
        const std::size_t n = seq_sets_[a].size();
        if (ofs >= n) continue;
        const std::size_t bs = std::min(tcfg.batch_size, n - ofs);
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
        auto row = seq_sets_[gather_job_[r]].xs[t].row(gather_src_[r]);
        std::copy(row.begin(), row.end(), slab_xs_[t].row(r).begin());
      }
      xs_ptrs_[t] = &slab_xs_[t];
    }
    slab_y_.reshape(total, 1);
    for (std::size_t r = 0; r < total; ++r) {
      slab_y_(r, 0) = seq_sets_[gather_job_[r]].y(gather_src_[r], 0);
    }

    std::size_t batch_row0 = 0;
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      part_.clear();
      slices_.clear();
      gru_nets_.clear();
      opts_.clear();
      std::size_t rows = 0;
      for (const std::size_t a : active_) {
        const std::size_t n = seq_sets_[a].size();
        if (ofs >= n) continue;
        const std::size_t bs = std::min(tcfg.batch_size, n - ofs);
        part_.push_back(a);
        slices_.push_back({rows, bs});
        gru_nets_.push_back(gru_all_[a]);
        opts_.push_back(adam_all_[a]);
        rows += bs;
      }
      batch_losses_.resize(part_.size());
      gru_.train_batch(gru_nets_, slices_, xs_ptrs_, slab_y_,
                       nn::LossKind::kMae, opts_, batch_losses_,
                       /*clip_norm=*/5.0, /*src_row0=*/batch_row0);
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

bool FusedForecastTrainer::train_bp(std::span<FusedTrainJob> jobs,
                                    std::size_t begin, std::size_t end,
                                    const TrainConfig& tcfg) {
  mlp_all_.clear();
  adam_all_.clear();
  for (const FusedTrainJob& j : jobs) {
    auto& f = static_cast<BpForecaster&>(*j.forecaster);
    mlp_all_.push_back(&FusedAccess::net(f));
    adam_all_.push_back(&FusedAccess::opt(f));
  }
  const nn::Mlp& ref = *mlp_all_.front();
  for (const nn::Mlp* n : mlp_all_) {
    if (!n->same_architecture(ref)) return false;
  }

  sup_sets_.resize(jobs.size());
  active_.clear();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    data::WindowConfig wc = jobs[j].forecaster->window_config();
    wc.stride = tcfg.stride;
    sup_sets_[j] = data::make_supervised(*jobs[j].trace, wc, begin, end);
    jobs[j].loss = 0.0;
    if (sup_sets_[j].size() > 0) active_.push_back(j);
  }
  if (active_.empty()) return true;
  const std::size_t feat = sup_sets_[active_.front()].features();
  std::size_t max_size = 0;
  for (const std::size_t a : active_) {
    if (sup_sets_[a].features() != feat) return false;
    max_size = std::max(max_size, sup_sets_[a].size());
  }

  orders_.resize(jobs.size());
  for (const std::size_t a : active_) {
    adam_all_[a]->set_learning_rate(tcfg.learning_rate);
    orders_[a].resize(sup_sets_[a].size());
    std::iota(orders_[a].begin(), orders_[a].end(), 0);
  }
  slab_xs_.resize(1);
  loss_sums_.resize(jobs.size());
  batch_counts_.resize(jobs.size());

  for (std::size_t epoch = 0; epoch < tcfg.epochs; ++epoch) {
    for (const std::size_t a : active_) jobs[a].rng->shuffle(orders_[a]);
    std::fill(loss_sums_.begin(), loss_sums_.end(), 0.0);
    std::fill(batch_counts_.begin(), batch_counts_.end(), std::size_t{0});
    // Epoch arena gather, as in train_lstm (single step slab here).
    gather_job_.clear();
    gather_src_.clear();
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      for (const std::size_t a : active_) {
        const std::size_t n = sup_sets_[a].size();
        if (ofs >= n) continue;
        const std::size_t bs = std::min(tcfg.batch_size, n - ofs);
        for (std::size_t i = 0; i < bs; ++i) {
          gather_job_.push_back(a);
          gather_src_.push_back(orders_[a][ofs + i]);
        }
      }
    }
    const std::size_t total = gather_job_.size();
    slab_xs_[0].reshape(total, feat);
    slab_y_.reshape(total, 1);
    for (std::size_t r = 0; r < total; ++r) {
      const data::SupervisedSet& set = sup_sets_[gather_job_[r]];
      auto row = set.x.row(gather_src_[r]);
      std::copy(row.begin(), row.end(), slab_xs_[0].row(r).begin());
      slab_y_(r, 0) = set.y(gather_src_[r], 0);
    }

    std::size_t batch_row0 = 0;
    for (std::size_t ofs = 0; ofs < max_size; ofs += tcfg.batch_size) {
      part_.clear();
      slices_.clear();
      mlp_nets_.clear();
      opts_.clear();
      std::size_t rows = 0;
      for (const std::size_t a : active_) {
        const std::size_t n = sup_sets_[a].size();
        if (ofs >= n) continue;
        const std::size_t bs = std::min(tcfg.batch_size, n - ofs);
        part_.push_back(a);
        slices_.push_back({rows, bs});
        mlp_nets_.push_back(mlp_all_[a]);
        opts_.push_back(adam_all_[a]);
        rows += bs;
      }
      batch_losses_.resize(part_.size());
      mlp_.train_batch(mlp_nets_, slices_, slab_xs_[0], slab_y_,
                       nn::LossKind::kMae, opts_, batch_losses_,
                       /*src_row0=*/batch_row0);
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

}  // namespace pfdrl::forecast
