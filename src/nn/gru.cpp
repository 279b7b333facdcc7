#include "nn/gru.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/workspace.hpp"

namespace pfdrl::nn {

GruRegressor::GruRegressor(std::size_t feature_dim, std::size_t hidden_dim,
                           std::size_t output_dim, util::Rng& rng)
    : f_(feature_dim), h_(hidden_dim), o_(output_dim) {
  if (f_ == 0 || h_ == 0 || o_ == 0) {
    throw std::invalid_argument("GruRegressor: zero dimension");
  }
  const std::size_t total = f_ * 3 * h_ + h_ * 3 * h_ + 3 * h_ + h_ * o_ + o_;
  params_.assign(total, 0.0);
  {
    Matrix m(f_, 3 * h_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(), params_.begin());
  }
  {
    Matrix m(h_, 3 * h_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(),
              params_.begin() + static_cast<std::ptrdiff_t>(f_ * 3 * h_));
  }
  {
    Matrix m(h_, o_);
    init_weights(m, InitScheme::kXavierUniform, rng);
    std::copy(m.data().begin(), m.data().end(),
              params_.begin() +
                  static_cast<std::ptrdiff_t>(f_ * 3 * h_ + h_ * 3 * h_ +
                                              3 * h_));
  }
}

void GruRegressor::set_parameters(std::span<const double> values) {
  if (values.size() != params_.size()) {
    throw std::invalid_argument("GruRegressor::set_parameters: size mismatch");
  }
  std::copy(values.begin(), values.end(), params_.begin());
}

void GruRegressor::step_compute(const Matrix& x, const Matrix& h_prev,
                                Matrix& gates, Matrix& h) const {
  const std::size_t batch = x.rows();
  assert(x.cols() == f_);
  gates.reshape(batch, 3 * h_);
  h.reshape(batch, h_);

  const double* wx = params_.data();
  const double* wh = params_.data() + f_ * 3 * h_;
  const double* b = params_.data() + f_ * 3 * h_ + h_ * 3 * h_;

  for (std::size_t r = 0; r < batch; ++r) {
    double* z = gates.row(r).data();
    for (std::size_t j = 0; j < 3 * h_; ++j) z[j] = b[j];
    const double* xr = x.row(r).data();
    for (std::size_t k = 0; k < f_; ++k) {
      kernels::axpy(xr[k], wx + k * 3 * h_, z, 3 * h_);
    }
    // Recurrent input: z and r gates see h directly; the candidate sees
    // r ⊙ h, so it must be computed after r. First accumulate h into the
    // z/r slices only.
    const double* hp = h_prev.row(r).data();
    for (std::size_t k = 0; k < h_; ++k) {
      kernels::axpy(hp[k], wh + k * 3 * h_, z, 2 * h_);
    }
    // Gate nonlinearities for z, r — one batched call over the slice.
    kernels::sigmoid_inplace(z, 2 * h_);
    // Candidate pre-activation gets (r ⊙ h) through the last H columns.
    for (std::size_t k = 0; k < h_; ++k) {
      kernels::axpy(z[h_ + k] * hp[k], wh + k * 3 * h_ + 2 * h_, z + 2 * h_,
                    h_);
    }
    kernels::tanh_inplace(z + 2 * h_, h_);
    double* hv = h.row(r).data();
    for (std::size_t j = 0; j < h_; ++j) {
      const double zg = z[j];
      hv[j] = (1.0 - zg) * hp[j] + zg * z[2 * h_ + j];
    }
  }
}

void GruRegressor::head_into(const Matrix& h_last, Matrix& out) const {
  const std::size_t batch = h_last.rows();
  out.reshape(batch, o_);
  const double* w = params_.data() + f_ * 3 * h_ + h_ * 3 * h_ + 3 * h_;
  const double* b = w + h_ * o_;
  for (std::size_t r = 0; r < batch; ++r) {
    const double* hr = h_last.row(r).data();
    double* yr = out.row(r).data();
    for (std::size_t j = 0; j < o_; ++j) yr[j] = b[j];
    for (std::size_t k = 0; k < h_; ++k) {
      kernels::axpy(hr[k], w + k * o_, yr, o_);
    }
  }
}

Matrix GruRegressor::predict(const std::vector<Matrix>& xs) const {
  Workspace ws;
  return predict(xs, ws);
}

const Matrix& GruRegressor::predict(const std::vector<Matrix>& xs,
                                    Workspace& ws) const {
  if (xs.empty()) throw std::invalid_argument("GruRegressor: empty sequence");
  const std::size_t batch = xs.front().rows();
  Matrix& gates = ws.take(batch, 3 * h_);
  Matrix* h_prev = &ws.take(batch, h_);
  Matrix* h_next = &ws.take(batch, h_);
  Matrix& out = ws.take(batch, o_);
  h_prev->zero();
  for (const Matrix& x : xs) {
    assert(x.rows() == batch);
    step_compute(x, *h_prev, gates, *h_next);
    std::swap(h_prev, h_next);
  }
  head_into(*h_prev, out);
  return out;
}

}  // namespace pfdrl::nn
