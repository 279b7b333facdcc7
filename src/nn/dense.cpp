#include "nn/dense.hpp"

#include <cassert>

#include "nn/kernels.hpp"

namespace pfdrl::nn {

void matvec1(std::span<const double> w, std::span<const double> b,
             std::span<const double> x, std::size_t in, std::size_t out,
             std::span<double> y) noexcept {
  assert(w.size() == in * out && b.size() == out);
  assert(x.size() == in && y.size() == out);
  const double* pw = w.data();
  std::size_t j = 0;
  for (; j + 4 <= out; j += 4) {
    double a0 = b[j], a1 = b[j + 1], a2 = b[j + 2], a3 = b[j + 3];
    const double* wj = pw + j;
    for (std::size_t k = 0; k < in; ++k) {
      const double xk = x[k];
      const double* wk = wj + k * out;
      a0 += xk * wk[0];
      a1 += xk * wk[1];
      a2 += xk * wk[2];
      a3 += xk * wk[3];
    }
    y[j] = a0;
    y[j + 1] = a1;
    y[j + 2] = a2;
    y[j + 3] = a3;
  }
  for (; j < out; ++j) {
    double acc = b[j];
    for (std::size_t k = 0; k < in; ++k) acc += x[k] * pw[k * out + j];
    y[j] = acc;
  }
}

void dense_forward(std::span<const double> params, std::size_t in,
                   std::size_t out, const Matrix& x, Activation act,
                   Matrix& y) {
  assert(params.size() == dense_param_count(in, out));
  assert(x.cols() == in);
  const std::size_t batch = x.rows();
  y.reshape(batch, out);

  const auto w = params.first(in * out);
  const auto b = params.subspan(in * out);
  if (batch == 1) {
    matvec1(w, b, x.row(0), in, out, y.row(0));
  } else {
    for (std::size_t r = 0; r < batch; ++r) {
      const double* xr = x.row(r).data();
      double* yr = y.row(r).data();
      for (std::size_t j = 0; j < out; ++j) yr[j] = b[j];
      for (std::size_t k = 0; k < in; ++k) {
        kernels::axpy(xr[k], w.data() + k * out, yr, out);
      }
    }
  }
  activate_inplace(act, y);
}

void dense_init(std::span<double> params, std::size_t in, std::size_t out,
                InitScheme scheme, util::Rng& rng) {
  assert(params.size() == dense_param_count(in, out));
  Matrix w(in, out);
  init_weights(w, scheme, rng);
  auto ws = w.data();
  for (std::size_t i = 0; i < ws.size(); ++i) params[i] = ws[i];
  for (std::size_t j = 0; j < out; ++j) params[in * out + j] = 0.0;
}

}  // namespace pfdrl::nn
