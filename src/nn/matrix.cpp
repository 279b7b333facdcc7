#include "nn/matrix.hpp"

#include <cassert>
#include <functional>
#include <stdexcept>
#include <utility>

#include "nn/kernels.hpp"

namespace pfdrl::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

void Matrix::fill(double v) noexcept {
  for (double& x : data_) x = v;
}

std::size_t Matrix::reshape(std::size_t rows, std::size_t cols) {
  const std::size_t old_cap = data_.capacity();
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
  const std::size_t new_cap = data_.capacity();
  return new_cap > old_cap ? (new_cap - old_cap) * sizeof(double) : 0;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& x : data_) x *= s;
  return *this;
}

void Matrix::axpy(double alpha, const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  // Not kernels::axpy: `other` may legally alias *this here.
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::squared_norm() const noexcept {
  return kernels::dot(data_.data(), data_.data(), data_.size());
}

namespace {

// Matmul kernel in ikj order: out_row accumulates one kernels::axpy per
// k, so the j sweep is branch-free and vectorizes (broadcast a[i][k],
// contiguous loads from b's row k). Each output element is still a
// single accumulator walked in ascending-k order — only the *loop
// structure* changed; dropping the old `aik == 0.0` skip adds exact +0.0
// terms.
void matmul_ikj(const Matrix& a, const Matrix& b, Matrix& out) {
  const std::size_t n = b.cols();
  const std::size_t k_dim = a.cols();
  const double* b0 = b.rows() ? b.row(0).data() : nullptr;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i).data();
    double* out_row = out.row(i).data();
    for (std::size_t j = 0; j < n; ++j) out_row[j] = 0.0;
    for (std::size_t k = 0; k < k_dim; ++k) {
      kernels::axpy(a_row[k], b0 + k * n, out_row, n);
    }
  }
}

// True when the two buffers share any bytes (std::less gives the total
// pointer order the comparison needs to stay defined across objects).
bool buffers_overlap(std::span<const double> x,
                     std::span<const double> y) noexcept {
  if (x.empty() || y.empty()) return false;
  const std::less<const double*> lt;
  return lt(x.data(), y.data() + y.size()) &&
         lt(y.data(), x.data() + x.size());
}

}  // namespace

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  // Writing the product over an operand that is still being read would
  // corrupt it silently; detour through a temporary instead.
  if (buffers_overlap(out.data(), a.data()) ||
      buffers_overlap(out.data(), b.data())) {
    Matrix tmp;
    matmul(a, b, tmp);
    out = std::move(tmp);
    return;
  }
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    out = Matrix(a.rows(), b.cols());
  }
  matmul_ikj(a, b, out);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  matmul(a, b, out);
  return out;
}

void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  if (out.rows() != a.cols() || out.cols() != b.cols()) {
    out = Matrix(a.cols(), b.cols());
  } else {
    out.zero();
  }
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* a_row = a.row(r).data();
    const double* b_row = b.row(r).data();
    for (std::size_t i = 0; i < m; ++i) {
      kernels::axpy(a_row[i], b_row, out.row(i).data(), n);
    }
  }
}

void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  if (out.rows() != a.rows() || out.cols() != b.rows()) {
    out = Matrix(a.rows(), b.rows());
  }
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.rows();
  // Both operand rows are contiguous over k, so each output is one
  // strip-mined kernels::dot (4-lane reduction, fixed combine order).
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row(i).data();
    double* out_row = out.row(i).data();
    for (std::size_t j = 0; j < n; ++j) {
      out_row[j] = kernels::dot(a_row, b.row(j).data(), k_dim);
    }
  }
}

void add_row_vector(Matrix& m, const Matrix& bias) {
  assert(bias.rows() == 1 && bias.cols() == m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* row = m.row(r).data();
    const double* b = bias.row(0).data();
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += b[c];
  }
}

void sum_rows(const Matrix& m, Matrix& out) {
  if (out.rows() != 1 || out.cols() != m.cols()) {
    out = Matrix(1, m.cols());
  } else {
    out.zero();
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.row(r).data();
    double* o = out.row(0).data();
    for (std::size_t c = 0; c < m.cols(); ++c) o[c] += row[c];
  }
}

}  // namespace pfdrl::nn
