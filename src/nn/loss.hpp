// Regression losses with analytic gradients. The DQN uses Huber loss as
// in the paper ("acts quadratic for small errors and linear for large
// errors"); forecasters use MSE by default and expose the others for the
// ablation benches.
#pragma once

#include "nn/matrix.hpp"

namespace pfdrl::nn {

enum class LossKind { kMse, kMae, kHuber };

/// Mean loss over all elements of (pred, target); shapes must match.
double loss_value(LossKind kind, const Matrix& pred, const Matrix& target,
                  double huber_delta = 1.0);

/// Mean loss over the row range [pred_row_begin, pred_row_begin + rows)
/// of `pred` against [target_row_begin, ...) of `target`. The fused
/// trainers normalize each member's slab slice by its own element count
/// (their epoch arenas hold targets at an arena offset while predictions
/// live in batch-local slabs); rows are contiguous and iterated in
/// ascending element order, so a slice's value is bitwise loss_value over
/// the same rows as a standalone batch.
double loss_value_rows(LossKind kind, const Matrix& pred,
                       std::size_t pred_row_begin, const Matrix& target,
                       std::size_t target_row_begin, std::size_t rows,
                       double huber_delta = 1.0);
/// d(mean slice loss)/d(pred) into the same rows of `grad` (which must
/// already have pred's shape); the other rows are left untouched.
void loss_grad_rows(LossKind kind, const Matrix& pred,
                    std::size_t pred_row_begin, const Matrix& target,
                    std::size_t target_row_begin, std::size_t rows,
                    Matrix& grad, double huber_delta = 1.0);

/// Scalar Huber loss (exposed for tests and the RL temporal-difference
/// error path, which operates on single Q-values).
double huber(double error, double delta = 1.0) noexcept;
double huber_grad(double error, double delta = 1.0) noexcept;

const char* loss_name(LossKind kind) noexcept;

}  // namespace pfdrl::nn
