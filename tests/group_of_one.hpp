// Test helpers: train one network as a fused group of one. The fused
// engines (nn/fused.hpp) are the only training implementation, so these
// are how a unit test takes a single training step on a single network.
#pragma once

#include <vector>

#include "nn/fused.hpp"
#include "nn/gru.hpp"
#include "nn/lstm.hpp"
#include "nn/mlp.hpp"

namespace pfdrl::nn::testing {

/// One forward + loss + BPTT + clip + optimizer step of `net` on
/// (xs, y). Returns the batch loss.
template <class Engine, class Net>
double train_recurrent_alone(Net& net, const std::vector<Matrix>& xs,
                             const Matrix& y, LossKind loss, Optimizer& opt,
                             double clip_norm) {
  Engine engine;
  Net* nets[] = {&net};
  Optimizer* opts[] = {&opt};
  const FusedSlice slices[] = {{0, y.rows()}};
  std::vector<const Matrix*> steps;
  for (const Matrix& x : xs) steps.push_back(&x);
  double losses[1] = {0.0};
  engine.train_batch(nets, slices, steps, y, loss, opts, losses, clip_norm);
  return losses[0];
}

inline double train_alone(LstmRegressor& net, const std::vector<Matrix>& xs,
                          const Matrix& y, LossKind loss, Optimizer& opt,
                          double clip_norm = 5.0) {
  return train_recurrent_alone<FusedLstm>(net, xs, y, loss, opt, clip_norm);
}

inline double train_alone(GruRegressor& net, const std::vector<Matrix>& xs,
                          const Matrix& y, LossKind loss, Optimizer& opt,
                          double clip_norm = 5.0) {
  return train_recurrent_alone<FusedGru>(net, xs, y, loss, opt, clip_norm);
}

/// One forward + loss + backward + optimizer step of `net` on (x, y).
inline double train_alone(Mlp& net, const Matrix& x, const Matrix& y,
                          LossKind loss, Optimizer& opt) {
  FusedMlp engine;
  Mlp* nets[] = {&net};
  Optimizer* opts[] = {&opt};
  const FusedSlice slices[] = {{0, x.rows()}};
  double losses[1] = {0.0};
  engine.train_batch(nets, slices, x, y, loss, opts, losses);
  return losses[0];
}

}  // namespace pfdrl::nn::testing
