#include "rl/fused.hpp"

#include <algorithm>
#include <cassert>

#include "nn/loss.hpp"

namespace pfdrl::rl {

bool FusedDqnLearner::learn(std::span<DqnAgent* const> agents,
                            std::span<double> losses) {
  assert(agents.size() == losses.size());
  std::fill(losses.begin(), losses.end(), 0.0);
  if (agents.empty()) return true;

  // Fusability: the slab shapes and the shared forward passes require
  // identical dims, batch sizes, bootstrap mode, and architectures.
  const DqnAgent& ref = *agents.front();
  for (const DqnAgent* a : agents) {
    if (a->cfg_.state_dim != ref.cfg_.state_dim ||
        a->cfg_.num_actions != ref.cfg_.num_actions ||
        a->cfg_.batch_size != ref.cfg_.batch_size ||
        a->cfg_.double_dqn != ref.cfg_.double_dqn ||
        !a->net_.same_architecture(ref.net_)) {
      return false;
    }
  }

  // Warm-up gate before any RNG use.
  active_.clear();
  for (std::size_t i = 0; i < agents.size(); ++i) {
    if (agents[i]->replay_.size() >= agents[i]->cfg_.batch_size) {
      active_.push_back(i);
    }
  }
  if (active_.empty()) return true;

  const std::size_t bs = ref.cfg_.batch_size;
  const std::size_t state_dim = ref.cfg_.state_dim;
  const std::size_t num_actions = ref.cfg_.num_actions;
  const std::size_t rows = active_.size() * bs;

  // Sample each active agent's minibatch (its own RNG, group order) and
  // gather the transitions into the home-major slabs.
  states_.reshape(rows, state_dim);       // fully overwritten below
  next_states_.reshape(rows, state_dim);  // fully overwritten below
  slices_.clear();
  online_nets_.clear();
  target_nets_.clear();
  std::size_t row = 0;
  for (const std::size_t idx : active_) {
    DqnAgent& a = *agents[idx];
    a.replay_.sample_into(bs, a.rng_, a.batch_);
    for (std::size_t i = 0; i < bs; ++i) {
      std::copy(a.batch_[i]->state.begin(), a.batch_[i]->state.end(),
                states_.row(row + i).begin());
      std::copy(a.batch_[i]->next_state.begin(), a.batch_[i]->next_state.end(),
                next_states_.row(row + i).begin());
    }
    slices_.push_back({row, bs});
    online_nets_.push_back(&a.net_);
    target_nets_.push_back(&a.target_);
    row += bs;
  }

  // Bootstrap and prediction passes over the whole slab. Each agent's
  // slice multiplies its own parameter bank, so per-row results are
  // bitwise the agent's own predict() values. One engine runs all
  // three passes: the bootstrap outputs are copied out before the next
  // pass reuses its activation slabs, and the online pass runs last so
  // its activations stay cached for backward().
  q_next_ = mlp_.forward(target_nets_, slices_, next_states_);
  if (ref.cfg_.double_dqn) {
    q_next_online_ = mlp_.forward(online_nets_, slices_, next_states_);
  }
  const nn::Matrix& q_pred = mlp_.forward(online_nets_, slices_, states_);

  // Per-row Huber TD gradients, only on each row's taken action.
  grad_.reshape(rows, num_actions);
  grad_.zero();
  const double inv_bs = 1.0 / static_cast<double>(bs);
  for (std::size_t m = 0; m < active_.size(); ++m) {
    DqnAgent& a = *agents[active_[m]];
    const std::size_t r0 = slices_[m].row_begin;
    double loss = 0.0;
    for (std::size_t i = 0; i < bs; ++i) {
      const std::size_t r = r0 + i;
      double max_next;
      if (ref.cfg_.double_dqn) {
        std::size_t best = 0;
        for (std::size_t act = 1; act < num_actions; ++act) {
          if (q_next_online_(r, act) > q_next_online_(r, best)) best = act;
        }
        max_next = q_next_(r, best);
      } else {
        max_next = q_next_(r, 0);
        for (std::size_t act = 1; act < num_actions; ++act) {
          max_next = std::max(max_next, q_next_(r, act));
        }
      }
      const double target =
          a.batch_[i]->reward +
          (a.batch_[i]->terminal ? 0.0 : a.cfg_.discount * max_next);
      const auto action = static_cast<std::size_t>(a.batch_[i]->action);
      const double td_error = q_pred(r, action) - target;
      loss += nn::huber(td_error) * inv_bs;
      grad_(r, action) = nn::huber_grad(td_error) * inv_bs;
    }
    losses[active_[m]] = loss;
  }

  // Per-agent gradient accumulation through the shared backward, then
  // each agent's own Adam step and target schedule.
  for (const std::size_t idx : active_) agents[idx]->net_.zero_grad();
  mlp_.backward(online_nets_, slices_, grad_);
  for (const std::size_t idx : active_) {
    DqnAgent& a = *agents[idx];
    a.opt_.step(a.net_.parameters(), a.net_.gradients());
    ++a.learn_steps_;
    if (a.learn_steps_ % a.cfg_.target_replace_every == 0) a.sync_target();
  }

  nn::note_fused_batch(active_.size(), rows);
  return true;
}

}  // namespace pfdrl::rl
