// Deep Q-Network agent (paper §3.3.1). The Q-network follows the paper's
// architecture — 8 hidden layers of 100 ReLU neurons, 3 outputs (one
// Q-value per device mode) — and hyperparameters: learning rate 1e-3,
// discount 0.9, replay capacity 2000, target-network refresh every 100
// learn steps, Huber TD loss.
//
// The network is an nn::Mlp, so its flat parameter buffer and per-layer
// offsets are directly usable by the PFDRL base/personalization split.
// Learning runs in rl::FusedDqnLearner (rl/fused.hpp); DqnAgent::learn()
// is one learner pass over a group of one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/workspace.hpp"
#include "rl/replay.hpp"
#include "util/rng.hpp"

namespace pfdrl::rl {

class FusedDqnLearner;

struct DqnConfig {
  std::size_t state_dim = 8;
  std::size_t num_actions = 3;
  /// Hidden architecture; the paper's is eight layers of 100.
  std::vector<std::size_t> hidden = {100, 100, 100, 100, 100, 100, 100, 100};
  double learning_rate = 1e-3;
  double discount = 0.9;  // the paper's "discounted rate"
  std::size_t replay_capacity = 2000;
  std::size_t target_replace_every = 100;
  std::size_t batch_size = 32;
  /// Double DQN (van Hasselt et al.): select the bootstrap action with
  /// the online network, evaluate it with the target network. Reduces
  /// Q-value overestimation; off by default to match the paper's DQN.
  bool double_dqn = false;
  /// Linear epsilon decay from start to end over `epsilon_decay_steps`.
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 2000;
  /// Seeds weight initialization. Federated peers must share this (the
  /// paper's "same default model" requirement).
  std::uint64_t seed = 11;
  /// Seeds exploration / replay sampling; 0 means "use `seed`". Federated
  /// peers should differ here so their trajectories decorrelate.
  std::uint64_t exploration_seed = 0;
};

/// Everything a warm restart needs to continue this agent bitwise:
/// both networks' flat parameters (online and target drift apart between
/// refreshes), Adam moments, the replay ring, the exploration RNG, and
/// the two step counters (epsilon derives from act_steps; the target
/// refresh schedule from learn_steps).
struct DqnAgentState {
  std::vector<double> online_params;
  std::vector<double> target_params;
  nn::AdamState optimizer;
  ReplayBufferState replay;
  util::RngState rng;
  std::uint64_t act_steps = 0;
  std::uint64_t learn_steps = 0;
};

class DqnAgent {
 public:
  explicit DqnAgent(const DqnConfig& cfg);
  ~DqnAgent();

  [[nodiscard]] const DqnConfig& config() const noexcept { return cfg_; }

  /// Epsilon-greedy action for `state` (advances the exploration
  /// schedule). Steady-state calls are allocation-free: the forward pass
  /// runs through the agent's nn::Workspace arena.
  int act(std::span<const double> state);
  /// Greedy action (evaluation policy; no exploration, no schedule).
  [[nodiscard]] int act_greedy(std::span<const double> state) const;
  /// Q-values for a state (diagnostics/tests).
  [[nodiscard]] std::vector<double> q_values(
      std::span<const double> state) const;
  /// Allocation-free variant: writes num_actions Q-values into `out`.
  void q_values_into(std::span<const double> state,
                     std::span<double> out) const;

  void remember(Transition t) { replay_.push(std::move(t)); }
  [[nodiscard]] const ReplayBuffer& replay() const noexcept { return replay_; }

  /// One DQN learning step on a replay minibatch (no-op until the buffer
  /// holds at least one batch): a FusedDqnLearner pass with this agent as
  /// the only member. Returns the Huber TD loss, or 0 if skipped.
  double learn();

  /// Current exploration rate.
  [[nodiscard]] double epsilon() const noexcept;
  [[nodiscard]] std::uint64_t learn_steps() const noexcept {
    return learn_steps_;
  }

  /// Online network access for federated parameter exchange. The PFDRL
  /// split uses the Mlp's per-layer offsets.
  [[nodiscard]] nn::Mlp& network() noexcept { return net_; }
  [[nodiscard]] const nn::Mlp& network() const noexcept { return net_; }
  /// Replace online parameters wholesale (checkpoint restore): syncs the
  /// target network and resets optimizer moments.
  void set_network_parameters(std::span<const double> values);
  /// Call after mutating network() parameters in place through federated
  /// averaging. Intentionally keeps both the Adam moments and the target
  /// network's own refresh schedule (see dqn.cpp for why).
  void notify_external_parameter_update();
  /// Copy online weights into the target network (exposed for tests).
  void sync_target();

  /// Deep-copy snapshot for warm-restart persistence.
  [[nodiscard]] DqnAgentState capture_state() const;
  /// Restore a snapshot. Unlike set_network_parameters this keeps the
  /// captured target network and Adam moments instead of resetting them —
  /// the restored agent must continue learning bitwise, not cold-start
  /// its schedule. Throws std::invalid_argument on shape mismatch.
  void restore_state(const DqnAgentState& state);

 private:
  // The learner (rl/fused.hpp) runs this agent's learning step against
  // shared slabs; it needs the networks, optimizer, replay, RNG, step
  // counter and sample buffer.
  friend class FusedDqnLearner;

  /// Single-state forward through the workspace; returns the Q-row, which
  /// lives in ws_ until the next q_row()/learn() call.
  [[nodiscard]] std::span<const double> q_row(
      std::span<const double> state) const;

  DqnConfig cfg_;
  util::Rng rng_;
  nn::Mlp net_;
  nn::Mlp target_;
  nn::Adam opt_;
  ReplayBuffer replay_;
  std::uint64_t act_steps_ = 0;
  std::uint64_t learn_steps_ = 0;
  // Inference scratch. The workspace keeps its heap blocks across calls,
  // so the steady-state act path stops allocating once warm. Mutable:
  // taking scratch does not change the agent's observable state.
  mutable nn::Workspace ws_;
  // The replay minibatch the learner samples into (capacity reused).
  std::vector<const Transition*> batch_;
  // learn()'s group-of-one learner, created by the first learn() call:
  // agents that only learn through a caller's group learner (the EMS
  // pipeline) never allocate it.
  std::unique_ptr<FusedDqnLearner> learner_;
};

}  // namespace pfdrl::rl
