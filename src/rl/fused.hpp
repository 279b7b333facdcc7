// Fused DQN learning (docs/fused_training.md) — the only DQN learning
// step. DqnAgent::learn() runs it over a group of one; the EMS pipeline
// runs it over each lockstep group of homes.
//
// Every residence runs the same Q-network architecture, so one EMS learn
// tick across a group of homes is N identical tiny minibatches. The
// learner stacks the group's replay minibatches into home-major
// state/next-state slabs and drives them through three passes of one
// shared nn::FusedMlp (target bootstrap, optional double-DQN online
// bootstrap, online forward/backward) against each agent's own
// parameter bank, then steps each agent's own Adam state with that
// agent's TD gradients.
//
// Determinism contract: grouping invariance. Per agent, the operation
// sequence depends on that agent alone — the replay-not-full gate fires
// before any RNG use, sample_into consumes the agent's own RNG, every
// matmul slice is bitwise its group-of-one result (nn/fused.hpp), the
// TD target/Huber-gradient arithmetic is per row, and
// zero_grad/backward/step/target-sync run per agent in group order. A
// group of N learns bitwise like N groups of one (pinned by rl_dqn_test's
// FusedDqn cases and the GoldenTraining DQN pin).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/fused.hpp"
#include "nn/matrix.hpp"
#include "rl/dqn.hpp"

namespace pfdrl::rl {

/// Fused multi-agent DQN learner. One learn() call performs one learning
/// step for every agent in the group, bitwise identical to calling
/// agents[i]->learn() (a group of one) in order.
class FusedDqnLearner {
 public:
  /// Runs one fused learn step. `losses` is parallel to `agents` and
  /// receives each agent's TD loss (0.0 for agents whose replay buffer
  /// is still warming up — those agents are skipped without touching
  /// their RNG).
  ///
  /// Returns false — with no agent state touched — when the group is not
  /// fusable (mismatched state/action dims, batch sizes, double-DQN
  /// settings, or network architectures). Agents built from one
  /// DqnConfig always fuse, and so does a group of one.
  bool learn(std::span<DqnAgent* const> agents, std::span<double> losses);

 private:
  // Shared engine for the target, double-DQN bootstrap and online passes
  // (one activation arena; the online pass runs last and stays cached
  // for backward).
  nn::FusedMlp mlp_;
  // Capacity-reusing assembly buffers (steady-state learn() calls of a
  // stable group shape allocate nothing).
  nn::Matrix states_;
  nn::Matrix next_states_;
  nn::Matrix q_next_;         // target-network bootstrap Q values
  nn::Matrix q_next_online_;  // online bootstrap Q values (double DQN)
  nn::Matrix grad_;
  std::vector<std::size_t> active_;  // indices into `agents`
  std::vector<nn::Mlp*> online_nets_;
  std::vector<nn::Mlp*> target_nets_;
  std::vector<nn::FusedSlice> slices_;
};

}  // namespace pfdrl::rl
