// Shard plan for the sharded engine (docs/scaling.md).
//
// A ShardPlan pins the home → shard assignment for a run: contiguous,
// balanced buckets computed from (num_homes, shards) alone, via the same
// util::shard arithmetic the runtime fan-out uses. Because the plan is a
// pure function of those two numbers, a resumed run reconstructs the
// identical assignment without persisting it — per-shard snapshot files
// only need to carry (shard_index, shard_count).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace pfdrl::sim {

struct ShardPlan {
  std::size_t num_homes = 0;
  std::size_t shards = 1;
  /// Cost-weighted boundaries (make_weighted). Empty for the uniform
  /// plan; otherwise shards+1 strictly increasing home indices with
  /// boundaries[0] == 0 and boundaries[shards] == num_homes — shard k
  /// owns [boundaries[k], boundaries[k+1]). Still contiguous and
  /// monotone, so shard_of stays invertible and the router/bus endpoint
  /// identity (home id == agent id, ascending per shard) is unchanged.
  std::vector<std::size_t> boundaries;

  /// Clamp `requested` into [1, max(1, num_homes)] — one pool task per
  /// home is the finest useful grain, and 0 means "unsharded".
  [[nodiscard]] static ShardPlan make(std::size_t num_homes,
                                      std::size_t requested);

  /// Cost-weighted variant: `weights[home]` is the home's relative step
  /// cost (e.g. its device count), and boundaries are cut so per-shard
  /// total weight is as even as contiguity allows — a pure, deterministic
  /// function of (weights, requested). Equal weights reproduce the
  /// uniform plan's boundaries exactly. Falls back to the uniform plan
  /// when the clamped shard count is 1.
  [[nodiscard]] static ShardPlan make_weighted(
      const std::vector<std::size_t>& weights, std::size_t requested);

  [[nodiscard]] bool sharded() const noexcept { return shards > 1; }
  [[nodiscard]] bool weighted() const noexcept { return !boundaries.empty(); }

  /// max/mean of per-shard total weight under this plan — the
  /// wall-time-imbalance predictor the weighted assignment minimizes.
  /// 1.0 for degenerate inputs. `weights.size()` must equal num_homes.
  [[nodiscard]] double weight_imbalance(
      const std::vector<std::size_t>& weights) const;

  /// Shard owning `home` (contiguous balanced assignment; agrees with
  /// util::shard_of and hence with the runtime engine).
  [[nodiscard]] std::size_t shard_of(std::size_t home) const;

  /// Home range [first, last) of `shard`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
      std::size_t shard) const;

  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;

  /// Cluster size that aligns the hierarchical topology's clusters with
  /// the shard boundaries (ceil(num_homes / shards)): every cluster then
  /// lives inside one shard, so hub traffic is the only cross-shard
  /// traffic the router has to batch.
  [[nodiscard]] std::size_t aligned_cluster_size() const;

  /// Human-readable summary, e.g. "10000 homes / 8 shards (1250 each)".
  [[nodiscard]] std::string describe() const;
};

}  // namespace pfdrl::sim
