// Batched cross-shard message exchange for the sharded engine
// (docs/scaling.md). Agents are partitioned into contiguous shards
// (util::shard_of); same-shard traffic flows straight into inboxes,
// while cross-shard messages are parked in a per-(src shard, dst shard)
// batch and handed over as ONE drain per shard pair per tick. Payloads
// stay refcounted handles, so batching moves pointers, not parameter
// bytes. flush() drains pairs in pinned ascending (src, dst) order and
// preserves enqueue order within a pair, which keeps sharded runs
// deterministic per seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace pfdrl::net {

struct ShardRouterStats {
  /// Cross-shard messages parked in a pair batch.
  std::uint64_t messages_batched = 0;
  /// Non-empty (src, dst) pair batches handed over across all flushes —
  /// the number of cross-shard "transfers" a real deployment would pay
  /// for, vs. messages_batched individual sends without batching.
  std::uint64_t batches_flushed = 0;
  /// flush() calls (ticks with any router attached).
  std::uint64_t flushes = 0;
  /// Logical (pre-codec) bytes carried inside flushed batches: the full
  /// per-message header + raw payload, as if each message had been sent
  /// individually and uncoded.
  std::uint64_t batched_bytes = 0;
  /// Post-codec bytes the cross-shard transfers actually pay: one slab
  /// header per flushed pair batch plus, per message, a slab subheader
  /// and the coded frame (raw payload when uncoded). Compare against
  /// batched_bytes for the achieved cross-shard compression.
  std::uint64_t batched_wire_bytes = 0;
  /// High-water message count of any single pair batch at flush time
  /// (per-shard queue depth).
  std::uint64_t max_batch_depth = 0;
};

class ShardRouter {
 public:
  ShardRouter(std::size_t num_agents, std::size_t num_shards);

  /// Cost-weighted assignment: explicit contiguous boundaries (size
  /// shards+1, strictly increasing, boundaries.front() == 0 and
  /// boundaries.back() == num_agents), as produced by
  /// sim::ShardPlan::make_weighted. shard_of becomes an upper_bound over
  /// the boundaries — still monotone in the agent id, so every shard
  /// still owns one contiguous agent range.
  ShardRouter(std::size_t num_agents, std::vector<std::size_t> boundaries);

  [[nodiscard]] std::size_t num_agents() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_; }
  /// Pinned contiguous assignment — util::shard_of arithmetic, or an
  /// upper_bound over the explicit boundaries when constructed with one.
  [[nodiscard]] std::size_t shard_of(AgentId agent) const noexcept;
  [[nodiscard]] bool cross_shard(AgentId a, AgentId b) const noexcept {
    return shard_of(a) != shard_of(b);
  }

  /// Park a cross-shard delivery in the (shard(msg.sender), shard(to))
  /// batch. Thread-safe; callers on different pairs never contend.
  void enqueue(AgentId to, Message msg);

  /// Drain all pair batches in ascending (src shard, dst shard) order,
  /// invoking `deliver(to, msg)` for each parked message in its original
  /// enqueue order. Returns the number of messages handed over. Not
  /// re-entrant; call from the tick barrier only.
  std::size_t flush(const std::function<void(AgentId, Message&&)>& deliver);

  /// Toggle the single-generation batch invariant. The exchange round
  /// flushes its batches before the next round can broadcast, so while
  /// an fl::ParamExchange session is live a pair batch must never hold
  /// two round generations — enqueue() throws if one does. A bare bus may
  /// let a lagging flusher park several rounds, so the check is off by
  /// default; every session turns it on for its lifetime.
  void set_strict_rounds(bool strict) noexcept {
    strict_rounds_.store(strict, std::memory_order_relaxed);
  }

  /// Messages currently parked across all pair batches.
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] ShardRouterStats stats() const;
  void reset_stats();

 private:
  struct PairBatch {
    std::mutex mutex;
    std::vector<std::pair<AgentId, Message>> items;
    /// Round tag of the messages currently parked here (checked only
    /// under set_strict_rounds).
    std::uint64_t epoch = 0;
  };

  std::size_t n_;
  std::size_t shards_;
  /// Empty for the uniform (N, S) assignment; else shards_+1 boundaries.
  std::vector<std::size_t> boundaries_;
  /// Dense shards_ × shards_ grid, row = src shard.
  std::vector<std::unique_ptr<PairBatch>> pairs_;
  std::atomic<bool> strict_rounds_{false};
  mutable std::mutex stats_mutex_;
  ShardRouterStats stats_;
};

}  // namespace pfdrl::net
