// The fan-out stages of the EMS pipeline.
//
// ShardedRunner owns the pinned home→shard assignment (contiguous
// balanced blocks, util::shard_of — the same assignment net::ShardRouter
// uses for agent ids, so a shard's homes and its bus endpoints coincide)
// and dispatches one pool task per shard; evaluation fans out through
// it, recording per-shard wall time under a caller-named prefix
// (ems.eval_shard.*). With shards <= 1 it degrades to one flat
// parallel_for.
//
// RoundPipeline is the one EMS training round loop. Each (cell, round)
// computes, publishes and applies; per-(cell, round) readiness counters
// derived from a broadcast graph decide when apply may run: cell s
// advances to round r+1 the moment its own round-r apply is done, and
// apply(s, r) fires the moment every in-neighbor cell (self included)
// has published round r — delivered as a continuation on the pool
// (util::ThreadPool::submit_detached), never as a blocking wait, so the
// pipeline runs correctly even on a single-worker pool. Under the
// pipelined exchange schedule the cells are home shards and the graph is
// the federation topology at shard granularity: fast shards overlap
// round r+1 compute with slow shards' round-r aggregation, and the only
// full barrier left is the segment boundary the caller chooses
// (snapshot cadence). Under the barrier schedule every cell only depends
// on itself and segments are one round long, so the caller runs the
// whole exchange round at each boundary. Determinism is unaffected:
// every shard consumes exactly the same per-round neighbor payload set
// in the same pinned sort order under either schedule, so param hashes
// match bitwise at any worker count (docs/scaling.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/message.hpp"

namespace pfdrl::obs {
class MetricsRegistry;
}
namespace pfdrl::net {
class Topology;
}
namespace pfdrl::util {
class ThreadPool;
}

namespace pfdrl::core {

class ShardedRunner {
 public:
  /// `shards` == 0 or 1 means unsharded; clamped to num_homes.
  ShardedRunner(std::size_t num_homes, std::size_t shards,
                obs::MetricsRegistry* metrics);

  [[nodiscard]] std::size_t num_homes() const noexcept { return homes_; }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] bool sharded() const noexcept { return shards_ > 1; }
  [[nodiscard]] std::size_t shard_of_home(std::size_t home) const noexcept;

  /// Run `body(j)` for every job j; `job_homes[j]` names the home that
  /// owns job j (jobs of one home always land in one shard). Shards run
  /// concurrently on the global pool — thread count is bounded by the
  /// pool size, never by the job count — and jobs within a shard run in
  /// order. Bodies must be independent across jobs. Records shard timing
  /// metrics under `<metric_prefix>.` when sharded.
  void run(const std::vector<std::size_t>& job_homes,
           const std::function<void(std::size_t)>& body,
           const char* metric_prefix) const;

 private:
  std::size_t homes_;
  std::size_t shards_;
  obs::MetricsRegistry* metrics_;
};

/// What the pipelined schedule did, cumulative across run() segments. Wall
/// and stall times are real clock measurements — observability only,
/// never inputs to the simulation.
struct PipelineStats {
  /// Rounds fully retired (round_done fired).
  std::uint64_t rounds = 0;
  /// (shard, round) cells applied.
  std::uint64_t shard_rounds = 0;
  /// High-water count of simultaneously open rounds (1 = no overlap
  /// achieved, e.g. a full-mesh topology on one worker).
  std::uint64_t max_rounds_in_flight = 1;
  /// Seconds shards spent between finishing their own publish and
  /// starting their apply — waiting on neighbor publishes. The pipeline
  /// analogue of barrier wait.
  double stall_seconds = 0.0;
  /// Wall seconds during which at least two rounds were open at once —
  /// the overlap the barriers forbade.
  double overlap_seconds = 0.0;
  /// Total wall seconds inside run().
  double wall_seconds = 0.0;
};

/// Fold cumulative PipelineStats into `<prefix>.rounds` /
/// `.shard_rounds` counters and `.depth`, `.stall_seconds`,
/// `.overlap_seconds`, `.wall_seconds` gauges. Idempotent (set, not add)
/// so it can run after every segment. Lives here rather than in obs
/// because the obs layer sits below core in the link order.
void record_pipeline_stats(obs::MetricsRegistry& registry,
                           std::string_view prefix,
                           const PipelineStats& stats);

/// Shard-level broadcast reachability: out[s] lists every shard that
/// receives at least one message when shard s's agents broadcast, self
/// always included (a shard must see its own publish before it applies).
/// Each list is sorted unique. `shard_of` must be monotone in the agent
/// id (util::shard_of and the router's weighted boundaries both are).
/// Full mesh short-circuits to all-to-all instead of walking O(N²) edges.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> shard_broadcast_graph(
    const net::Topology& topology,
    const std::function<std::size_t(net::AgentId)>& shard_of,
    std::size_t shards);

/// The dependency-driven round scheduler. Owns no domain logic — callers
/// hand it four callbacks and a shard broadcast graph; it decides *when*
/// each (shard, round) cell runs and on which pool continuation.
class RoundPipeline {
 public:
  struct Ops {
    /// Local work for the shard's jobs at `round` (rollouts, training).
    std::function<void(std::size_t shard, std::uint64_t round)> compute;
    /// Broadcast the shard's parameters and flush its router row.
    std::function<void(std::size_t shard, std::uint64_t round)> publish;
    /// Drain + aggregate + commit; the scheduler guarantees every
    /// in-neighbor shard (self included) published `round` first.
    std::function<void(std::size_t shard, std::uint64_t round)> apply;
    /// Sequential epilogue, called exactly once per round in ascending
    /// round order (serialized; cheap bookkeeping only — the global
    /// state is NOT quiesced, later rounds may already be in flight).
    std::function<void(std::uint64_t round)> round_done;
  };

  /// `out_neighbors` as produced by shard_broadcast_graph(); its size is
  /// the shard count. In-degrees (the readiness targets) are derived by
  /// transposing.
  explicit RoundPipeline(std::vector<std::vector<std::uint32_t>> out_neighbors);

  /// Run one segment: rounds [first_round, first_round + rounds). Blocks
  /// until every cell is applied and every round_done fired — the
  /// segment boundary is the one full barrier left, which is where
  /// callers take snapshots. The calling thread runs cell 0's first step
  /// itself (as a parallel_for caller joins its sweep), so N cells keep
  /// N threads busy on a pool of N - 1 workers. Exceptions from any
  /// callback abort the segment (in-flight cells finish or bail) and
  /// rethrow here.
  void run(util::ThreadPool& pool, std::uint64_t first_round,
           std::size_t rounds, const Ops& ops);

  [[nodiscard]] std::size_t shards() const noexcept { return out_.size(); }
  /// Cumulative across run() calls on this instance.
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }

 private:
  std::vector<std::vector<std::uint32_t>> out_;
  std::vector<std::uint32_t> target_;  ///< in-degree incl. self, per shard
  PipelineStats stats_;
};

}  // namespace pfdrl::core
