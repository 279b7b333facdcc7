// The one federated round driver.
//
// Both training loops — DFL's β-rounds (Alg. 1) and the EMS γ-rounds
// (Eq. 7) — run through run_rounds(): a RoundPipeline whose compute cells
// are the window's fused training groups, with the exchange schedule
// derived from the run. Each (cell, round) computes, publishes and
// applies; per-(cell, round) readiness counters derived from a broadcast
// graph decide when apply may run: cell s advances to round r+1 the
// moment its own round-r apply is done, and apply(s, r) fires the moment
// every in-neighbor cell (self included) has published round r —
// delivered as a continuation on the pool
// (util::ThreadPool::submit_detached), never as a blocking wait, so the
// pipeline runs correctly even on a single-worker pool. The calling
// thread works cell 0 itself.
//
//  * Pipelined (pipelined_rounds(bus)): cells are the exchange shards,
//    the graph is the federation topology at shard granularity and
//    publish/apply are ParamExchange::publish_shard/apply_shard. Fast
//    shards overlap round r+1 compute with slow shards' round-r
//    aggregation; the only full barrier left is the segment boundary the
//    caller chooses (snapshot cadence).
//  * Barrier (every other run): every cell only depends on itself,
//    segments are one round long, and the whole ParamExchange::round(r)
//    runs at each boundary, so deliveries and the per-bus fault stream
//    keep one fixed order.
//
// Determinism is unaffected: every shard consumes exactly the same
// per-round neighbor payload set in the same pinned sort order under
// either schedule, so parameters match bitwise at any worker count
// (docs/scaling.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fl/exchange.hpp"
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

namespace pfdrl::fl {

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
/// so it can run after every segment.
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
  /// callers take snapshots. The calling thread runs every step and
  /// apply of cell 0 itself (as a parallel_for caller joins its sweep),
  /// so N cells keep N threads busy on a pool of N - 1 workers.
  /// Exceptions from any callback abort the segment (in-flight cells
  /// finish or bail) and rethrow here.
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

/// The compute cells of a training window over a home-major job list
/// (docs/fused_training.md): one per home shard when sharded — the
/// exchange shards, since both clamp the shard count to the home count
/// like net::ShardRouter — else one contiguous block of homes per pool
/// thread (the workers plus the calling thread). Cell c owns homes
/// [home_begin[c], home_begin[c+1]) and jobs [job_begin[c],
/// job_begin[c+1]); its jobs train as one fused group. Per-job work does
/// not depend on the grouping, so results are bitwise identical at any
/// cell count.
struct CellPlan {
  std::vector<std::size_t> home_begin;
  std::vector<std::size_t> job_begin;
  bool sharded = false;

  [[nodiscard]] std::size_t cells() const noexcept {
    return home_begin.size() - 1;
  }
};

/// `job_homes[j]` is job j's home (non-decreasing, each < `homes`);
/// `shards` as configured (0/1 = unsharded). Unsharded cells follow the
/// global pool's size.
[[nodiscard]] CellPlan plan_cells(std::span<const std::size_t> job_homes,
                                  std::size_t homes, std::size_t shards);

/// True when a federated training window on `bus` takes the pipelined
/// schedule: the run is sharded (a router is attached), has >= 2 agents,
/// and pipelinable(bus) holds. Every other run takes the barrier
/// schedule.
[[nodiscard]] bool pipelined_rounds(const net::MessageBus& bus) noexcept;

/// One training window's rounds for run_rounds().
struct RoundLoop {
  /// Metric namespace: `<prefix>.rounds`, `<prefix>.round_seconds{,
  /// _series}` (wall time between round retirements), `<prefix>.shard.*`
  /// (per-cell compute seconds, sharded runs) and `<prefix>.pipeline.*`
  /// (pipelined runs). nullptr `metrics` records nothing.
  std::string prefix;
  obs::MetricsRegistry* metrics = nullptr;
  /// The window's exchange session (items sorted by agent, one session for
  /// the whole window); nullptr runs local rounds with no exchange.
  ParamExchange* session = nullptr;
  ParamExchange::CommitFn commit;
  /// Caller's fold of the exchange stats of `rounds` completed rounds:
  /// after every barrier round, after every pipelined segment.
  std::function<void(const ExchangeStats&, std::uint64_t rounds)> fold;
  /// Local work of `cell` at `round`, over trace minutes [begin, end);
  /// cells run concurrently.
  std::function<void(std::size_t cell, std::uint64_t round,
                     std::size_t begin, std::size_t end)>
      compute;
  /// Optional: each segment covers rounds [first, first + rounds), called
  /// before it starts (size per-round scratch here).
  std::function<void(std::uint64_t first, std::size_t rounds)> segment_begin;
  /// Optional sequential per-round epilogue (RoundPipeline::Ops).
  std::function<void(std::uint64_t round)> round_done;
  /// Optional: fires at every segment boundary with the next round id,
  /// training quiesced and the exchange folded.
  std::function<void(std::uint64_t next_round)> segment_end;
  /// Pipelined segment length; 0 = the whole window. Barrier segments are
  /// always one round.
  std::size_t segment_rounds = 0;
};

/// Train over trace minutes [begin, end) in rounds of `round_minutes`
/// (the last may be shorter), numbered from `first_round`, over `plan`'s
/// cells on the global pool; pipelined iff the session exists and
/// pipelined_rounds(its bus) holds. Returns the number of rounds. Throws
/// std::invalid_argument for zero-minute rounds and std::logic_error if
/// a pipelined session's shard count is not the cell count.
std::size_t run_rounds(const CellPlan& plan, const RoundLoop& loop,
                       std::uint64_t first_round, std::size_t begin,
                       std::size_t end, std::size_t round_minutes);

}  // namespace pfdrl::fl
