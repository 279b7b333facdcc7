// The one federated round loop.
//
// Both training loops — DFL's β-rounds (Alg. 1) and the EMS γ-rounds
// (Eq. 7) — run through run_rounds(). Like the paper's algorithms it is
// synchronous: every round, the window's compute cells (its fused
// training groups) train in parallel on the global pool, then the whole
// exchange round (ParamExchange::round) broadcasts and averages at a
// barrier. Per round, in this order:
//
//   1. parallel_for over the cells' compute;
//   2. round_done (sequential bookkeeping);
//   3. ParamExchange::round(r, commit);
//   4. fold (the caller's share of the round's exchange stats);
//   5. round_end (training quiesced — the snapshot hook).
//
// The exchange round parallelizes itself when the bus is sharded
// (fl/exchange.hpp), so the loop needs no schedule of its own.
// Determinism: per-job work does not depend on the cell that runs it and
// every item averages a sorted contribution set, so parameters match
// bitwise at any worker or shard count (docs/scaling.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fl/exchange.hpp"

namespace pfdrl::obs {
class MetricsRegistry;
}

namespace pfdrl::fl {

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

/// One training window's rounds for run_rounds().
struct RoundLoop {
  /// Metric namespace: `<prefix>.rounds`, `<prefix>.round_seconds{,
  /// _series}` (wall time between consecutive round_done calls) and
  /// `<prefix>.shard.*` (per-cell compute seconds, sharded runs).
  /// nullptr `metrics` records nothing.
  std::string prefix;
  obs::MetricsRegistry* metrics = nullptr;
  /// The window's exchange session (items sorted by agent, one session for
  /// the whole window); nullptr runs local rounds with no exchange.
  ParamExchange* session = nullptr;
  ParamExchange::CommitFn commit;
  /// Caller's fold of one round's exchange stats.
  std::function<void(const ExchangeStats&)> fold;
  /// Local work of `cell` at `round`, over trace minutes [begin, end);
  /// cells run concurrently.
  std::function<void(std::size_t cell, std::uint64_t round,
                     std::size_t begin, std::size_t end)>
      compute;
  /// Optional sequential per-round epilogue of the compute step, before
  /// the exchange.
  std::function<void(std::uint64_t round)> round_done;
  /// Optional: fires after every round with the next round id, training
  /// quiesced and the exchange folded.
  std::function<void(std::uint64_t next_round)> round_end;
};

/// Train over trace minutes [begin, end) in rounds of `round_minutes`
/// (the last may be shorter), numbered from `first_round`, over `plan`'s
/// cells on the global pool. Returns the number of rounds. Throws
/// std::invalid_argument for zero-minute rounds.
std::size_t run_rounds(const CellPlan& plan, const RoundLoop& loop,
                       std::uint64_t first_round, std::size_t begin,
                       std::size_t end, std::size_t round_minutes);

}  // namespace pfdrl::fl
