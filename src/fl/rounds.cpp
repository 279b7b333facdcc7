#include "fl/rounds.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/shard.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {

CellPlan plan_cells(std::span<const std::size_t> job_homes, std::size_t homes,
                    std::size_t shards) {
  CellPlan plan;
  const std::size_t clamped = std::min(shards, homes);
  plan.sharded = clamped > 1;
  const std::size_t cells =
      plan.sharded ? clamped : util::ThreadPool::global().size() + 1;
  plan.home_begin.resize(cells + 1);
  plan.job_begin.resize(cells + 1);
  for (std::size_t c = 0; c <= cells; ++c) {
    plan.home_begin[c] = util::shard_begin(c, homes, cells);
    plan.job_begin[c] = static_cast<std::size_t>(
        std::lower_bound(job_homes.begin(), job_homes.end(),
                         plan.home_begin[c]) -
        job_homes.begin());
  }
  return plan;
}

std::size_t run_rounds(const CellPlan& plan, const RoundLoop& loop,
                       std::uint64_t first_round, std::size_t begin,
                       std::size_t end, std::size_t round_minutes) {
  if (round_minutes == 0) {
    throw std::invalid_argument("run_rounds: zero-minute rounds");
  }
  const std::size_t rounds =
      end > begin ? (end - begin + round_minutes - 1) / round_minutes : 0;
  if (rounds == 0) return 0;
  const std::size_t cells = plan.cells();

  obs::MetricsRegistry* reg = loop.metrics;
  obs::Histogram* round_hist = nullptr;
  obs::Series* round_series = nullptr;
  obs::Counter* rounds_counter = nullptr;
  if (reg != nullptr) {
    round_hist = &reg->histogram(loop.prefix + ".round_seconds");
    round_series = &reg->series(loop.prefix + ".round_seconds_series");
    rounds_counter = &reg->counter(loop.prefix + ".rounds");
  }
  util::ShardTiming timing{std::vector<double>(cells)};
  auto last_round_end = std::chrono::steady_clock::now();

  for (std::size_t i = 0; i < rounds; ++i) {
    const std::uint64_t r = first_round + i;
    const std::size_t wb = begin + i * round_minutes;
    const std::size_t we = std::min(wb + round_minutes, end);
    util::ThreadPool::global().parallel_for(0, cells, [&](std::size_t c) {
      const util::Stopwatch watch;
      loop.compute(c, r, wb, we);
      timing.shard_seconds[c] = watch.elapsed_seconds();
    });

    if (loop.round_done) loop.round_done(r);
    if (reg != nullptr) {
      if (plan.sharded) {
        obs::record_shard_timing(*reg, loop.prefix + ".shard", timing);
      }
      rounds_counter->add(1);
      // Round time = wall time between consecutive round_done calls.
      const auto now = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(now - last_round_end).count();
      round_hist->observe(seconds);
      round_series->append(seconds);
      last_round_end = now;
    }

    if (loop.session != nullptr) {
      const ExchangeStats stats = loop.session->round(r, loop.commit);
      if (loop.fold) loop.fold(stats);
    }
    if (loop.round_end) loop.round_end(r + 1);
  }
  return rounds;
}

}  // namespace pfdrl::fl
