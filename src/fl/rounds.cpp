#include "fl/rounds.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "net/shard_router.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/shard.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace pfdrl::fl {

void record_pipeline_stats(obs::MetricsRegistry& registry,
                           std::string_view prefix,
                           const PipelineStats& stats) {
  const std::string p(prefix);
  registry.counter(p + ".rounds").set(stats.rounds);
  registry.counter(p + ".shard_rounds").set(stats.shard_rounds);
  registry.gauge(p + ".depth")
      .set(static_cast<double>(stats.max_rounds_in_flight));
  registry.gauge(p + ".stall_seconds").set(stats.stall_seconds);
  registry.gauge(p + ".overlap_seconds").set(stats.overlap_seconds);
  registry.gauge(p + ".wall_seconds").set(stats.wall_seconds);
}

// ---------------------------------------------------------------------------
// Shard broadcast graph

std::vector<std::vector<std::uint32_t>> shard_broadcast_graph(
    const net::Topology& topology,
    const std::function<std::size_t(net::AgentId)>& shard_of,
    std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("shard graph: zero shards");
  std::vector<std::vector<std::uint32_t>> out(shards);
  if (topology.kind() == net::TopologyKind::kFullMesh) {
    // Every shard holds >= 1 agent and every distinct agent pair is an
    // edge, so the shard graph is all-to-all; skip the O(N²) edge walk.
    for (std::size_t s = 0; s < shards; ++s) {
      out[s].resize(shards);
      for (std::size_t d = 0; d < shards; ++d) {
        out[s][d] = static_cast<std::uint32_t>(d);
      }
    }
    return out;
  }
  // Sparse kinds: walk the real edges (O(total degree)).
  std::vector<char> seen(shards * shards, 0);
  const std::size_t n = topology.num_agents();
  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t s = shard_of(static_cast<net::AgentId>(a));
    if (s >= shards) throw std::out_of_range("shard graph: bad shard id");
    seen[s * shards + s] = 1;  // self, always
    topology.for_each_neighbor(static_cast<net::AgentId>(a),
                               [&](net::AgentId b) {
                                 const std::size_t d = shard_of(b);
                                 seen[s * shards + d] = 1;
                               });
  }
  for (std::size_t s = 0; s < shards; ++s) {
    seen[s * shards + s] = 1;  // shards with no agents still self-publish
    for (std::size_t d = 0; d < shards; ++d) {
      if (seen[s * shards + d]) out[s].push_back(static_cast<std::uint32_t>(d));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// RoundPipeline

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One segment's scheduling state. Readiness counters are the whole
/// synchronization story: ready[s][r] counts publishes visible to shard s
/// for round r; the increment that reaches target[s] submits the apply
/// continuation (or, for shard 0, wakes the calling thread that owns it),
/// and the apply chains the shard's next compute. No pool task ever
/// blocks, so the segment completes on a pool of any size.
struct Segment {
  util::ThreadPool& pool;
  const RoundPipeline::Ops& ops;
  const std::vector<std::vector<std::uint32_t>>& out;
  const std::vector<std::uint32_t>& target;
  const std::size_t shards;
  const std::uint64_t first_round;
  const std::size_t rounds;

  std::unique_ptr<std::atomic<std::uint32_t>[]> ready;
  std::unique_ptr<std::atomic<std::uint32_t>[]> applies_left;
  std::unique_ptr<std::atomic<std::uint64_t>[]> publish_end_ns;
  std::atomic<std::uint64_t> stall_ns{0};

  std::atomic<std::size_t> inflight{0};
  std::atomic<bool> failed{false};
  std::mutex done_mutex;  ///< guards `error`; the caller waits on done_cv
  std::condition_variable done_cv;
  std::exception_ptr error;

  // Round retirement ordering + depth/overlap bookkeeping, all under one
  // mutex (touched once per shard-round, not per job).
  std::mutex progress_mutex;
  std::vector<char> round_complete;
  std::size_t next_done = 0;      ///< next round index to retire
  std::size_t top_entered = 0;    ///< 1 + highest round index started
  std::size_t prev_depth = 0;
  std::uint64_t depth_mark_ns = 0;
  std::size_t max_depth = 1;
  double overlap_s = 0.0;

  Segment(util::ThreadPool& p, const RoundPipeline::Ops& o,
          const std::vector<std::vector<std::uint32_t>>& out_neighbors,
          const std::vector<std::uint32_t>& targets, std::uint64_t first,
          std::size_t count)
      : pool(p),
        ops(o),
        out(out_neighbors),
        target(targets),
        shards(out_neighbors.size()),
        first_round(first),
        rounds(count),
        ready(new std::atomic<std::uint32_t>[shards * count]),
        applies_left(new std::atomic<std::uint32_t>[count]),
        publish_end_ns(new std::atomic<std::uint64_t>[shards * count]),
        round_complete(count, 0),
        depth_mark_ns(now_ns()) {
    for (std::size_t i = 0; i < shards * count; ++i) {
      ready[i].store(0, std::memory_order_relaxed);
      publish_end_ns[i].store(0, std::memory_order_relaxed);
    }
    for (std::size_t r = 0; r < count; ++r) {
      applies_left[r].store(static_cast<std::uint32_t>(shards),
                            std::memory_order_relaxed);
    }
  }

  void fail(std::exception_ptr e) {
    std::lock_guard lock(done_mutex);
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_release);
    done_cv.notify_all();
  }

  void wake_caller() {
    std::lock_guard lock(done_mutex);
    done_cv.notify_all();
  }

  /// Run `fn` as a pool task counted in `inflight`: skipped once the
  /// segment failed; the last task to finish wakes the waiting caller.
  template <typename Fn>
  void spawn(Fn&& fn) {
    inflight.fetch_add(1, std::memory_order_relaxed);
    pool.submit_detached([this, f = std::forward<Fn>(fn)]() mutable {
      if (!failed.load(std::memory_order_acquire)) {
        try {
          f();
        } catch (...) {
          fail(std::current_exception());
        }
      }
      if (inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) wake_caller();
    });
  }

  void update_depth_locked() {
    const std::uint64_t now = now_ns();
    if (prev_depth >= 2) {
      overlap_s +=
          static_cast<double>(now - depth_mark_ns) * 1e-9;
    }
    depth_mark_ns = now;
    const std::size_t depth =
        top_entered > next_done ? top_entered - next_done : 0;
    prev_depth = depth;
    if (depth > max_depth) max_depth = depth;
  }

  /// compute + publish for cell (s, ri), then notify the out-neighbors.
  void step(std::size_t s, std::size_t ri) {
    {
      std::lock_guard lock(progress_mutex);
      if (ri + 1 > top_entered) {
        top_entered = ri + 1;
        update_depth_locked();
      }
    }
    const std::uint64_t r = first_round + ri;
    ops.compute(s, r);
    ops.publish(s, r);
    publish_end_ns[s * rounds + ri].store(now_ns(), std::memory_order_relaxed);
    for (const std::uint32_t d : out[s]) notify(d, ri);
  }

  void notify(std::size_t d, std::size_t ri) {
    // seq_cst RMW chain: the publisher's payload writes happen-before the
    // final increment, which happens-before the apply task it submits.
    if (ready[d * rounds + ri].fetch_add(1) + 1 == target[d]) {
      if (d == 0) {
        wake_caller();
      } else {
        spawn([this, d, ri] { apply_cell(d, ri); });
      }
    }
  }

  /// The calling thread's share of the segment: every step and apply of
  /// shard 0, so N shards keep N threads busy on a pool of N - 1 workers
  /// (as a parallel_for caller joins its sweep). Returns once shard 0 is
  /// done or the segment failed.
  void run_caller_shard() {
    try {
      step(0, 0);
      for (std::size_t ri = 0; ri < rounds; ++ri) {
        {
          std::unique_lock lock(done_mutex);
          done_cv.wait(lock, [this, ri] {
            return failed.load(std::memory_order_acquire) ||
                   ready[ri].load() == target[0];
          });
        }
        if (failed.load(std::memory_order_acquire)) return;
        apply_cell(0, ri);
      }
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void apply_cell(std::size_t s, std::size_t ri) {
    const std::uint64_t r = first_round + ri;
    const std::uint64_t start = now_ns();
    const std::uint64_t published =
        publish_end_ns[s * rounds + ri].load(std::memory_order_relaxed);
    if (published != 0 && start > published) {
      stall_ns.fetch_add(start - published, std::memory_order_relaxed);
    }
    ops.apply(s, r);
    if (applies_left[ri].fetch_sub(1) == 1) retire_round(ri);
    // Chain the shard's next round inline — the worker already holds the
    // freshest cache lines for this shard's state.
    if (ri + 1 < rounds && !failed.load(std::memory_order_acquire)) {
      step(s, ri + 1);
    }
  }

  void retire_round(std::size_t ri) {
    std::lock_guard lock(progress_mutex);
    round_complete[ri] = 1;
    while (next_done < rounds && round_complete[next_done]) {
      const std::uint64_t r = first_round + next_done;
      ++next_done;
      update_depth_locked();
      if (ops.round_done) ops.round_done(r);
    }
  }
};

}  // namespace

RoundPipeline::RoundPipeline(
    std::vector<std::vector<std::uint32_t>> out_neighbors)
    : out_(std::move(out_neighbors)) {
  if (out_.empty()) throw std::invalid_argument("RoundPipeline: zero shards");
  target_.assign(out_.size(), 0);
  for (std::size_t s = 0; s < out_.size(); ++s) {
    auto& row = out_[s];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    bool has_self = false;
    for (const std::uint32_t d : row) {
      if (d >= out_.size()) {
        throw std::out_of_range("RoundPipeline: bad neighbor shard");
      }
      if (d == s) has_self = true;
      ++target_[d];
    }
    if (!has_self) {
      throw std::invalid_argument(
          "RoundPipeline: a shard must be its own out-neighbor (it applies "
          "its own publish)");
    }
  }
}

void RoundPipeline::run(util::ThreadPool& pool, std::uint64_t first_round,
                        std::size_t rounds, const Ops& ops) {
  if (rounds == 0) return;
  if (!ops.compute || !ops.publish || !ops.apply) {
    throw std::invalid_argument("RoundPipeline: missing op");
  }
  const std::uint64_t wall_start = now_ns();
  Segment seg(pool, ops, out_, target_, first_round, rounds);
  for (std::size_t s = 1; s < out_.size(); ++s) {
    seg.spawn([&seg, s] { seg.step(s, 0); });
  }
  seg.run_caller_shard();
  {
    std::unique_lock lock(seg.done_mutex);
    seg.done_cv.wait(lock, [&seg] {
      return seg.inflight.load(std::memory_order_acquire) == 0;
    });
  }
  if (seg.error) std::rethrow_exception(seg.error);

  stats_.rounds += rounds;
  stats_.shard_rounds += out_.size() * rounds;
  if (seg.max_depth > stats_.max_rounds_in_flight) {
    stats_.max_rounds_in_flight = seg.max_depth;
  }
  stats_.stall_seconds +=
      static_cast<double>(seg.stall_ns.load(std::memory_order_relaxed)) * 1e-9;
  stats_.overlap_seconds += seg.overlap_s;
  stats_.wall_seconds +=
      static_cast<double>(now_ns() - wall_start) * 1e-9;
}

// ---------------------------------------------------------------------------
// Cells, schedule and the round loop

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

bool pipelined_rounds(const net::MessageBus& bus) noexcept {
  return bus.shard_router() != nullptr && bus.num_agents() >= 2 &&
         pipelinable(bus);
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
  ParamExchange* session = loop.session;
  const bool pipelined =
      session != nullptr && pipelined_rounds(session->bus());
  std::vector<std::vector<std::uint32_t>> graph(cells);
  if (pipelined) {
    // Cells are the exchange shards; readiness follows the broadcast
    // topology collapsed to shard granularity.
    if (session->num_shards() != cells) {
      throw std::logic_error(
          "run_rounds: home shards and exchange shards disagree");
    }
    const net::ShardRouter* router = session->bus().shard_router();
    graph = shard_broadcast_graph(
        session->bus().topology(),
        [router](net::AgentId a) { return router->shard_of(a); }, cells);
  } else {
    // Barrier schedule: cells only wait for themselves; the exchange
    // runs whole at each one-round segment boundary.
    for (std::size_t c = 0; c < cells; ++c) {
      graph[c].push_back(static_cast<std::uint32_t>(c));
    }
  }
  RoundPipeline pipe(std::move(graph));

  obs::MetricsRegistry* reg = loop.metrics;
  obs::Histogram* round_hist = nullptr;
  obs::Series* round_series = nullptr;
  obs::Counter* rounds_counter = nullptr;
  if (reg != nullptr) {
    round_hist = &reg->histogram(loop.prefix + ".round_seconds");
    round_series = &reg->series(loop.prefix + ".round_seconds_series");
    rounds_counter = &reg->counter(loop.prefix + ".rounds");
  }
  // Per-(round, cell) compute seconds of the current segment, folded
  // into `<prefix>.shard.*` as each round retires.
  std::uint64_t seg_first = first_round;
  std::vector<util::ShardTiming> timing;
  auto last_round_end = std::chrono::steady_clock::now();

  RoundPipeline::Ops ops;
  ops.compute = [&](std::size_t c, std::uint64_t r) {
    const util::Stopwatch watch;
    const std::size_t wb =
        begin + static_cast<std::size_t>(r - first_round) * round_minutes;
    loop.compute(c, r, wb, std::min(wb + round_minutes, end));
    timing[r - seg_first].shard_seconds[c] = watch.elapsed_seconds();
  };
  if (pipelined) {
    ops.publish = [session](std::size_t s, std::uint64_t r) {
      session->publish_shard(s, r);
    };
    ops.apply = [&](std::size_t s, std::uint64_t r) {
      session->apply_shard(s, r, loop.commit);
    };
  } else {
    ops.publish = [](std::size_t, std::uint64_t) {};
    ops.apply = [](std::size_t, std::uint64_t) {};
  }
  ops.round_done = [&](std::uint64_t r) {
    if (loop.round_done) loop.round_done(r);
    if (reg == nullptr) return;
    if (plan.sharded) {
      obs::record_shard_timing(*reg, loop.prefix + ".shard",
                               timing[r - seg_first]);
    }
    rounds_counter->add(1);
    // Round time = wall time between consecutive round retirements.
    const auto now = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(now - last_round_end).count();
    round_hist->observe(seconds);
    round_series->append(seconds);
    last_round_end = now;
  };

  // Segments: training quiesces (the one full barrier) only at segment
  // boundaries. The barrier schedule's segments are one round long and
  // end in that round's whole exchange; the pipelined schedule's are
  // loop.segment_rounds long (0 = the whole window).
  std::size_t seg_len = 1;
  if (pipelined) {
    seg_len = loop.segment_rounds > 0 ? loop.segment_rounds : rounds;
  }
  for (std::size_t done = 0; done < rounds;) {
    const std::size_t seg = std::min(seg_len, rounds - done);
    seg_first = first_round + done;
    if (loop.segment_begin) loop.segment_begin(seg_first, seg);
    timing.assign(seg, util::ShardTiming{std::vector<double>(cells)});
    pipe.run(util::ThreadPool::global(), seg_first, seg, ops);
    done += seg;
    if (session != nullptr) {
      const ExchangeStats stats = pipelined
                                      ? session->record_metrics(seg)
                                      : session->round(seg_first, loop.commit);
      if (loop.fold) loop.fold(stats, seg);
    }
    if (loop.segment_end) loop.segment_end(first_round + done);
  }
  if (pipelined && reg != nullptr) {
    record_pipeline_stats(*reg, loop.prefix + ".pipeline", pipe.stats());
  }
  return rounds;
}

}  // namespace pfdrl::fl
