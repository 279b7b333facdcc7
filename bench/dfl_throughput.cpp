// DFL train-round throughput — the recorded perf baseline for the
// vectorizable-kernel work.
//
// The DFL forecaster retrain is the computation overhead the paper
// benchmarks in fig. 13 and the dominant cost of a PFDRL run (the act
// path is ~25 µs/decision; one LSTM round over a broadcast period costs
// milliseconds per device). This bench replays the per-round retrain
// loop exactly as fl::DflTrainer issues it — one train() call per
// simulated broadcast round over that round's newly recorded minutes —
// for the LSTM and GRU forecasters, and reports training windows per
// second (windows = sequence samples, weighted by epochs, counted from
// the same data::make_sequences the trainer uses).
//
// Determinism guard: each method trains a second, identically seeded
// forecaster and the final parameter vectors must match bitwise — the
// strip-mined kernels are fixed-order reductions, so run-to-run drift
// here is a bug, not noise.
//
// Group-size column (docs/fused_training.md): for each home count N in
// --fuse-homes, N virtual homes train over the same recorded trace —
// once as N groups of one (each forecaster's own train()), once as one
// forecast::FusedForecastTrainer group of N — and the column reports
// both rates plus the speedup. The per-home cost is identical across
// homes by construction, which isolates the grouping effect; the two
// runs' final parameters must match bitwise per home (the grouping
// invariance contract, re-checked end-to-end at every sweep point).
//
// Pool-worker sweep (docs/scaling.md#one-round-schedule): the recurrent
// kernels and the fused trainer fan out over util::ThreadPool, whose
// size is fixed once per process (PFDRL_POOL_WORKERS). The sweep
// therefore re-executes this binary once per requested worker count in
// a child mode that emits one JSON line — lstm/gru/fused rates plus the
// final parameter hashes — and the parent asserts every hash is
// identical across worker counts: the fixed-order-reduction determinism
// contract, measured instead of assumed.
//
// Writes a JSON summary with a host/build stamp (default BENCH_dfl.json
// in the CWD; see docs/performance.md). Flags: --days N, --rounds R, --round-minutes
// M, --fuse-homes LIST, --pool-workers CSV, --out PATH (and --emit PATH,
// the internal child mode).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/fused.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace pfdrl;

struct MethodResult {
  std::string name;
  std::size_t windows = 0;  // epoch-weighted training windows processed
  double seconds = 0.0;
  bool deterministic = false;
  std::uint64_t hash = 0;  // fnv1a over the final parameter vector

  [[nodiscard]] double windows_per_sec() const noexcept {
    return seconds > 0.0 ? static_cast<double>(windows) / seconds : 0.0;
  }
};

MethodResult run_method(forecast::Method method, const data::DeviceTrace& trace,
                        std::size_t rounds, std::size_t round_minutes,
                        std::size_t total_minutes) {
  MethodResult result;
  result.name = forecast::method_name(method);

  data::WindowConfig window;  // production defaults (16-step, calendar)
  auto model = forecast::make_forecaster(method, window, 7);
  auto twin = forecast::make_forecaster(method, window, 7);
  const forecast::TrainConfig resolved =
      forecast::resolve_train_config(method, forecast::TrainConfig{});

  // Warm-up round: sizes the gather buffers and gradient arenas so the
  // timed rounds measure the steady state the DFL loop runs in.
  {
    util::Rng rng = util::Rng(1).fork(9999);
    model->train(trace, 0, std::min(round_minutes, total_minutes),
                 forecast::TrainConfig{}, rng);
  }

  util::Stopwatch watch;
  double seconds = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t begin = (r * round_minutes) % total_minutes;
    const std::size_t end = std::min(begin + round_minutes, total_minutes);
    // Same per-round RNG forking scheme as fl::DflTrainer, so the twin
    // run below sees identical shuffles.
    util::Rng rng = util::Rng(1).fork(r * 10000);
    watch.reset();
    model->train(trace, begin, end, forecast::TrainConfig{}, rng);
    seconds += watch.elapsed_seconds();

    // Window accounting mirrors the trainer's data path: count what
    // make_sequences actually yields for this round at the resolved
    // training stride, once per epoch.
    data::WindowConfig wc = window;
    wc.stride = resolved.stride;
    const auto set = data::make_sequences(trace, wc, begin, end);
    result.windows += set.size() * resolved.epochs;
  }
  result.seconds = seconds;

  // Bitwise run-to-run determinism: replay the same rounds into the twin.
  {
    util::Rng warm = util::Rng(1).fork(9999);
    twin->train(trace, 0, std::min(round_minutes, total_minutes),
                forecast::TrainConfig{}, warm);
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t begin = (r * round_minutes) % total_minutes;
    const std::size_t end = std::min(begin + round_minutes, total_minutes);
    util::Rng rng = util::Rng(1).fork(r * 10000);
    twin->train(trace, begin, end, forecast::TrainConfig{}, rng);
  }
  const auto a = model->parameters();
  const auto b = twin->parameters();
  result.deterministic = a.size() == b.size();
  for (std::size_t i = 0; result.deterministic && i < a.size(); ++i) {
    if (a[i] != b[i]) result.deterministic = false;
  }
  result.hash = bench::fnv1a_params(a);
  return result;
}

struct FusedPoint {
  std::string method;
  std::size_t homes = 0;
  std::size_t windows = 0;  // epoch-weighted, per run (runs are equal)
  double groups_of_one_seconds = 0.0;
  double fused_seconds = 0.0;
  bool bitwise_match = false;

  [[nodiscard]] double groups_of_one_windows_per_sec() const noexcept {
    return groups_of_one_seconds > 0.0
               ? static_cast<double>(windows) / groups_of_one_seconds
               : 0.0;
  }
  [[nodiscard]] double fused_windows_per_sec() const noexcept {
    return fused_seconds > 0.0 ? static_cast<double>(windows) / fused_seconds
                               : 0.0;
  }
  [[nodiscard]] double speedup() const noexcept {
    return fused_seconds > 0.0 ? groups_of_one_seconds / fused_seconds : 0.0;
  }
};

/// One group-size sweep point: `homes` forecasters (distinct seeds, same
/// architecture) retrain over the same rounds, as `homes` groups of one
/// vs one group of `homes`. Short epochs keep the big points quick; both
/// runs and the window accounting use the same resolved config.
FusedPoint run_fused_point(forecast::Method method,
                           const data::DeviceTrace& trace, std::size_t homes,
                           std::size_t rounds, std::size_t round_minutes,
                           std::size_t total_minutes,
                           std::uint64_t* params_hash = nullptr) {
  FusedPoint point;
  point.method = forecast::method_name(method);
  point.homes = homes;

  forecast::TrainConfig sweep;
  sweep.epochs = 2;  // explicit values win over the per-method defaults
  const forecast::TrainConfig resolved =
      forecast::resolve_train_config(method, sweep);

  data::WindowConfig window;  // production defaults (16-step, calendar)
  std::vector<std::unique_ptr<forecast::Forecaster>> alone;
  std::vector<std::unique_ptr<forecast::Forecaster>> fused;
  for (std::size_t h = 0; h < homes; ++h) {
    alone.push_back(forecast::make_forecaster(method, window, 7 + h));
    fused.push_back(forecast::make_forecaster(method, window, 7 + h));
  }

  // Per-job RNG forks mirror fl::DflTrainer's (round, job) scheme; both
  // runs consume identical streams, so the final parameters must match
  // bitwise per home.
  const auto job_rng = [](std::size_t r, std::size_t h) {
    return util::Rng(1).fork(r * 10000 + h * 100);
  };

  forecast::FusedForecastTrainer trainer;
  const auto fused_round = [&](std::size_t r, std::size_t begin,
                               std::size_t end) {
    std::vector<util::Rng> rngs;
    rngs.reserve(homes);
    std::vector<forecast::FusedTrainJob> jobs;
    jobs.reserve(homes);
    for (std::size_t h = 0; h < homes; ++h) {
      rngs.push_back(job_rng(r, h));
      jobs.push_back({fused[h].get(), &trace, &rngs.back(), 0.0});
    }
    if (!trainer.train(jobs, begin, end, sweep)) {
      std::fprintf(stderr, "FATAL: fused trainer refused a uniform group\n");
      std::exit(1);
    }
  };

  // Warm-up round on both runs: sizes the group's slabs and gradient
  // arenas so the timed rounds measure the steady state (and keeps the
  // two runs' total training identical for the bitwise check).
  const std::size_t warm_end = std::min(round_minutes, total_minutes);
  for (std::size_t h = 0; h < homes; ++h) {
    util::Rng rng = util::Rng(1).fork(990000 + h);
    alone[h]->train(trace, 0, warm_end, sweep, rng);
  }
  {
    std::vector<util::Rng> rngs;
    rngs.reserve(homes);
    std::vector<forecast::FusedTrainJob> jobs;
    jobs.reserve(homes);
    for (std::size_t h = 0; h < homes; ++h) {
      rngs.push_back(util::Rng(1).fork(990000 + h));
      jobs.push_back({fused[h].get(), &trace, &rngs.back(), 0.0});
    }
    if (!trainer.train(jobs, 0, warm_end, sweep)) {
      std::fprintf(stderr, "FATAL: fused trainer refused a uniform group\n");
      std::exit(1);
    }
  }

  util::Stopwatch watch;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t begin = (r * round_minutes) % total_minutes;
    const std::size_t end = std::min(begin + round_minutes, total_minutes);

    watch.reset();
    for (std::size_t h = 0; h < homes; ++h) {
      util::Rng rng = job_rng(r, h);
      alone[h]->train(trace, begin, end, sweep, rng);
    }
    point.groups_of_one_seconds += watch.elapsed_seconds();

    watch.reset();
    fused_round(r, begin, end);
    point.fused_seconds += watch.elapsed_seconds();

    data::WindowConfig wc = window;
    wc.stride = resolved.stride;
    const auto set = data::make_sequences(trace, wc, begin, end);
    point.windows += set.size() * resolved.epochs * homes;
  }

  point.bitwise_match = true;
  for (std::size_t h = 0; h < homes && point.bitwise_match; ++h) {
    const auto a = alone[h]->parameters();
    const auto b = fused[h]->parameters();
    if (a.size() != b.size()) point.bitwise_match = false;
    for (std::size_t i = 0; point.bitwise_match && i < a.size(); ++i) {
      if (a[i] != b[i]) point.bitwise_match = false;
    }
  }
  if (params_hash != nullptr) {
    // One fixed-order hash across every fused home — the fingerprint the
    // pool-worker sweep compares across worker counts.
    std::vector<double> all;
    for (std::size_t h = 0; h < homes; ++h) {
      const auto p = fused[h]->parameters();
      all.insert(all.end(), p.begin(), p.end());
    }
    *params_hash = bench::fnv1a_params(all);
  }
  return point;
}

std::vector<std::size_t> parse_csv_sizes(const char* s) {
  std::vector<std::size_t> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(std::stoul(cur));
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

/// One pool-worker sweep sample, as parsed back from a child's line.
struct PoolPoint {
  std::size_t pool_workers = 0;
  double lstm_rate = 0.0;
  double gru_rate = 0.0;
  double fused_rate = 0.0;
  std::size_t fused_homes = 0;
  std::string lstm_hash;
  std::string gru_hash;
  std::string fused_hash;
  bool deterministic = false;
};

bool parse_pool_line(const std::string& line, PoolPoint* out) {
  const auto find_num = [&](const char* key, double* value) {
    const char* at = std::strstr(line.c_str(), key);
    return at != nullptr &&
           std::sscanf(at + std::strlen(key), "%lf", value) == 1;
  };
  const auto find_hash = [&](const char* key, std::string* value) {
    const char* at = std::strstr(line.c_str(), key);
    if (at == nullptr) return false;
    at += std::strlen(key);
    value->assign(at, std::strcspn(at, "\""));
    return true;
  };
  double workers = 0.0;
  double homes = 0.0;
  if (!find_num("\"pool_workers\": ", &workers) ||
      !find_num("\"fused_homes\": ", &homes) ||
      !find_num("\"lstm_windows_per_sec\": ", &out->lstm_rate) ||
      !find_num("\"gru_windows_per_sec\": ", &out->gru_rate) ||
      !find_num("\"fused_windows_per_sec\": ", &out->fused_rate) ||
      !find_hash("\"lstm_hash\": \"", &out->lstm_hash) ||
      !find_hash("\"gru_hash\": \"", &out->gru_hash) ||
      !find_hash("\"fused_hash\": \"", &out->fused_hash)) {
    return false;
  }
  out->pool_workers = static_cast<std::size_t>(workers);
  out->fused_homes = static_cast<std::size_t>(homes);
  out->deterministic =
      std::strstr(line.c_str(), "\"deterministic\": true") != nullptr;
  return true;
}

/// Child mode: rerun the lstm/gru rounds and one fused group at this
/// process's pool size and append the sample line to `emit_path`.
int run_pool_child(const data::DeviceTrace& trace, std::size_t rounds,
                   std::size_t round_minutes, std::size_t total_minutes,
                   std::size_t fused_homes, const std::string& emit_path) {
  const MethodResult lstm = run_method(forecast::Method::kLstm, trace, rounds,
                                       round_minutes, total_minutes);
  const MethodResult gru = run_method(forecast::Method::kGru, trace, rounds,
                                      round_minutes, total_minutes);
  std::uint64_t fused_hash = 0;
  FusedPoint fused;
  if (fused_homes >= 2) {
    fused = run_fused_point(forecast::Method::kLstm, trace, fused_homes,
                            rounds, round_minutes, total_minutes, &fused_hash);
  } else {
    fused.bitwise_match = true;
  }
  const bool ok =
      lstm.deterministic && gru.deterministic && fused.bitwise_match;
  std::FILE* f = std::fopen(emit_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", emit_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "    {\"pool_workers\": %zu, "
               "\"lstm_windows_per_sec\": %.1f, "
               "\"lstm_hash\": \"%016" PRIx64 "\", "
               "\"gru_windows_per_sec\": %.1f, "
               "\"gru_hash\": \"%016" PRIx64 "\", "
               "\"fused_homes\": %zu, "
               "\"fused_windows_per_sec\": %.1f, "
               "\"fused_hash\": \"%016" PRIx64 "\", "
               "\"deterministic\": %s},\n",
               util::ThreadPool::global().size(), lstm.windows_per_sec(),
               lstm.hash, gru.windows_per_sec(), gru.hash, fused.homes,
               fused.fused_windows_per_sec(), fused_hash,
               ok ? "true" : "false");
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "FATAL: child training runs diverged\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t days = 2;
  std::size_t rounds = 6;
  std::size_t round_minutes = 360;  // one 6-hour broadcast period
  std::vector<std::size_t> fuse_homes = {20, 100};  // quick default sweep
  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  std::string out_path = "BENCH_dfl.json";
  std::string emit_path;  // non-empty: child mode
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--round-minutes") == 0 && i + 1 < argc) {
      round_minutes = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--fuse-homes") == 0 && i + 1 < argc) {
      fuse_homes.clear();
      for (const char* tok = std::strtok(argv[++i], ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        fuse_homes.push_back(static_cast<std::size_t>(std::atol(tok)));
      }
    } else if (std::strcmp(argv[i], "--pool-workers") == 0 && i + 1 < argc) {
      worker_counts = parse_csv_sizes(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--emit") == 0 && i + 1 < argc) {
      emit_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--days N] [--rounds R] [--round-minutes M] "
                   "[--fuse-homes N,N,...] [--pool-workers CSV] [--out P]\n",
                   argv[0]);
      return 2;
    }
  }
  // Smallest requested fused group doubles as the pool sweep's fused
  // sample (the path that actually fans out over the pool).
  std::size_t sweep_fused_homes = 0;
  for (const std::size_t h : fuse_homes) {
    if (h >= 2 && (sweep_fused_homes == 0 || h < sweep_fused_homes)) {
      sweep_fused_homes = h;
    }
  }

  if (emit_path.empty()) {
    bench::print_figure_header(
        "DFL train-round throughput (perf baseline)",
        "per-round LSTM/GRU retraining is the run's computation overhead "
        "(fig. 13)");
  }

  const sim::Scenario scenario = bench::bench_scenario(days, 1);
  const std::size_t total_minutes = scenario.minutes();
  const data::DeviceTrace* trace = &scenario.traces[0].devices[0];
  for (const auto& d : scenario.traces[0].devices) {
    if (!d.spec.protected_device) {
      trace = &d;
      break;
    }
  }

  if (!emit_path.empty()) {
    return run_pool_child(*trace, rounds, round_minutes, total_minutes,
                          sweep_fused_homes, emit_path);
  }

  const MethodResult lstm = run_method(forecast::Method::kLstm, *trace, rounds,
                                       round_minutes, total_minutes);
  const MethodResult gru = run_method(forecast::Method::kGru, *trace, rounds,
                                      round_minutes, total_minutes);

  util::TextTable table(
      {"method", "windows", "seconds", "windows/sec", "deterministic"});
  for (const auto& r : {lstm, gru}) {
    table.add_row({r.name, std::to_string(r.windows),
                   std::to_string(r.seconds),
                   std::to_string(r.windows_per_sec()),
                   r.deterministic ? "yes" : "NO"});
  }
  table.print();

  if (!lstm.deterministic || !gru.deterministic) {
    std::fprintf(stderr,
                 "FATAL: repeated identically seeded training runs diverged\n");
    return 1;
  }

  // Group-size sweep: LSTM (the paper's production method) and GRU (its
  // specialized register tiles land in the same fused engines; the
  // column keeps the GRU path benched, not just gate-tested).
  std::vector<FusedPoint> fused_points;
  for (const forecast::Method m :
       {forecast::Method::kLstm, forecast::Method::kGru}) {
    for (const std::size_t homes : fuse_homes) {
      if (homes < 2) continue;
      fused_points.push_back(run_fused_point(m, *trace, homes, rounds,
                                             round_minutes, total_minutes));
    }
  }
  bool fused_match = true;
  if (!fused_points.empty()) {
    std::printf("\nN groups of one vs one group of N, per round:\n");
    util::TextTable ftable({"method", "homes", "windows", "groups-of-1 w/s",
                            "group-of-N w/s", "speedup", "bitwise"});
    for (const auto& p : fused_points) {
      ftable.add_row({p.method, std::to_string(p.homes),
                      std::to_string(p.windows),
                      std::to_string(p.groups_of_one_windows_per_sec()),
                      std::to_string(p.fused_windows_per_sec()),
                      std::to_string(p.speedup()),
                      p.bitwise_match ? "yes" : "NO"});
      fused_match = fused_match && p.bitwise_match;
    }
    ftable.print();
  }
  if (!fused_match) {
    std::fprintf(stderr,
                 "FATAL: a group of N diverged from N groups of one\n");
    return 1;
  }

  // Pool-worker sweep: one child process per worker count —
  // PFDRL_POOL_WORKERS is read once at the pool's construction, so
  // honoring it everywhere (kernels and fused trainer included) needs a
  // fresh process per count. Every parameter hash must be identical
  // across counts: the fixed-order reductions make worker count a pure
  // scheduling choice.
  std::vector<std::string> pool_lines;
  std::vector<PoolPoint> pool_points;
  bool pool_hash_consistent = true;
  for (const std::size_t workers : worker_counts) {
    const std::string child_out =
        out_path + ".w" + std::to_string(workers) + ".tmp";
    const std::string cmd =
        "PFDRL_POOL_WORKERS=" + std::to_string(workers) + " '" + argv[0] +
        "' --emit '" + child_out + "' --days " + std::to_string(days) +
        " --rounds " + std::to_string(rounds) + " --round-minutes " +
        std::to_string(round_minutes) + " --fuse-homes " +
        std::to_string(sweep_fused_homes);
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "dfl_throughput: child at %zu workers failed (%d)\n",
                   workers, rc);
      return 1;
    }
    std::FILE* cf = std::fopen(child_out.c_str(), "r");
    if (cf == nullptr) {
      std::fprintf(stderr, "dfl_throughput: child wrote no %s\n",
                   child_out.c_str());
      return 1;
    }
    char line[1024];
    while (std::fgets(line, sizeof(line), cf) != nullptr) {
      PoolPoint p;
      if (!parse_pool_line(line, &p)) {
        std::fprintf(stderr, "dfl_throughput: unparsable child line: %s", line);
        std::fclose(cf);
        return 1;
      }
      pool_lines.emplace_back(line);
      pool_points.push_back(std::move(p));
    }
    std::fclose(cf);
    std::remove(child_out.c_str());
  }
  for (const PoolPoint& p : pool_points) {
    const PoolPoint& ref = pool_points.front();
    if (p.lstm_hash != ref.lstm_hash || p.gru_hash != ref.gru_hash ||
        p.fused_hash != ref.fused_hash || !p.deterministic) {
      std::fprintf(stderr,
                   "FATAL: param_hash varies with pool workers (%zu vs %zu)\n",
                   p.pool_workers, ref.pool_workers);
      pool_hash_consistent = false;
    }
  }
  if (!pool_points.empty()) {
    std::printf("\npool-worker sweep (hashes must be identical per column):\n");
    util::TextTable ptable({"workers", "lstm w/s", "gru w/s", "fused w/s",
                            "fused homes", "hash-stable"});
    for (const PoolPoint& p : pool_points) {
      const PoolPoint& ref = pool_points.front();
      const bool stable = p.lstm_hash == ref.lstm_hash &&
                          p.gru_hash == ref.gru_hash &&
                          p.fused_hash == ref.fused_hash;
      ptable.add_row({std::to_string(p.pool_workers),
                      util::fmt_double(p.lstm_rate, 0),
                      util::fmt_double(p.gru_rate, 0),
                      util::fmt_double(p.fused_rate, 0),
                      std::to_string(p.fused_homes), stable ? "yes" : "NO"});
    }
    ptable.print();
  }
  if (!pool_hash_consistent) {
    std::fprintf(stderr, "FATAL: training determinism contract violated\n");
    return 1;
  }

  // Stamp before writing: rewriting a tracked baseline would otherwise
  // mark the tree dirty.
  const std::string host = bench::host_stamp_json();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"dfl_throughput\",\n"
               "  \"host\": %s,\n"
               "  \"days\": %zu,\n"
               "  \"rounds\": %zu,\n"
               "  \"round_minutes\": %zu,\n"
               "  \"lstm_windows\": %zu,\n"
               "  \"lstm_seconds\": %.6f,\n"
               "  \"lstm_windows_per_sec\": %.1f,\n"
               "  \"gru_windows\": %zu,\n"
               "  \"gru_seconds\": %.6f,\n"
               "  \"gru_windows_per_sec\": %.1f,\n"
               "  \"deterministic\": %s,\n"
               "  \"fused_bitwise_match\": %s,\n"
               "  \"pool_hash_consistent\": %s,\n"
               "  \"fused_points\": [",
               host.c_str(), days, rounds, round_minutes, lstm.windows, lstm.seconds,
               lstm.windows_per_sec(), gru.windows, gru.seconds,
               gru.windows_per_sec(),
               lstm.deterministic && gru.deterministic ? "true" : "false",
               fused_match ? "true" : "false",
               pool_hash_consistent ? "true" : "false");
  for (std::size_t i = 0; i < fused_points.size(); ++i) {
    const auto& p = fused_points[i];
    std::fprintf(f,
                 "%s\n    {\"method\": \"%s\", \"homes\": %zu,"
                 " \"windows\": %zu,"
                 " \"groups_of_one_windows_per_sec\": %.1f,"
                 " \"fused_windows_per_sec\": %.1f,"
                 " \"speedup\": %.2f, \"bitwise_match\": %s}",
                 i == 0 ? "" : ",", p.method.c_str(), p.homes, p.windows,
                 p.groups_of_one_windows_per_sec(), p.fused_windows_per_sec(),
                 p.speedup(), p.bitwise_match ? "true" : "false");
  }
  std::fprintf(f, "%s],\n  \"pool_sweep\": [\n", fused_points.empty() ? "" : "\n  ");
  for (std::size_t i = 0; i < pool_lines.size(); ++i) {
    std::string line = pool_lines[i];
    if (i + 1 == pool_lines.size()) {
      // Strip the trailing comma the child always emits.
      const std::size_t tail = line.rfind("},");
      if (tail != std::string::npos) line.replace(tail, 2, "}");
    }
    std::fputs(line.c_str(), f);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nbaseline written to %s\n", out_path.c_str());

  bench::dump_metrics("dfl_throughput");
  return 0;
}
