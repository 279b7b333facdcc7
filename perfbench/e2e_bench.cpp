// End-to-end PFDRL benchmark harness: runs the real core::EmsPipeline on
// one named workload and writes one JSON record per repetition.
//
// Only public calls are driven — sim::Scenario::generate, the EmsPipeline
// constructor, train_forecasters, train_ems, forecast_accuracy, evaluate,
// sim::SnapshotManager::save_now and load_snapshot/restore_run — and each
// call is timed as a span (wall clock plus process CPU from getrusage).
// Layer counters come from what the program already exports
// (sync_runtime_metrics() into a per-repetition MetricsRegistry, the
// global pool's ThreadPoolStats and the nn telemetry).
//
//   e2e_bench --workload NAME --seed N --seconds S --pool-workers W
//             --out FILE [--tmp DIR] [--scenarios K] [--reps N] [--homes N]
//
// A run covers K scenarios (neighbourhoods) derived from --seed. It first
// makes kSetupPasses set-up-only passes (generate + construct) over all K,
// then runs the repetitions.
// Repetition r runs scenario r mod K; the first K + 1 always run (the
// extra one repeats scenario 0, so its param_hash can be compared), then
// more follow while the next one would still end within --seconds.
// --reps N runs exactly N repetitions instead. perfbench/run.py turns the
// records into the benchmark's metrics; see perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "sim/snapshot.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILE_FLAGS
#define PERFBENCH_COMPILE_FLAGS ""
#endif
#ifndef PERFBENCH_X86_64_V3
#define PERFBENCH_X86_64_V3 0
#endif
#ifndef PERFBENCH_LIBMVEC
#define PERFBENCH_LIBMVEC 0
#endif

namespace {

using namespace pfdrl;

constexpr std::size_t kShards = 4;
constexpr std::size_t kForecastDays = 2;
/// Every home has this many devices, so the work per scenario does not
/// depend on the seed.
constexpr std::uint32_t kDevicesPerHome = 5;
/// Set-up-only passes over the K scenarios before the repetitions;
/// setup_s is the median of the passes' mean set-up time.
constexpr std::size_t kSetupPasses = 5;

enum class Preset { kPaper, kFast, kBench };

struct Workload {
  const char* name;
  Preset preset;
  /// Scenarios (neighbourhoods) per run, each of `homes` homes.
  std::size_t scenarios;
  std::size_t homes;
  std::size_t days;
  double beta_hours;
  double gamma_hours;
  bool wire_codec = false;
  const char* fault_plan = "";
  double quorum = 0.0;
  double deadline_s = 0.0;
  /// Crash window "AGENT:FROM:UNTIL" in EMS rounds; empty for none.
  const char* crash = "";
  /// save_now() every this many EMS rounds, then restore into a fresh
  /// pipeline after the last save; 0 = no snapshots.
  std::uint64_t save_every_rounds = 0;
};

// Sizes: see perfbench/README.md ("Workloads") for why each exists.
const Workload kWorkloads[] = {
    {"paper_lstm", Preset::kPaper, 4, 4, 4, 12.0, 12.0},
    {"mesh_exchange", Preset::kFast, 10, 32, 4, 1.0, 1.0, true},
    {"faults_snapshots", Preset::kBench, 4, 8, 5, 4.0, 1.0, false,
     "drop=0.1,delay=0.01,jitter=0.005,dup=0.02,reorder=1", 0.6, 0.5,
     "1:20:30", 24},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "e2e_bench: %s\n", msg.c_str());
  std::exit(2);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident memory since the last reset_peak_rss() (VmHWM).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "N kB"
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Resets the VmHWM high-water mark to the current resident size.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Wall + process-CPU seconds of one public call, summed over the calls
/// that share a name.
struct Span {
  std::string name;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t calls = 0;
};

class Spans {
 public:
  template <typename Fn>
  decltype(auto) time(const std::string& name, Fn&& fn) {
    const double w0 = now_s();
    const double c0 = process_cpu_s();
    struct Record {
      Spans* self;
      const std::string& name;
      double w0, c0;
      ~Record() { self->add(name, now_s() - w0, process_cpu_s() - c0); }
    } record{this, name, w0, c0};
    return fn();
  }
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  void add(const std::string& name, double wall, double cpu) {
    for (auto& s : spans_) {
      if (s.name == name) {
        s.wall_s += wall;
        s.cpu_s += cpu;
        ++s.calls;
        return;
      }
    }
    spans_.push_back({name, wall, cpu, 1});
  }
  std::vector<Span> spans_;
};

/// Streaming FNV-1a over raw parameter bytes — the same fingerprint as
/// bench::fnv1a_params, folded over many buffers in a fixed order.
class ParamHash {
 public:
  void add(std::span<const double> params) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
    for (std::size_t i = 0; i < params.size() * sizeof(double); ++i) {
      h_ = (h_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Every DQN agent's online parameters, then every forecaster's, in
/// home/device order.
std::uint64_t param_hash(const core::EmsPipeline& p) {
  ParamHash h;
  for (std::size_t home = 0; home < p.num_homes(); ++home) {
    for (std::size_t d = 0; d < p.num_devices(home); ++d) {
      if (const rl::DqnAgent* a = p.agent_ptr(home, d)) {
        h.add(a->network().parameters());
      }
    }
  }
  if (const fl::DflTrainer* dfl = p.dfl_trainer()) {
    for (std::size_t home = 0; home < p.num_homes(); ++home) {
      for (std::size_t d = 0; d < p.num_devices(home); ++d) {
        h.add(dfl->forecaster(home, d).parameters());
      }
    }
  }
  return h.value();
}

core::PipelineConfig make_config(const Workload& w, std::uint64_t seed) {
  core::PipelineConfig cfg;
  switch (w.preset) {
    case Preset::kPaper:
      cfg = sim::paper_pipeline(core::EmsMethod::kPfdrl, seed);
      break;
    case Preset::kFast:
      cfg = sim::fast_pipeline(core::EmsMethod::kPfdrl, seed);
      break;
    case Preset::kBench:
      cfg = sim::bench_pipeline(core::EmsMethod::kPfdrl, seed);
      break;
  }
  cfg.beta_hours = w.beta_hours;
  cfg.gamma_hours = w.gamma_hours;
  cfg.shards = kShards;
  cfg.wire_codec = w.wire_codec;
  if (*w.fault_plan != '\0') cfg.fault = net::parse_fault_plan(w.fault_plan);
  if (w.quorum > 0.0) cfg.robustness.quorum_fraction = w.quorum;
  if (w.deadline_s > 0.0) cfg.robustness.round_deadline_s = w.deadline_s;
  if (*w.crash != '\0') {
    cfg.robustness.failures.crashes.push_back(net::parse_crash(w.crash));
  }
  return cfg;
}

// --- Minimal JSON writer ----------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct RepResult {
  std::string json;
  double seconds = 0.0;
};

/// Seed of scenario k of a run (SplitMix64 of the run seed and k).
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::size_t scenarios = 0;  // 0 = the workload's
  double seconds = 10.0;
  std::size_t reps = 0;  // 0 = fill --seconds
  std::size_t homes = 0;
  std::string out;
  std::string tmp = ".";
};

sim::ScenarioConfig scenario_config(const Options& opt, std::uint64_t seed) {
  sim::ScenarioConfig sc;
  sc.neighborhood.num_households =
      static_cast<std::uint32_t>(opt.homes ? opt.homes : opt.workload->homes);
  sc.neighborhood.min_devices = kDevicesPerHome;
  sc.neighborhood.max_devices = kDevicesPerHome;
  sc.neighborhood.seed = seed;
  sc.trace.days = opt.workload->days;
  sc.trace.seed = seed;
  return sc;
}

/// Mean wall seconds of one set-up (data.generate + core.construct) over
/// a pass through all K scenarios, everything discarded after each. Freed
/// heap goes back to the OS before each set-up, so every one faults its
/// memory in as a fresh process would, instead of some reusing the
/// previous set-up's pages.
double setup_pass(const Options& opt) {
  double total = 0.0;
  for (std::size_t k = 0; k < opt.scenarios; ++k) {
    const std::uint64_t seed = scenario_seed(opt.seed, k);
    malloc_trim(0);
    const double t0 = now_s();
    const sim::Scenario scenario =
        sim::Scenario::generate(scenario_config(opt, seed));
    obs::MetricsRegistry reg;
    core::PipelineConfig cfg = make_config(*opt.workload, seed);
    cfg.metrics = &reg;
    const core::EmsPipeline pipeline(scenario.traces, cfg);
    total += now_s() - t0;
  }
  return total / static_cast<double>(opt.scenarios);
}

/// Contributions one exchange round accepts on clean full-mesh links:
/// each item (a home's device for which `has_item` holds) gets one from
/// every other home that has an item of the same device type. The
/// exchange counts a sender once per item, so a home with two devices of
/// one type still contributes once.
template <typename HasItem>
std::uint64_t clean_round_contributions(
    const std::vector<data::HouseholdTrace>& traces, HasItem has_item) {
  struct Group {
    std::uint64_t items = 0;
    std::set<std::size_t> homes;
  };
  std::map<data::DeviceType, Group> groups;
  for (std::size_t h = 0; h < traces.size(); ++h) {
    for (std::size_t d = 0; d < traces[h].devices.size(); ++d) {
      if (has_item(h, d)) {
        Group& g = groups[traces[h].devices[d].spec.type];
        ++g.items;
        g.homes.insert(h);
      }
    }
  }
  std::uint64_t total = 0;
  for (const auto& [type, g] : groups) total += g.items * (g.homes.size() - 1);
  return total;
}

RepResult run_rep(const Options& opt, std::size_t rep) {
  const Workload& w = *opt.workload;
  const std::size_t k = rep % opt.scenarios;
  const std::uint64_t seed = scenario_seed(opt.seed, k);
  const sim::ScenarioConfig sc = scenario_config(opt, seed);
  const std::size_t homes = sc.neighborhood.num_households;
  const std::size_t days = sc.trace.days;
  const std::size_t day = data::kMinutesPerDay;
  const std::size_t ems_begin = kForecastDays * day;
  const std::size_t eval_begin = (days - 1) * day;
  const std::size_t total = days * day;

  // Freed heap goes back to the OS and the high-water mark restarts, so
  // each repetition's peak RSS is its own.
  malloc_trim(0);
  reset_peak_rss();

  util::ThreadPool& pool = util::ThreadPool::global();
  const util::ThreadPoolStats pool0 = pool.stats();
  obs::MetricsRegistry nn0;
  obs::record_nn_workspace_stats(nn0);
  obs::record_nn_kernel_stats(nn0);
  obs::record_nn_fused_stats(nn0);

  obs::MetricsRegistry reg;
  Spans spans;
  const double rep_w0 = now_s();

  const sim::Scenario scenario =
      spans.time("data.generate", [&] { return sim::Scenario::generate(sc); });

  core::PipelineConfig cfg = make_config(w, seed);
  cfg.metrics = &reg;
  auto pipeline = spans.time("core.construct", [&] {
    return std::make_unique<core::EmsPipeline>(scenario.traces, cfg);
  });
  const double setup_s = now_s() - rep_w0;
  const double run_w0 = now_s();
  const double run_c0 = process_cpu_s();

  spans.time("forecast.train",
             [&] { pipeline->train_forecasters(0, ems_begin); });

  std::uint64_t saves = 0, home_restarts = 0, snapshot_bytes = 0;
  std::optional<std::uint64_t> saved_hash, restored_hash;
  if (w.save_every_rounds > 0) {
    const std::filesystem::path snap_path =
        std::filesystem::path(opt.tmp) /
        ("e2e_" + std::to_string(rep) + ".pfrc");
    sim::SnapshotManager::Options so;
    so.path = snap_path.string();
    so.every_rounds = 0;  // saves are forced at segment ends below
    so.train_begin_minute = ems_begin;
    so.train_end_minute = eval_begin;
    sim::SnapshotManager snapshots(*pipeline, so);
    const auto segment = static_cast<std::size_t>(
        static_cast<double>(w.save_every_rounds) * w.gamma_hours * 60.0);
    for (std::size_t b = ems_begin; b < eval_begin; b += segment) {
      const std::size_t e = std::min(b + segment, eval_begin);
      spans.time("ems.train", [&] { pipeline->train_ems(b, e); });
      spans.time("sim.snapshot_save", [&] { snapshots.save_now(); });
    }
    saved_hash = param_hash(*pipeline);
    saves = snapshots.saves();
    home_restarts = snapshots.home_restarts();
    snapshot_bytes = std::filesystem::file_size(snap_path);

    // Warm restart of the whole run: a fresh pipeline (its own metrics
    // sink, so the measured run's counters stay untouched) restored
    // from the file the last save wrote.
    obs::MetricsRegistry restore_reg;
    core::PipelineConfig restore_cfg = cfg;
    restore_cfg.metrics = &restore_reg;
    const auto restored = spans.time("sim.snapshot_restore", [&] {
      const sim::RunSnapshot snap = sim::load_snapshot(snap_path.string());
      auto fresh =
          std::make_unique<core::EmsPipeline>(scenario.traces, restore_cfg);
      sim::restore_run(*fresh, snap);
      return fresh;
    });
    restored_hash = param_hash(*restored);
    std::filesystem::remove(snap_path);
  } else {
    spans.time("ems.train",
               [&] { pipeline->train_ems(ems_begin, eval_begin); });
  }

  const double accuracy = spans.time("forecast.infer", [&] {
    return pipeline->forecast_accuracy(eval_begin, total);
  });
  const auto results = spans.time(
      "ems.evaluate", [&] { return pipeline->evaluate(eval_begin, total); });

  // Clamped per home, as the repository reports net savings; the
  // unclamped sum is what the correctness check needs.
  double net = 0.0, net_unclamped = 0.0, standby = 0.0;
  for (const auto& r : results) {
    net += std::max(0.0, r.net_saved_kwh());
    net_unclamped += r.net_saved_kwh();
    standby += r.standby_kwh;
  }
  const std::uint64_t hash = param_hash(*pipeline);
  const net::BusStats fc = pipeline->forecast_comm_stats();
  const net::BusStats drl = pipeline->drl_comm_stats();
  const double run_wall = now_s() - run_w0;
  const double run_cpu = process_cpu_s() - run_c0;

  // Counters: the pipeline's own registry, with the process-wide pool and
  // nn telemetry turned into this repetition's deltas.
  pipeline->sync_runtime_metrics();
  const util::ThreadPoolStats pool1 = pool.stats();
  reg.counter("pool.tasks_executed")
      .set(pool1.tasks_executed - pool0.tasks_executed);
  reg.counter("pool.tasks_stolen").set(pool1.tasks_stolen - pool0.tasks_stolen);
  reg.counter("pool.tasks_heap").set(pool1.tasks_heap - pool0.tasks_heap);
  obs::record_nn_workspace_stats(reg);
  obs::record_nn_kernel_stats(reg);
  obs::record_nn_fused_stats(reg);
  for (const char* name : {"nn.workspace_allocs", "nn.kernel_train_batches",
                           "nn.fused_batches", "nn.fused_batch_rows"}) {
    obs::Counter& c = reg.counter(name);
    c.set(c.value() - nn0.counter(name).value());
  }
  reg.counter("sim.snapshot_saves").set(saves);
  reg.counter("sim.home_restarts").set(home_restarts);
  reg.counter("sim.snapshot_bytes").set(snapshot_bytes);
  // DFL exchanges every forecaster, the DRL federation every agent.
  const std::uint64_t contrib_expected =
      reg.counter("dfl.rounds").value() *
          clean_round_contributions(scenario.traces,
                                    [](std::size_t, std::size_t) {
                                      return true;
                                    }) +
      reg.counter("drl.rounds").value() *
          clean_round_contributions(
              scenario.traces, [&](std::size_t h, std::size_t d) {
                return pipeline->agent_ptr(h, d) != nullptr;
              });

  const double rep_wall = now_s() - rep_w0;
  std::ostringstream js;
  js << "{\"rep\":" << rep << ",\"scenario\":" << k
     << ",\"scenario_seed\":" << seed << ",\"homes\":" << homes
     << ",\"days\":" << days
     << ",\"setup_s\":" << json_num(setup_s)
     << ",\"run_wall_s\":" << json_num(run_wall)
     << ",\"run_cpu_s\":" << json_num(run_cpu)
     << ",\"rep_wall_s\":" << json_num(rep_wall)
     << ",\"peak_rss_mib\":" << json_num(peak_rss_mib())
     << ",\"bytes_on_wire\":" << (fc.bytes_on_wire + drl.bytes_on_wire)
     << ",\"forecast_accuracy\":" << json_num(accuracy)
     << ",\"net_saved_kwh\":" << json_num(net)
     << ",\"net_saved_kwh_unclamped\":" << json_num(net_unclamped)
     << ",\"contrib_expected\":" << contrib_expected
     << ",\"standby_kwh\":" << json_num(standby)
     << ",\"param_hash\":\"" << std::hex << hash << std::dec << "\"";
  if (saved_hash) {
    js << ",\"saved_hash\":\"" << std::hex << *saved_hash << "\""
       << ",\"restored_hash\":\"" << *restored_hash << std::dec << "\"";
  }
  js << ",\"spans\":{";
  for (std::size_t i = 0; i < spans.all().size(); ++i) {
    const Span& s = spans.all()[i];
    js << (i ? "," : "") << json_str(s.name) << ":{\"wall_s\":"
       << json_num(s.wall_s) << ",\"cpu_s\":" << json_num(s.cpu_s)
       << ",\"calls\":" << s.calls << "}";
  }
  js << "},\"registry\":" << reg.to_json() << "}";
  return {js.str(), rep_wall};
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::size_t workers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = next();
      opt.workload = find_workload(name);
      if (opt.workload == nullptr) usage_error("unknown workload " + name);
    } else if (arg == "--seed") {
      opt.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--reps") {
      opt.reps = std::stoul(next());
    } else if (arg == "--pool-workers") {
      workers = std::stoul(next());
    } else if (arg == "--homes") {
      opt.homes = std::stoul(next());
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--scenarios") {
      opt.scenarios = std::stoul(next());
    } else if (arg == "--tmp") {
      opt.tmp = next();
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (opt.workload == nullptr) usage_error("--workload is required");
  if (opt.out.empty()) usage_error("--out is required");
  if (workers == 0) usage_error("--pool-workers must be >= 1");
  if (opt.scenarios == 0) opt.scenarios = opt.workload->scenarios;
  // The global pool is sized once per process, before its first use.
  util::ThreadPool::set_global_workers(workers);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    usage_error(std::string("bad argument: ") + e.what());
  }
  std::vector<RepResult> reps;
  std::vector<double> setups;
  try {
    const double t0 = now_s();
    for (std::size_t i = 0; i < kSetupPasses; ++i) {
      setups.push_back(setup_pass(opt));
    }
    for (std::size_t r = 0;; ++r) {
      reps.push_back(run_rep(opt, r));
      if (opt.reps > 0) {
        if (reps.size() >= opt.reps) break;
      } else if (reps.size() > opt.scenarios &&
                 now_s() - t0 + reps.back().seconds > opt.seconds) {
        break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }

  std::ofstream out(opt.out);
  out << "{\"workload\":" << json_str(opt.workload->name)
      << ",\"seed\":" << opt.seed << ",\"scenarios\":" << opt.scenarios
      << ",\"pool_workers\":" << util::ThreadPool::global().size()
      << ",\"shards\":" << kShards
      << ",\"build\":{\"type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"flags\":" << json_str(PERFBENCH_COMPILE_FLAGS)
      << ",\"x86_64_v3\":" << (PERFBENCH_X86_64_V3 ? "true" : "false")
      << ",\"libmvec\":" << (PERFBENCH_LIBMVEC ? "true" : "false") << "}"
      << ",\"setup_samples_s\":[";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out << (i ? "," : "") << json_num(setups[i]);
  }
  out << "],\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    out << (i ? "," : "") << reps[i].json;
  }
  out << "]}\n";
  if (!out) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}
