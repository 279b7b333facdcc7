// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary regenerates one table/figure of the paper's evaluation
// section (see DESIGN.md §4 for the index) and prints the series as an
// aligned text table. Scales are chosen for single-core laptop runtimes;
// absolute numbers therefore differ from the paper's testbed, but the
// *shape* (ordering, optima, crossovers) is the reproduction target.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

// Build facts the baseline emitters stamp into their JSON (set for every
// bench by bench/CMakeLists.txt).
#ifndef PFDRL_BUILD_TYPE
#define PFDRL_BUILD_TYPE "unknown"
#endif
#ifndef PFDRL_COMPILE_FLAGS
#define PFDRL_COMPILE_FLAGS ""
#endif
#ifndef PFDRL_SOURCE_DIR
#define PFDRL_SOURCE_DIR "."
#endif

namespace pfdrl::bench {

/// First line of a shell command's stdout, trailing newline stripped;
/// empty when the command fails.
inline std::string command_line_out(const std::string& cmd) {
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  char buf[256] = {0};
  std::string out;
  if (std::fgets(buf, sizeof(buf), p) != nullptr) out = buf;
  const int rc = pclose(p);
  if (rc != 0) return {};
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// The `"host"` JSON object of a committed baseline: nproc, CPU model,
/// build type and flags, and the git sha of the source tree ("-dirty"
/// when it has uncommitted changes to tracked files). Call it before the
/// run writes its output, so rewriting a tracked baseline file does not
/// mark the tree dirty.
inline std::string host_stamp_json() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t value = line.find_first_not_of(" \t:", 10);
      if (value != std::string::npos) cpu_model = line.substr(value);
      break;
    }
  }
  const std::string git = std::string("git -C '") + PFDRL_SOURCE_DIR + "' ";
  std::string sha = command_line_out(git + "rev-parse HEAD 2>/dev/null");
  if (sha.empty()) {
    sha = "unknown";
  } else if (std::system((git + "diff --quiet HEAD -- 2>/dev/null").c_str()) !=
             0) {
    sha += "-dirty";
  }
  const auto quoted = [](const std::string& v) {
    std::string out = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + quoted(cpu_model) +
         ", \"build_type\": " + quoted(PFDRL_BUILD_TYPE) +
         ", \"flags\": " + quoted(PFDRL_COMPILE_FLAGS) +
         ", \"git_sha\": " + quoted(sha) + "}";
}

/// Standard bench neighbourhood: 5 homes, seeded; `days` trace days.
inline sim::Scenario bench_scenario(std::size_t days,
                                    std::uint32_t homes = 5,
                                    std::uint64_t seed = 42) {
  sim::ScenarioConfig cfg;
  cfg.neighborhood.num_households = homes;
  cfg.neighborhood.min_devices = 4;
  cfg.neighborhood.max_devices = 5;
  cfg.neighborhood.seed = seed;
  cfg.trace.days = days;
  cfg.trace.seed = seed;
  return sim::Scenario::generate(cfg);
}

inline void print_figure_header(const std::string& figure,
                                const std::string& paper_claim) {
  std::printf("=== %s ===\n", figure.c_str());
  std::printf("paper: %s\n\n", paper_claim.c_str());
}

/// Fixed-order FNV-1a over raw parameter bytes — the bitwise fingerprint
/// the determinism asserts compare across modes and pool worker counts.
inline std::uint64_t fnv1a_params(std::span<const double> params) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// Metrics sidecar hook: when PFDRL_METRICS_DIR is set, fold the runtime
/// pool counters into the global registry and write everything the run
/// recorded to `<dir>/<bench_name>.metrics.json`. Call at the end of
/// main() — a no-op without the env var, so benches stay silent by
/// default.
inline void dump_metrics(const std::string& bench_name) {
  const char* dir = std::getenv("PFDRL_METRICS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  auto& reg = obs::MetricsRegistry::global();
  obs::record_thread_pool_stats(reg, "pool",
                                util::ThreadPool::global().stats());
  obs::record_nn_workspace_stats(reg);
  obs::record_nn_kernel_stats(reg);
  const std::string path =
      std::string(dir) + "/" + bench_name + ".metrics.json";
  reg.write_json(path);
  std::printf("\nmetrics written to %s\n", path.c_str());
}

}  // namespace pfdrl::bench
