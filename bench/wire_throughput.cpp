// Wire-codec throughput + compression sweep (docs/wire.md).
//
// Measures the net::WireCodec frame codec on the repo's real forecaster
// parameter shapes (LSTM / GRU / BP-MLP, built by forecast::make_forecaster
// so the vectors have the production sizes and init distributions) under a
// synthetic converged-training evolution: round t perturbs every parameter
// by a geometrically decaying step, so early rounds look like fresh
// training (large deltas, little to compress) and late rounds look like a
// converged federation (tiny deltas, long XOR leading-zero runs). Reports
// the per-round compression trajectory, the converged-round ratio (mean of
// the last three rounds — the steady state a long federated run spends
// almost all its wall clock in), and encode/decode throughput in GB/s over
// the raw fp64 payload.
//
// Determinism guard: the full sweep runs twice and the FNV-1a hash over
// every coded frame byte must match bitwise — the codec's twin-run
// contract.
//
// Writes a JSON summary (default BENCH_wire.json in the CWD; the committed
// baseline at the repo root is produced by the default flags), stamped
// with the host (nproc, CPU model) and build (type, flags, git sha) that
// produced it.
// Flags: --rounds R, --reps N, --out PATH.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "forecast/forecaster.hpp"
#include "net/codec.hpp"
#include "net/topology.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace pfdrl;

struct ShapeResult {
  std::string name;
  std::size_t params = 0;
  std::uint64_t keyframe_bytes = 0;
  std::vector<double> ratios_by_round;  ///< raw/coded, per round
  double overall_ratio = 0.0;
  double converged_ratio = 0.0;  ///< mean of the last 3 rounds
  double encode_gbps = 0.0;
  double decode_gbps = 0.0;
  std::uint64_t frame_hash = 0;
};

/// Per-round update step: 1e-2 decaying one decade per round — round 0 is
/// the keyframe, the tail rounds sit at the ~1e-10-relative deltas a
/// converged double-precision federation produces.
double step_scale(std::size_t round) {
  return 1e-2 * std::pow(10.0, -static_cast<double>(round));
}

/// Signed unit noise from the deterministic mix64 stream (no libc rand —
/// twin runs must agree bitwise).
double unit_noise(std::uint64_t key) {
  const std::uint64_t g = net::detail::mix64(key);
  return (static_cast<double>(g >> 11) * 0x1.0p-53) * 2.0 - 1.0;
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ULL;
  return h;
}

/// One shape sweep: evolve the parameter vector `rounds` times, encode the
/// delta frame each round (`reps` repetitions for stable timing; every rep
/// encodes the identical frame, so only the first is hashed/billed),
/// decode-verify each frame, and accumulate stats.
ShapeResult run_shape(const std::string& name, forecast::Method method,
                      std::size_t rounds, std::size_t reps,
                      std::uint64_t seed) {
  const data::WindowConfig window;  // production window: 16 + calendar
  const auto model = forecast::make_forecaster(method, window, seed);
  const auto init = model->parameters();
  std::vector<double> params(init.begin(), init.end());

  ShapeResult r;
  r.name = name;
  r.params = params.size();
  r.frame_hash = 1469598103934665603ULL;

  std::vector<double> prev;  // codec delta state (empty = keyframe)
  std::vector<std::uint8_t> frame;
  std::vector<double> decoded;
  const std::uint64_t raw = params.size() * sizeof(double);
  std::uint64_t coded_total = 0;
  double encode_s = 0.0;
  double decode_s = 0.0;

  for (std::size_t t = 0; t < rounds; ++t) {
    if (t > 0) {
      const double step = step_scale(t);
      for (std::size_t i = 0; i < params.size(); ++i) {
        params[i] += step * unit_noise(seed ^ (t * 0x9E3779B97F4A7C15ULL) ^ i);
      }
    }
    util::Stopwatch encode_watch;
    std::size_t coded = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      coded = net::WireCodec::encode_frame(params, prev, frame);
    }
    encode_s += encode_watch.elapsed_seconds();

    util::Stopwatch decode_watch;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      net::WireCodec::decode_frame(std::span(frame.data(), coded), prev,
                                   params.size(), decoded);
    }
    decode_s += decode_watch.elapsed_seconds();
    if (std::memcmp(decoded.data(), params.data(), raw) != 0) {
      std::fprintf(stderr, "FATAL: %s round %zu roundtrip mismatch\n",
                   name.c_str(), t);
      std::exit(1);
    }

    r.frame_hash = fnv1a(r.frame_hash, std::span(frame.data(), coded));
    if (t == 0) r.keyframe_bytes = coded;
    coded_total += coded;
    r.ratios_by_round.push_back(static_cast<double>(raw) /
                                static_cast<double>(coded));
    prev = params;
  }

  r.overall_ratio = static_cast<double>(raw * rounds) /
                    static_cast<double>(coded_total);
  const std::size_t tail = std::min<std::size_t>(3, rounds);
  double tail_sum = 0.0;
  for (std::size_t i = rounds - tail; i < rounds; ++i) {
    tail_sum += r.ratios_by_round[i];
  }
  r.converged_ratio = tail_sum / static_cast<double>(tail);
  const double bytes_moved =
      static_cast<double>(raw) * static_cast<double>(rounds * reps);
  r.encode_gbps = encode_s > 0.0 ? bytes_moved / encode_s / 1e9 : 0.0;
  r.decode_gbps = decode_s > 0.0 ? bytes_moved / decode_s / 1e9 : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 12;
  std::size_t reps = 400;
  std::string out_path = "BENCH_wire.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--rounds R] [--reps N] [--out P]\n",
                   argv[0]);
      return 2;
    }
  }
  if (rounds < 2 || reps < 1) {
    std::fprintf(stderr, "wire_throughput: need --rounds >= 2, --reps >= 1\n");
    return 2;
  }

  // Stamped before the run writes anything, so rewriting a tracked
  // baseline file does not mark the tree dirty.
  const std::string host = bench::host_stamp_json();

  bench::print_figure_header(
      "Wire-codec compression + throughput (docs/wire.md)",
      "federated rounds resend nearly identical fp64 vectors — XOR delta "
      "coding shrinks converged-round traffic well past 2x, losslessly");

  const struct {
    const char* name;
    forecast::Method method;
  } kShapes[] = {
      {"lstm", forecast::Method::kLstm},
      {"gru", forecast::Method::kGru},
      {"mlp", forecast::Method::kBp},
  };

  std::vector<ShapeResult> results;
  bool deterministic = true;
  for (const auto& shape : kShapes) {
    ShapeResult first = run_shape(shape.name, shape.method, rounds, reps, 42);
    ShapeResult twin = run_shape(shape.name, shape.method, rounds, reps, 42);
    deterministic = deterministic && first.frame_hash == twin.frame_hash;
    results.push_back(std::move(first));
  }

  util::TextTable table({"shape", "params", "keyframe B", "overall x",
                         "converged x", "encode GB/s", "decode GB/s",
                         "deterministic"});
  for (const auto& r : results) {
    table.add_row({r.name, std::to_string(r.params),
                   std::to_string(r.keyframe_bytes),
                   util::fmt_double(r.overall_ratio, 2),
                   util::fmt_double(r.converged_ratio, 2),
                   util::fmt_double(r.encode_gbps, 2),
                   util::fmt_double(r.decode_gbps, 2),
                   deterministic ? "yes" : "NO"});
  }
  table.print();

  if (!deterministic) {
    std::fprintf(stderr, "FATAL: twin identically seeded sweeps diverged\n");
    return 1;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"wire_throughput\",\n"
               "  \"host\": %s,\n"
               "  \"rounds\": %zu,\n"
               "  \"reps\": %zu,\n"
               "  \"deterministic\": %s,\n"
               "  \"shapes\": [\n",
               host.c_str(), rounds, reps, deterministic ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& r = results[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"params\": %zu, "
                 "\"keyframe_bytes\": %" PRIu64 ", "
                 "\"overall_ratio\": %.3f, \"converged_ratio\": %.3f, "
                 "\"encode_gbps\": %.3f, \"decode_gbps\": %.3f, "
                 "\"frame_hash\": \"%016" PRIx64 "\", "
                 "\"ratios_by_round\": [",
                 r.name.c_str(), r.params, r.keyframe_bytes, r.overall_ratio,
                 r.converged_ratio, r.encode_gbps, r.decode_gbps,
                 r.frame_hash);
    for (std::size_t t = 0; t < r.ratios_by_round.size(); ++t) {
      std::fprintf(f, "%.3f%s", r.ratios_by_round[t],
                   t + 1 < r.ratios_by_round.size() ? ", " : "");
    }
    std::fprintf(f, "]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nbaseline written to %s\n", out_path.c_str());

  bench::dump_metrics("wire_throughput");
  return 0;
}
