#include "fl/aggregate.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pfdrl::fl {

namespace {

// out[i] = (0.0 + in_0[i] + in_1[i] + ...) * inv for i < len, summed in
// input order per element. Blocked so each input streams through a
// cache-resident accumulator block with a contiguous, vectorizable inner
// loop; per element it is the same chain of adds as the naive
// element-outer loop, so the result is bitwise identical (no FMA
// contraction in this build). A block's outputs are written only after
// every input's block was read, so `out` may alias any input.
void average_prefix(std::span<const std::span<const double>> inputs,
                    std::size_t len, double* out) {
  constexpr std::size_t kBlock = 256;
  const double inv = 1.0 / static_cast<double>(inputs.size());
  double acc[kBlock];
  for (std::size_t base = 0; base < len; base += kBlock) {
    const std::size_t m = std::min(kBlock, len - base);
    for (std::size_t j = 0; j < m; ++j) acc[j] = 0.0;
    for (const auto& in : inputs) {
      const double* src = in.data() + base;
      for (std::size_t j = 0; j < m; ++j) acc[j] += src[j];
    }
    for (std::size_t j = 0; j < m; ++j) out[base + j] = acc[j] * inv;
  }
}

}  // namespace

void fedavg(std::span<const std::span<const double>> inputs,
            std::span<double> out) {
  if (inputs.empty()) throw std::invalid_argument("fedavg: no inputs");
  const std::size_t n = out.size();
  for (const auto& in : inputs) {
    if (in.size() != n) throw std::invalid_argument("fedavg: size mismatch");
  }
  average_prefix(inputs, n, out.data());
}

void fedavg_weighted(std::span<const std::span<const double>> inputs,
                     std::span<const double> weights, std::span<double> out) {
  if (inputs.empty()) throw std::invalid_argument("fedavg_weighted: no inputs");
  if (inputs.size() != weights.size()) {
    throw std::invalid_argument("fedavg_weighted: weights size mismatch");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("fedavg_weighted: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    throw std::invalid_argument("fedavg_weighted: zero total weight");
  }
  const std::size_t n = out.size();
  for (const auto& in : inputs) {
    if (in.size() != n) {
      throw std::invalid_argument("fedavg_weighted: size mismatch");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      sum += weights[k] * inputs[k][i];
    }
    out[i] = sum / total;
  }
}

void fedavg_prefix(std::span<const std::span<const double>> inputs,
                   std::size_t prefix_len, std::span<double> out) {
  if (inputs.empty()) throw std::invalid_argument("fedavg_prefix: no inputs");
  if (prefix_len > out.size()) {
    throw std::invalid_argument("fedavg_prefix: prefix exceeds output");
  }
  for (const auto& in : inputs) {
    if (in.size() < prefix_len) {
      throw std::invalid_argument("fedavg_prefix: input shorter than prefix");
    }
  }
  average_prefix(inputs, prefix_len, out.data());
}

}  // namespace pfdrl::fl
