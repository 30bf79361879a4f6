#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + n / 2);
  return 0.5 * (lo + hi);
}

namespace {

// 1-based nearest rank of the p-th percentile of n samples, in [1, n].
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const std::size_t k = nearest_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

bool percentile_valid(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinBeyond;
}

std::optional<double> tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 50};
  for (double p : kLadder) {
    if (percentile_valid(n, p)) return p;
  }
  return std::nullopt;
}

double share(std::size_t count, std::size_t total) {
  return total == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(total);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace perfbench
