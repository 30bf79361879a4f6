// Order statistics used by every perfbench metric.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n sorted
// samples is the sample at 1-based rank ceil(p/100 * n), so every reported
// value is one that was measured. A percentile is only trustworthy when
// enough samples lie beyond it; tail_percentile() picks the highest one of a
// fixed ladder that keeps at least kMinBeyond samples above it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// Samples that must lie strictly beyond a percentile for it to be reported
// as valid.
inline constexpr std::size_t kMinBeyond = 10;

// Median (mean of the two middle samples for even n); 0 for no samples.
double median(std::vector<double> v);

// Nearest-rank percentile, p in (0, 100]; 0 for no samples.
double percentile(std::vector<double> v, double p);

// Samples ranked above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

// True when the p-th percentile of n samples has >= kMinBeyond beyond it.
bool percentile_valid(std::size_t n, double p);

// Highest of {50, 90, 95, 99, 99.9} that is valid for n samples, or none
// when even the median has fewer than kMinBeyond samples beyond it.
std::optional<double> tail_percentile(std::size_t n);

// count / total, 0 when total is 0.
double share(std::size_t count, std::size_t total);

// Arithmetic mean; 0 for no samples.
double mean(const std::vector<double>& v);

}  // namespace perfbench
