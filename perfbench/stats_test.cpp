// Unit test of the perfbench statistics helpers (ctest in the perfbench
// build: `ctest --test-dir .bench_build/perfbench`). Exits non-zero on the
// first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what, int line) {
  if (!cond) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // median: odd, even, single, empty, unsorted input.
  EXPECT(near(median({3, 1, 2}), 2));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  EXPECT(near(median({7}), 7));
  EXPECT(near(median({}), 0));
  EXPECT(near(median(iota(100)), 50.5));

  // percentile: nearest rank returns a measured sample.
  EXPECT(near(percentile(iota(100), 90), 90));
  EXPECT(near(percentile(iota(100), 50), 50));
  EXPECT(near(percentile(iota(100), 100), 100));
  EXPECT(near(percentile(iota(10), 95), 10));
  EXPECT(near(percentile({5}, 1), 5));
  EXPECT(near(percentile({}, 50), 0));

  // samples beyond the percentile and its validity.
  EXPECT(samples_beyond(100, 90) == 10);
  EXPECT(percentile_valid(100, 90));
  EXPECT(!percentile_valid(99, 90));
  EXPECT(samples_beyond(0, 50) == 0);

  // Highest percentile with at least ten samples beyond it.
  EXPECT(!tail_percentile(19).has_value());
  EXPECT(tail_percentile(20).value() == 50);
  EXPECT(tail_percentile(100).value() == 90);
  EXPECT(tail_percentile(200).value() == 95);
  EXPECT(tail_percentile(999).value() == 95);
  EXPECT(tail_percentile(1000).value() == 99);
  EXPECT(tail_percentile(10000).value() == 99.9);

  // share counting.
  EXPECT(near(share(0, 0), 0));
  EXPECT(near(share(3, 4), 0.75));
  EXPECT(near(share(5, 5), 1));

  EXPECT(near(mean({1, 2, 3, 6}), 3));
  EXPECT(near(mean({}), 0));

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
