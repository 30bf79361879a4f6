#include "gauge.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {
namespace {

// The reference computation resembles the program's two kinds of work: a
// 2x2 update of amplitude pairs in an 18-qubit single-precision state per
// thread (2 MiB, a 4-thread pool's slice of the 20-qubit state of
// rqc_host), and printing and parsing numbers with %.17g, like the serve
// wire codec. The threads never wait for each other: time spent waiting
// would follow how the host schedules them, not how fast it computes.
constexpr unsigned kQubits = 18;
constexpr int kPasses = 10;
constexpr int kNumbersPerPass = 2000;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Rotates every pair (i, i + stride) of the amplitudes.
void rotate_pairs(std::vector<std::complex<float>>& s, std::size_t stride) {
  constexpr float c = 0.8f, d = 0.6f;  // a rotation keeps the norm
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i & stride) continue;
    const float ar = s[i].real(), ai = s[i].imag();
    const float br = s[i + stride].real(), bi = s[i + stride].imag();
    s[i] = {c * ar - d * br, c * ai - d * bi};
    s[i + stride] = {d * ar + c * br, d * ai + c * bi};
  }
}

double print_and_parse(int pass, unsigned rank) {
  char buf[40];
  double sum = 0;
  for (int k = 0; k < kNumbersPerPass; ++k) {
    const double x = 1.0 / (1 + k + pass * kNumbersPerPass + rank);
    std::snprintf(buf, sizeof buf, "%.17g", x);
    sum += std::strtod(buf, nullptr);
  }
  return sum;
}

}  // namespace

HostGauge::HostGauge(unsigned threads)
    : threads_(threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads),
      state_(threads_, std::vector<std::complex<float>>(std::size_t{1} << kQubits)) {}

double HostGauge::sample() {
  std::vector<double> cpu(threads_, 0.0), sink(threads_, 0.0);
  auto work = [&](unsigned rank) {
    auto& s = state_[rank];
    const double t0 = thread_cpu_seconds();
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = {1.0f / static_cast<float>(1 + (i & 1023)), 0.0f};
    }
    double acc = 0;
    for (int p = 0; p < kPasses; ++p) {
      rotate_pairs(s, std::size_t{1} << (p % kQubits));
      acc += print_and_parse(p, rank);
    }
    for (std::size_t i = 0; i < s.size(); i += 4096) acc += s[i].real();
    cpu[rank] = thread_cpu_seconds() - t0;
    sink[rank] = acc;
  };
  {
    std::vector<std::jthread> pool;  // joined on every way out of this block
    for (unsigned r = 1; r < threads_; ++r) pool.emplace_back(work, r);
    work(0);
  }
  double total = 0, check = 0;
  for (unsigned r = 0; r < threads_; ++r) {
    total += cpu[r];
    check += sink[r];
  }
  // The checksum is finite by construction; testing it keeps the work live.
  if (!(check == check)) std::abort();
  samples_.push_back(total / (threads_ * kReferenceSeconds));
  return total;
}

}  // namespace perfbench
