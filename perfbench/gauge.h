// Host-speed gauge for the CPU-time metrics.
//
// The benchmark shares a few vCPUs of a host with other tenants. Their load
// changes how much CPU time the same work takes by tens of percent over
// minutes (a busy hyperthread sibling, a shared cache and memory bus, the
// clock speed the host's load allows), so process CPU time drifts between
// runs as much as wall time does. The gauge runs a short, fixed reference
// computation, written here and independent of the program under test,
// between the program's requests, and times it in CPU seconds. Its ratio to
// the same computation's time on a quiet reference host is the host's
// slowdown at that moment; the CPU-time metrics are divided by the slowdown
// measured among their own requests, so they read as CPU time on the
// reference host. A change to the program moves them; a change of host
// speed, which slows the gauge alike, does not.
#pragma once

#include <complex>
#include <vector>

namespace perfbench {

class HostGauge {
 public:
  // Runs the reference computation on `threads` threads, 0 meaning
  // hardware_concurrency, the width of the program's shared thread pool.
  // Several threads also see how the vCPUs slow each other down, but a
  // sample must wait until the host schedules every one of them, so an open
  // loop, which must not delay its sends, samples on its own thread alone.
  explicit HostGauge(unsigned threads);

  // Runs the reference computation once (about 20 ms) and returns its CPU
  // seconds, summed over its threads.
  double sample();

  // The host's slowdown of every sample so far: its CPU seconds per thread
  // over kReferenceSeconds.
  const std::vector<double>& samples() const { return samples_; }

  // CPU seconds of one sample per thread on a quiet 4-vCPU x86 host (Xeon,
  // 2 MiB L2 per core), GCC 12 RelWithDebInfo.
  static constexpr double kReferenceSeconds = 0.02;

 private:
  unsigned threads_;
  std::vector<std::vector<std::complex<float>>> state_;  // one per thread
  std::vector<double> samples_;
};

}  // namespace perfbench
