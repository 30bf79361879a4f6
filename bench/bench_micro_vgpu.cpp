// Microbenchmarks (real wall-clock on this host): the virtual-GPU runtime
// itself — launch overhead in direct vs fiber mode, wavefront-collective
// cost at widths 32 and 64, and the ApplyGateH vs ApplyGateL kernel cost
// (the emulator-level ground truth behind the Figure 6 observation that
// the L kernel is the expensive one).
#include <benchmark/benchmark.h>

#include "src/core/gates.h"
#include "src/hipsim/simulator_hip.h"

namespace {

using namespace qhip;

void BM_LaunchDirectMode(benchmark::State& state) {
  vgpu::Device dev{vgpu::mi250x_gcd()};
  const unsigned grid = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    dev.launch("noop", {grid, 64, 0, false, {}}, [](vgpu::KernelCtx&) {});
  }
  state.counters["blocks"] = grid;
}
BENCHMARK(BM_LaunchDirectMode)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_LaunchFiberMode(benchmark::State& state) {
  vgpu::Device dev{vgpu::mi250x_gcd()};
  const unsigned grid = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    dev.launch("noop_sync", {grid, 64, 0, true, {}},
               [](vgpu::KernelCtx& ctx) { ctx.syncthreads(); });
  }
  state.counters["blocks"] = grid;
}
BENCHMARK(BM_LaunchFiberMode)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_WarpReduce(benchmark::State& state) {
  const unsigned warp = static_cast<unsigned>(state.range(0));
  vgpu::Device dev{vgpu::test_device(warp)};
  std::vector<double> out(1);
  for (auto _ : state) {
    dev.launch("reduce", {8, warp, 0, true, {}}, [&](vgpu::KernelCtx& ctx) {
      const double r = hipsim::warp_reduce_sum(ctx, 1.0);
      if (ctx.lane() == 0) out[0] = r;
    });
    benchmark::DoNotOptimize(out[0]);
  }
}
BENCHMARK(BM_WarpReduce)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

// The H/L kernel cost split on the emulator: one single-qubit gate applied
// to a high (>= 5) or low (< 5) qubit of a 14-qubit device state. apply_gate
// only enqueues on the simulator's compute stream, so each iteration joins
// the device to time the kernel itself. The other loops here launch on the
// legacy default stream or copy synchronously, which run inline. The kernel
// runs on other threads, so wall time (not this thread's CPU time) decides
// the iteration count.
void BM_ApplyGateHL(benchmark::State& state) {
  const qubit_t target = static_cast<qubit_t>(state.range(0));
  vgpu::Device dev{vgpu::mi250x_gcd()};
  hipsim::SimulatorHIP<float> sim(dev);
  hipsim::DeviceStateVector<float> s(dev, 14);
  sim.state_space().set_zero_state(s);
  const Gate g = gates::h(0, target);
  for (auto _ : state) {
    sim.apply_gate(g, s);
    dev.synchronize();
  }
  state.SetLabel(target < hipsim::kLowBits ? "ApplyGateL_Kernel"
                                           : "ApplyGateH_Kernel");
}
BENCHMARK(BM_ApplyGateHL)->Arg(0)->Arg(3)->Arg(7)->Arg(12)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_DeviceMemcpyH2D(benchmark::State& state) {
  vgpu::Device dev{vgpu::mi250x_gcd()};
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> host(bytes);
  void* d = dev.malloc(bytes);
  for (auto _ : state) {
    dev.memcpy_h2d(d, host.data(), bytes);
  }
  dev.free(d);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DeviceMemcpyH2D)->Arg(4096)->Arg(1 << 20)->Arg(16 << 20)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
