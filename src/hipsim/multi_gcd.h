// Multi-GCD (multi-GPU) HIP backend — the paper's stated future work:
// "the multi-GPU porting for the HIP backend is an important goal for
// future work, offering the prospect of simulating ... even larger qubit
// counts" (§7). Each MI250X package already exposes two GCDs as separate
// devices, so this is the natural next step for the port.
//
// The state is split over 2^d virtual GCDs by the partitioned layout of
// src/statespace/partition.h (qHiPSTER qubit remapping, the cache-blocking
// distribution of Doi & Horii; shared with dist:N): GCD k holds the amplitudes whose top d physical index bits equal
// k, local gates run independently on every GCD with the single-device
// ApplyGateH/L kernels, and a gate touching a global slot first swaps it
// with a local one. What is specific to this backend:
//
//  * Transport. A slot swap exchanges, for each GCD pair differing in the
//    global bit, the halves with opposite local-bit values (pack kernel ->
//    peer copy -> unpack kernel; the emulator stages peer copies through
//    the host and records them as hipMemcpyPeer traffic).
//  * Eviction without lookahead: the highest free local slot. Farthest-
//    next-use eviction could move a qubit below kLowBits, and every later
//    gate on it would then run ApplyGateL, ~60x the cost of ApplyGateH on
//    the virtual GPU; it stays off until that trade is measured.
//  * Sampling draws per-GCD probability masses, splits the sorted uniforms
//    across GCDs, resolves locally, and maps physical indices back through
//    the layout.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "src/base/bits.h"
#include "src/base/deadline.h"
#include "src/base/error.h"
#include "src/base/rng.h"
#include "src/core/circuit.h"
#include "src/hipsim/simulator_hip.h"
#include "src/hipsim/state_space_hip_kernels.h"
#include "src/hipsim/vectorspace_hip.h"
#include "src/statespace/partition.h"

namespace qhip::hipsim {

struct MultiGcdStats {
  std::uint64_t slot_swaps = 0;       // global<->local qubit swaps
  std::uint64_t peer_bytes = 0;       // inter-GCD traffic
  std::uint64_t local_gate_launches = 0;
};

// Packs the elements of `amps` whose local bit `bit_pos` equals `bit_value`
// into the contiguous buffer `out` (size/2 elements), ordered by the
// remaining bits.
template <typename FP>
struct PackHalfKernel {
  const cplx<FP>* amps = nullptr;
  cplx<FP>* out = nullptr;
  index_t half = 0;  // size / 2
  unsigned bit_pos = 0;
  unsigned bit_value = 0;

  void operator()(vgpu::KernelCtx& ctx) const {
    const index_t stride = static_cast<index_t>(ctx.grid_dim()) * ctx.block_dim();
    for (index_t t = ctx.global_idx(); t < half; t += stride) {
      out[t] = amps[statespace::half_index(t, bit_pos, bit_value)];
    }
  }
};

template <typename FP>
struct UnpackHalfKernel {
  cplx<FP>* amps = nullptr;
  const cplx<FP>* in = nullptr;
  index_t half = 0;
  unsigned bit_pos = 0;
  unsigned bit_value = 0;

  void operator()(vgpu::KernelCtx& ctx) const {
    const index_t stride = static_cast<index_t>(ctx.grid_dim()) * ctx.block_dim();
    for (index_t t = ctx.global_idx(); t < half; t += stride) {
      amps[statespace::half_index(t, bit_pos, bit_value)] = in[t];
    }
  }
};

template <typename FP>
class MultiGcdSimulator {
 public:
  // `num_gcds` must be a power of two >= 2; each GCD gets its own virtual
  // device with `props` (MI250X GCD by default). A non-null `faults` plan is
  // shared by all GCDs, so occurrence counters ("the Nth allocation") are
  // global across the job rather than per device.
  MultiGcdSimulator(unsigned num_qubits, unsigned num_gcds,
                    vgpu::DeviceProps props = vgpu::mi250x_gcd(),
                    Tracer* tracer = nullptr,
                    std::shared_ptr<vgpu::FaultPlan> faults = nullptr)
      : layout_(num_qubits, num_gcds) {
    check(num_gcds >= 2, "MultiGcdSimulator: num_gcds must be a power of two >= 2");
    check(local_qubits() >= 2, "MultiGcdSimulator: too few qubits to split");
    for (unsigned k = 0; k < num_gcds; ++k) {
      devices_.push_back(std::make_unique<vgpu::Device>(props, tracer));
      if (faults) devices_.back()->set_fault_plan(faults);
      sims_.push_back(std::make_unique<SimulatorHIP<FP>>(*devices_.back()));
      states_.push_back(
          std::make_unique<DeviceStateVector<FP>>(*devices_.back(), local_qubits()));
      // Per-GCD exchange machinery: a stream for the pack -> peer copy ->
      // unpack pipeline, a persistent staging buffer (half the local state),
      // and events ordering the exchange against the gate kernels.
      xstreams_.push_back(devices_.back()->create_stream());
      ev_gates_.push_back(devices_.back()->create_event());
      ev_exchanged_.push_back(devices_.back()->create_event());
      xbufs_.push_back(devices_.back()->template malloc_n<cplx<FP>>(
          states_.back()->size() >> 1));
    }
    set_zero_state();
  }

  ~MultiGcdSimulator() {
    // free() joins each device's streams, so no exchange op can be pending.
    for (unsigned k = 0; k < num_gcds(); ++k) devices_[k]->free(xbufs_[k]);
  }

  unsigned num_qubits() const { return layout_.num_qubits(); }
  unsigned num_gcds() const { return layout_.num_parts(); }
  // hipDeviceSynchronize on every GCD: joins all pending gate and exchange
  // work (needed before reading wall-clock timers).
  void synchronize() {
    for (auto& d : devices_) d->synchronize();
  }
  const MultiGcdStats& stats() const { return stats_; }
  vgpu::Device& device(unsigned k) { return *devices_[k]; }

  void set_zero_state() {
    for (unsigned k = 0; k < num_gcds(); ++k) {
      sims_[k]->state_space().fill(*states_[k], cplx<FP>{});
    }
    sims_[0]->state_space().set_ampl(*states_[0], 0, cplx<FP>{1});
    layout_.reset();
  }

  // Applies one (unitary) gate; controlled gates are folded first.
  void apply_gate(const Gate& gate) {
    Gate g = normalized(gate.controls.empty() ? gate : expand_controls(gate));
    check(!g.is_measurement(), "MultiGcdSimulator: measurement via measure()");
    check(g.num_targets() <= local_qubits(),
          "MultiGcdSimulator: gate wider than the local qubit count");

    // Localize every target, then remap to physical slots (all local now).
    layout_.localize(g.qubits, nullptr, [this](unsigned gslot, unsigned lslot) {
      swap_slots(gslot, lslot);
    });
    Gate phys = g;
    for (auto& q : phys.qubits) q = layout_.slot_of(q);
    phys = normalized(phys);

    for (unsigned k = 0; k < num_gcds(); ++k) {
      sims_[k]->apply_gate(phys, *states_[k]);
      ++stats_.local_gate_launches;
    }
  }

  // `deadline` is checked between gates (cooperative cancellation; a gate's
  // local launches and slot exchanges are never interrupted mid-flight).
  void run(const Circuit& c, std::uint64_t seed = 0,
           std::vector<index_t>* measurements = nullptr,
           const Deadline& deadline = {}) {
    check(c.num_qubits == num_qubits(), "MultiGcdSimulator::run: qubit mismatch");
    std::uint64_t meas_idx = 0;
    for (const auto& g : c.gates) {
      deadline.check("MultiGcdSimulator::run");
      if (g.is_measurement()) {
        const index_t outcome = measure(g.qubits, measurement_seed(seed, ++meas_idx));
        if (measurements) measurements->push_back(outcome);
      } else {
        apply_gate(g);
      }
    }
  }

  double norm2() {
    double total = 0;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      total += sims_[k]->state_space().norm2(*states_[k]);
    }
    return total;
  }

  // Gathers the full state in *logical* qubit order.
  StateVector<FP> to_host() const {
    StateVector<FP> out(num_qubits());
    out[0] = cplx<FP>{};
    StateVector<FP> part(local_qubits());
    for (unsigned k = 0; k < num_gcds(); ++k) {
      states_[k]->download(part);
      const index_t base = static_cast<index_t>(k) << local_qubits();
      for (index_t i = 0; i < part.size(); ++i) {
        out[layout_.physical_to_logical(base | i)] = part[i];
      }
    }
    return out;
  }

  // Maps ascending unit positions — fractions of the total squared mass —
  // to logical sample indices; the sampling core behind sample(). Public as
  // a testable seam: positions at or beyond 1.0 fall past every cumulative
  // boundary and exercise the rounding tail below, which uniform draws in
  // [0, 1) almost never reach through sample() itself.
  std::vector<index_t> resolve_sorted_positions(std::vector<double> rs,
                                                std::uint64_t seed) {
    // Per-GCD mass. The split loop accumulates csum in the same order, so
    // the final boundary is bit-identical to `total`.
    std::vector<double> mass(num_gcds());
    double total = 0;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      mass[k] = sims_[k]->state_space().norm2(*states_[k]);
      total += mass[k];
    }
    for (auto& r : rs) r *= total;

    std::vector<index_t> out;
    out.reserve(rs.size());
    double csum = 0;
    std::size_t k0 = 0;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      std::size_t k1 = k0;
      while (k1 < rs.size() && rs[k1] < csum + mass[k]) ++k1;
      if (k1 > k0) {
        // Draw (k1 - k0) samples from GCD k's local distribution.
        const auto local = sims_[k]->state_space().sample(
            *states_[k], k1 - k0, seed ^ (0x9E37ull * (k + 1)));
        const index_t base = static_cast<index_t>(k) << local_qubits();
        for (index_t li : local) {
          out.push_back(layout_.physical_to_logical(base | li));
        }
      }
      csum += mass[k];
      k0 = k1;
    }
    if (out.size() < rs.size()) {
      // Tail from rounding: positions past every boundary. This used to
      // draw from the *last* GCD unconditionally — zero-mass after a
      // measurement collapse pins its distribution to |0...0>, yielding
      // impossible outcomes — and reused seed ^ 0x777 for every draw, so
      // all tail samples were copies of one value. Draw from the
      // maximum-mass GCD and advance the seed per draw instead.
      unsigned kmax = 0;
      for (unsigned k = 1; k < num_gcds(); ++k) {
        if (mass[k] > mass[kmax]) kmax = k;
      }
      const index_t base = static_cast<index_t>(kmax) << local_qubits();
      std::uint64_t tail_seed = seed ^ 0x777;
      while (out.size() < rs.size()) {
        const auto extra =
            sims_[kmax]->state_space().sample(*states_[kmax], 1, tail_seed++);
        out.push_back(layout_.physical_to_logical(base | extra[0]));
      }
    }
    return out;
  }

  // Born sampling across GCDs; returned indices are logical.
  std::vector<index_t> sample(std::size_t num_samples, std::uint64_t seed) {
    if (num_samples == 0) return {};
    // Sorted uniforms in [0, 1), resolved against the per-GCD masses.
    std::vector<double> rs(num_samples);
    Philox rng(seed, /*stream=*/0x6a17);
    for (auto& r : rs) r = rng.uniform();
    std::sort(rs.begin(), rs.end());
    std::vector<index_t> out = resolve_sorted_positions(std::move(rs), seed);
    // Deterministic de-sort.
    Philox shuf(seed, /*stream=*/0x6a18);
    for (std::size_t i = out.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(shuf.uniform() * i);
      std::swap(out[i - 1], out[j]);
    }
    return out;
  }

  // Measures logical `qubits` (collapse + renormalize); returns outcome.
  index_t measure(const std::vector<qubit_t>& qubits, std::uint64_t seed) {
    check(!qubits.empty(), "measure: empty qubit list");
    const std::vector<index_t> one = sample(1, seed);
    const index_t outcome = gather_bits(one[0], qubits);

    // Collapse: zero the GCDs the outcome rules out, and in the others the
    // amplitudes whose local bits disagree with it.
    const statespace::CollapsePlan plan = layout_.collapse_plan(qubits);
    const index_t lmask = plan.local_mask();
    const index_t lval = plan.local_value(outcome);
    for (unsigned k = 0; k < num_gcds(); ++k) {
      if (!plan.survives(k, outcome)) {
        sims_[k]->state_space().fill(*states_[k], cplx<FP>{});
      } else if (lmask != 0) {
        CollapseKernel<FP> ck{states_[k]->device_data(), states_[k]->size(),
                              lmask, lval};
        const index_t blocks =
            (states_[k]->size() + kReduceBlockDim - 1) / kReduceBlockDim;
        devices_[k]->launch(
            "Collapse_Kernel",
            {static_cast<unsigned>(std::min<index_t>(blocks, 4096)),
             kReduceBlockDim, 0, false, {}},
            ck);
      }
    }
    // Renormalize globally.
    const double n2 = norm2();
    check(n2 > 0, "measure: zero state after collapse");
    const FP inv = static_cast<FP>(1.0 / std::sqrt(n2));
    for (unsigned k = 0; k < num_gcds(); ++k) {
      ScaleKernel<FP> sk{states_[k]->device_data(), states_[k]->size(), inv};
      const index_t blocks =
          (states_[k]->size() + kReduceBlockDim - 1) / kReduceBlockDim;
      devices_[k]->launch(
          "Scale_Kernel",
          {static_cast<unsigned>(std::min<index_t>(blocks, 4096)),
           kReduceBlockDim, 0, false, {}},
          sk);
    }
    return outcome;
  }

 private:
  unsigned local_qubits() const { return layout_.local_qubits(); }

  // Exchanges a global slot with a local slot across all GCD pairs. Three
  // asynchronous phases on the per-GCD exchange streams: (1) behind the
  // pending gate kernels, pack and stage down to the host on every GCD
  // concurrently; (2) join the exchange streams — the host-staged peer
  // barrier; (3) upload the crossed halves and unpack, handing ordering back
  // to the compute streams via stream_wait_event. Devices of a pair (and
  // all pairs) overlap their pack/copy work.
  void swap_slots(unsigned gslot, unsigned lslot) {
    const unsigned gbit = gslot - local_qubits();  // bit within the GCD index
    const index_t half = states_[0]->size() >> 1;
    const std::size_t bytes = half * sizeof(cplx<FP>);

    struct PairStage {
      unsigned a, b;  // low / high side of the pair
      std::vector<cplx<FP>> host_a, host_b;
    };
    std::vector<PairStage> pairs;
    for (unsigned k = 0; k < num_gcds(); ++k) {
      if ((k >> gbit) & 1) continue;  // k is the low side of the pair
      pairs.push_back({k, k | (1u << gbit), std::vector<cplx<FP>>(half),
                       std::vector<cplx<FP>>(half)});
    }

    // Phase 1: pack A's half with local bit = 1 and B's half with local
    // bit = 0, then stage both down to the host, all asynchronously.
    for (auto& p : pairs) {
      pack_to_host(p.a, lslot, 1, p.host_a.data(), bytes);
      pack_to_host(p.b, lslot, 0, p.host_b.data(), bytes);
    }
    // Phase 2: the staged halves must be on the host before crossing over.
    for (auto& p : pairs) {
      devices_[p.a]->stream_synchronize(xstreams_[p.a]);
      devices_[p.b]->stream_synchronize(xstreams_[p.b]);
    }
    // Phase 3: crossed upload + unpack (recorded as hipMemcpyPeer traffic).
    for (auto& p : pairs) {
      unpack_from_host(p.a, lslot, 1, p.host_b.data(), bytes);
      unpack_from_host(p.b, lslot, 0, p.host_a.data(), bytes);
      stats_.peer_bytes += 2 * bytes;
    }
    ++stats_.slot_swaps;
  }

  // Pack half of GCD k's state into its exchange buffer and stage it to
  // `host`, on the exchange stream, ordered after pending gate kernels.
  void pack_to_host(unsigned k, unsigned bit_pos, unsigned bit_value,
                    cplx<FP>* host, std::size_t bytes) {
    devices_[k]->record_event(ev_gates_[k], sims_[k]->compute_stream());
    devices_[k]->stream_wait_event(xstreams_[k], ev_gates_[k]);
    launch_pack(k, xbufs_[k], bit_pos, bit_value);
    devices_[k]->memcpy_d2h_async(host, xbufs_[k], bytes, xstreams_[k]);
  }

  // Upload the peer's half into GCD k's exchange buffer and scatter it into
  // the state; subsequent gate kernels wait for the unpack.
  void unpack_from_host(unsigned k, unsigned bit_pos, unsigned bit_value,
                        const cplx<FP>* host, std::size_t bytes) {
    devices_[k]->memcpy_h2d_async(xbufs_[k], host, bytes, xstreams_[k]);
    launch_unpack(k, xbufs_[k], bit_pos, bit_value);
    devices_[k]->record_event(ev_exchanged_[k], xstreams_[k]);
    devices_[k]->stream_wait_event(sims_[k]->compute_stream(),
                                   ev_exchanged_[k]);
  }

  void launch_pack(unsigned k, cplx<FP>* buf, unsigned bit_pos,
                   unsigned bit_value) {
    const index_t half = states_[k]->size() >> 1;
    PackHalfKernel<FP> pk{states_[k]->device_data(), buf, half, bit_pos,
                          bit_value};
    devices_[k]->launch("PackHalf_Kernel", grid_for(half, xstreams_[k]), pk);
  }

  void launch_unpack(unsigned k, const cplx<FP>* buf, unsigned bit_pos,
                     unsigned bit_value) {
    const index_t half = states_[k]->size() >> 1;
    UnpackHalfKernel<FP> uk{states_[k]->device_data(), buf, half, bit_pos,
                            bit_value};
    devices_[k]->launch("UnpackHalf_Kernel", grid_for(half, xstreams_[k]), uk);
  }

  static vgpu::LaunchConfig grid_for(index_t size, vgpu::Stream s = {}) {
    const index_t blocks = (size + kReduceBlockDim - 1) / kReduceBlockDim;
    return {static_cast<unsigned>(std::min<index_t>(std::max<index_t>(blocks, 1), 4096)),
            kReduceBlockDim, 0, false, s};
  }

  statespace::PartitionLayout layout_;
  std::vector<std::unique_ptr<vgpu::Device>> devices_;
  std::vector<std::unique_ptr<SimulatorHIP<FP>>> sims_;
  std::vector<std::unique_ptr<DeviceStateVector<FP>>> states_;
  std::vector<vgpu::Stream> xstreams_;   // per-GCD exchange stream
  std::vector<vgpu::Event> ev_gates_;    // gate kernels drained, per GCD
  std::vector<vgpu::Event> ev_exchanged_;  // exchange landed, per GCD
  std::vector<cplx<FP>*> xbufs_;         // persistent pack/unpack staging
  MultiGcdStats stats_;
};

}  // namespace qhip::hipsim
