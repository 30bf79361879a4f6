// The qsim HIP backend simulator (simulator_cuda.h -> simulator_hip.h,
// conversion inventory item 2): ApplyGate / ApplyControlledGate dispatching
// to the H or L kernel, plus whole-circuit execution.
//
// Per-gate flow, matching the paper's trace (Figures 1 and 6): the gate
// matrix is staged to the device with hipMemcpyAsync on a dedicated copy
// stream, then ApplyGateH_Kernel or ApplyGateL_Kernel is launched on the
// compute stream. Matrix staging is double-buffered and ordered with events
// (hipStreamWaitEvent), so the upload for gate g+1 overlaps the kernel for
// gate g — the copy/compute overlap visible in the paper's rocprof
// timelines. A gate is "low" when any target qubit index is below
// log2(32) = 5 (paper §2.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/deadline.h"
#include "src/base/error.h"
#include "src/base/rng.h"
#include "src/core/circuit.h"
#include "src/hipsim/simulator_hip_kernels.h"
#include "src/hipsim/state_space_hip.h"
#include "src/hipsim/vectorspace_hip.h"
#include "src/simulator/apply.h"  // detail::matrix_as

namespace qhip::hipsim {

template <typename FP>
class SimulatorHIP {
 public:
  using fp_type = FP;

  explicit SimulatorHIP(vgpu::Device& dev)
      : dev_(&dev),
        space_(dev),
        stream_(dev.create_stream()),
        copy_stream_(dev.create_stream()) {
    // Double-buffered device staging for gate matrices (<= 64x64): while the
    // kernel for gate g reads one buffer, the upload for gate g+1 fills the
    // other on the copy stream.
    for (unsigned b = 0; b < 2; ++b) {
      d_matrix_[b] = dev_->malloc_n<cplx<FP>>(64 * 64);
      ev_upload_[b] = dev_->create_event();
      ev_kernel_[b] = dev_->create_event();
    }
  }

  ~SimulatorHIP() {
    // free() joins all streams first, so no pending kernel or upload can
    // still reference the staging buffers.
    dev_->free(d_matrix_[0]);
    dev_->free(d_matrix_[1]);
  }

  SimulatorHIP(const SimulatorHIP&) = delete;
  SimulatorHIP& operator=(const SimulatorHIP&) = delete;

  static constexpr const char* backend_name() { return "hip"; }

  vgpu::Device& device() { return *dev_; }
  StateSpaceHIP<FP>& state_space() { return space_; }
  // The stream gate kernels run on; external work that must order against
  // pending gates (e.g. multi-GCD slot exchanges) synchronizes with it via
  // events.
  vgpu::Stream compute_stream() const { return stream_; }

  // Applies one gate. Controlled gates with all-high targets use the native
  // control-mask path; controlled gates with low targets are folded into
  // their matrix first (within the 6-qubit kernel limit).
  void apply_gate(const Gate& gate, DeviceStateVector<FP>& s) {
    check(!gate.is_measurement(), "apply_gate: measurement gate");
    Gate g = normalized(gate);
    const bool low =
        !g.qubits.empty() && g.qubits.front() < kLowBits;
    if (!g.controls.empty() && low) {
      // L kernel has no native control path: fold controls into the matrix.
      g = expand_controls(g);
    }
    check(g.num_targets() <= 6, "apply_gate: gates wider than 6 qubits are "
                                "not supported by the GPU kernels");
    upload_matrix(g.matrix);
    unsigned num_high = 0;
    for (qubit_t t : g.qubits) num_high += t >= kLowBits ? 1 : 0;
    // The L kernel stages full 32-amplitude tiles; states too small for one
    // supergroup fall back to the generic per-group path (qsim requires
    // larger states outright; the emulator keeps small n usable for tests).
    if (g.qubits.front() < kLowBits &&
        s.num_qubits() >= kLowBits + num_high) {
      launch_low(g, s);
    } else {
      launch_high(g, s);
    }
    // The staging buffer of this slot is free for reuse once this kernel
    // completes; the upload two gates from now waits on it.
    dev_->record_event(ev_kernel_[slot_], stream_);
    slot_ ^= 1;
  }

  // Runs a circuit; measurement gate k uses Philox stream (seed, k).
  // `deadline` adds cooperative cancellation between gates: with an active
  // deadline the compute stream is joined every kDeadlineSyncGates gates
  // (bounding how much work is enqueued-but-unseen) and the budget checked;
  // expiry aborts with CodedError(kDeadlineExceeded). Gate kernels
  // themselves are not preemptible, exactly like real HIP kernels.
  void run(const Circuit& c, DeviceStateVector<FP>& s, std::uint64_t seed = 0,
           std::vector<index_t>* measurements = nullptr,
           const Deadline& deadline = {}) {
    check(s.num_qubits() == c.num_qubits, "SimulatorHIP::run: qubit mismatch");
    std::uint64_t meas_idx = 0;
    unsigned since_checkpoint = 0;
    for (const auto& g : c.gates) {
      if (deadline.active() && ++since_checkpoint >= kDeadlineSyncGates) {
        since_checkpoint = 0;
        dev_->synchronize();
      }
      deadline.check("SimulatorHIP::run");
      if (g.is_measurement()) {
        const index_t outcome =
            space_.measure(s, g.qubits, measurement_seed(seed, ++meas_idx));
        if (measurements) measurements->push_back(outcome);
      } else {
        apply_gate(g, s);
      }
    }
  }

 private:
  // With an active deadline, join the device every this many gates so the
  // wall clock reflects executed (not merely enqueued) work.
  static constexpr unsigned kDeadlineSyncGates = 16;

  void upload_matrix(const CMatrix& m) {
    const std::vector<cplx<FP>> host = detail::matrix_as<FP>(m);
    // Don't overwrite the buffer until the kernel that last read it is done
    // (no-op for the first two gates: the event was never recorded).
    dev_->stream_wait_event(copy_stream_, ev_kernel_[slot_]);
    dev_->memcpy_h2d_async(d_matrix_[slot_], host.data(),
                           host.size() * sizeof(cplx<FP>), copy_stream_);
    dev_->record_event(ev_upload_[slot_], copy_stream_);
    // The kernel launched next on the compute stream sees the upload.
    dev_->stream_wait_event(stream_, ev_upload_[slot_]);
  }

  void launch_high(const Gate& g, DeviceStateVector<FP>& s) {
    ApplyGateHKernel<FP> k;
    fill_args(k.a, g, s);

    // Outer enumeration removes target and control bits.
    std::vector<qubit_t> expand(g.qubits.begin(), g.qubits.end());
    expand.insert(expand.end(), g.controls.begin(), g.controls.end());
    std::sort(expand.begin(), expand.end());
    k.num_expand = static_cast<unsigned>(expand.size());
    std::copy(expand.begin(), expand.end(), k.expand_positions.begin());
    k.num_groups = s.size() >> expand.size();

    const unsigned grid = static_cast<unsigned>(
        (k.num_groups + kHBlockDim - 1) / kHBlockDim);
    dev_->launch("ApplyGateH_Kernel",
                 {std::max(grid, 1u), kHBlockDim, 0, false, stream_}, k);
  }

  void launch_low(const Gate& g, DeviceStateVector<FP>& s) {
    check(g.controls.empty(), "launch_low: controls must be pre-folded");
    ApplyGateLKernel<FP> k;
    fill_args(k.a, g, s);

    for (qubit_t t : g.qubits) {
      if (t >= kLowBits) k.high_targets[k.num_high++] = t;
    }
    // Local shared-memory bit of each target: low targets keep their
    // position inside the 32-amplitude tile; high target j maps to bit 5+j.
    unsigned hj = 0;
    for (unsigned j = 0; j < g.num_targets(); ++j) {
      k.local_targets[j] =
          g.qubits[j] < kLowBits ? g.qubits[j] : kLowBits + hj++;
    }
    // Supergroup enumeration removes the 5 tile bits and the high targets.
    std::vector<qubit_t> expand;
    for (unsigned b = 0; b < kLowBits; ++b) expand.push_back(b);
    for (unsigned j = 0; j < k.num_high; ++j) expand.push_back(k.high_targets[j]);
    std::sort(expand.begin(), expand.end());
    k.num_expand = static_cast<unsigned>(expand.size());
    std::copy(expand.begin(), expand.end(), k.expand_positions.begin());
    k.num_supergroups = s.size() >> expand.size();

    const unsigned t_total = kTile << k.num_high;
    const std::size_t shared = 2 * sizeof(FP) * t_total;  // re + im arrays
    dev_->launch("ApplyGateL_Kernel",
                 {static_cast<unsigned>(k.num_supergroups), kLBlockDim, shared,
                  true, stream_},
                 k);
  }

  void fill_args(GateArgs<FP>& a, const Gate& g, DeviceStateVector<FP>& s) {
    a.matrix = d_matrix_[slot_];
    a.amps = s.device_data();
    a.num_qubits = s.num_qubits();
    a.q = g.num_targets();
    std::copy(g.qubits.begin(), g.qubits.end(), a.targets.begin());
    a.ctrl_mask = 0;
    a.ctrl_value = 0;
    for (qubit_t c : g.controls) {
      a.ctrl_mask |= pow2(c);
      a.ctrl_value |= pow2(c);
    }
  }

  vgpu::Device* dev_;
  StateSpaceHIP<FP> space_;
  vgpu::Stream stream_;       // compute stream: gate kernels, in order
  vgpu::Stream copy_stream_;  // matrix uploads, overlapping the kernels
  cplx<FP>* d_matrix_[2] = {nullptr, nullptr};
  vgpu::Event ev_upload_[2];  // upload of slot b landed
  vgpu::Event ev_kernel_[2];  // kernel reading slot b finished
  unsigned slot_ = 0;         // staging buffer for the current gate
};

}  // namespace qhip::hipsim
