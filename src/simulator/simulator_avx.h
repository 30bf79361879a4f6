// AVX2+FMA vectorized CPU backend (qsim's simulator_avx analogue).
//
// The paper notes the CUDA backend "can be traced back to its AVX512
// implementation for CPU vector instructions" (§2.3): the CPU SIMD kernels
// are the ancestors of the GPU warp kernels. This backend is that ancestor
// for this reproduction: gate application with 256-bit complex SIMD.
//
// Layout: interleaved std::complex<float> (re, im pairs). A __m256 holds 4
// complex floats; complex multiplication uses the moveldup/movehdup +
// fmaddsub idiom. When every gate target is >= 2 (float) or >= 1 (double),
// the two low index bits (one for double) are untouched by the gate, so
// every gathered group member is a contiguous 4- (2-) complex run — the
// vector unit of the kernel. Lower targets fall back to the scalar path,
// the same high/low structural split the GPU backend makes at log2(32).
//
// This header is only compiled when __AVX2__ and __FMA__ are available;
// consumers are built with -mavx2 -mfma (see bench/ and tests/).
#pragma once

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "src/base/rng.h"
#include "src/base/threadpool.h"
#include "src/core/circuit.h"
#include "src/simulator/apply.h"
#include "src/statespace/statevector.h"

namespace qhip {

namespace avx_detail {

// 4 complex floats per __m256: (a.re + i a.im) * (b.re + i b.im) lane-wise.
inline __m256 cmul_ps(__m256 a, __m256 b) {
  const __m256 br = _mm256_moveldup_ps(b);   // [b.re, b.re, ...]
  const __m256 bi = _mm256_movehdup_ps(b);   // [b.im, b.im, ...]
  const __m256 aswap = _mm256_permute_ps(a, 0xB1);  // [a.im, a.re, ...]
  return _mm256_fmaddsub_ps(a, br, _mm256_mul_ps(aswap, bi));
}

// 2 complex doubles per __m256d.
inline __m256d cmul_pd(__m256d a, __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);
  const __m256d bi = _mm256_permute_pd(b, 0xF);  // [im, im, im, im]
  const __m256d aswap = _mm256_permute_pd(a, 0x5);
  return _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(aswap, bi));
}

// Broadcast one complex constant across the register.
inline __m256 broadcast_c(const cplx<float>& v) {
  return _mm256_castpd_ps(
      _mm256_set1_pd(*reinterpret_cast<const double*>(&v)));
}

inline __m256d broadcast_c(const cplx<double>& v) {
  return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(&v));
}

template <typename FP>
struct Simd;

template <>
struct Simd<float> {
  using reg = __m256;
  static constexpr unsigned kLaneBits = 2;  // 4 complex per register
  static reg load(const cplx<float>* p) {
    return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
  }
  static void store(cplx<float>* p, reg v) {
    _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
  }
  static reg zero() { return _mm256_setzero_ps(); }
  static reg cmul(reg a, reg b) { return cmul_ps(a, b); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
};

template <>
struct Simd<double> {
  using reg = __m256d;
  static constexpr unsigned kLaneBits = 1;  // 2 complex per register
  static reg load(const cplx<double>* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void store(cplx<double>* p, reg v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  static reg zero() { return _mm256_setzero_pd(); }
  static reg cmul(reg a, reg b) { return cmul_pd(a, b); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
};

}  // namespace avx_detail

// Vectorized apply for a normalized gate whose lowest target is >= the
// register lane width. Falls back to apply_gate_inplace otherwise.
template <typename FP>
void apply_gate_avx(const Gate& g, StateVector<FP>& state, ThreadPool& pool) {
  using S = avx_detail::Simd<FP>;
  using reg = typename S::reg;

  check(g.kind == GateKind::kUnitary && g.controls.empty(),
        "apply_gate_avx: normalized unitary gates only");
  const unsigned q = g.num_targets();
  check(std::is_sorted(g.qubits.begin(), g.qubits.end()),
        "apply_gate_avx: gate must be normalized");

  if (q > 6 || g.qubits.front() < S::kLaneBits ||
      state.num_qubits() < q + S::kLaneBits) {
    apply_gate_inplace(g, state, pool);  // scalar path for low targets
    return;
  }

  const std::vector<cplx<FP>> m = detail::matrix_as<FP>(g.matrix);
  const std::vector<index_t> member = scatter_masks(g.qubits);
  const std::vector<qubit_t> sorted = g.qubits;
  const unsigned d = 1u << q;

  // Broadcast the matrix entries once. (reg is boxed in a struct: vector
  // attributes on bare __m256 template arguments trip -Wignored-attributes.)
  struct RegBox {
    reg v;
  };
  std::vector<RegBox> mb(static_cast<std::size_t>(d) * d);
  for (unsigned r = 0; r < d; ++r) {
    for (unsigned c = 0; c < d; ++c) {
      mb[static_cast<std::size_t>(r) * d + c].v =
          avx_detail::broadcast_c(m[static_cast<std::size_t>(r) * d + c]);
    }
  }

  cplx<FP>* amps = state.data();
  const index_t outer = state.size() >> q;          // gate groups
  const index_t vec_outer = outer >> S::kLaneBits;  // register chunks

  pool.parallel_ranges(vec_outer, [&](unsigned, index_t b, index_t e) {
    std::array<RegBox, 64> tmp;
    for (index_t vo = b; vo < e; ++vo) {
      // The low kLaneBits of the outer index are the vector lanes: since
      // every target >= kLaneBits, expand_bits passes them through and
      // base..base+lanes-1 are contiguous amplitudes of distinct groups.
      const index_t base = expand_bits(vo << S::kLaneBits, sorted);
      for (unsigned k = 0; k < d; ++k) {
        tmp[k].v = S::load(amps + (base | member[k]));
      }
      for (unsigned r = 0; r < d; ++r) {
        reg acc = S::zero();
        const RegBox* row = mb.data() + static_cast<std::size_t>(r) * d;
        for (unsigned c = 0; c < d; ++c) {
          acc = S::add(acc, S::cmul(tmp[c].v, row[c].v));
        }
        S::store(amps + (base | member[r]), acc);
      }
    }
  });
}

// Drop-in CPU backend using the vectorized path.
template <typename FP>
class SimulatorAVX {
 public:
  using fp_type = FP;

  explicit SimulatorAVX(ThreadPool& pool = ThreadPool::shared()) : pool_(&pool) {}

  static constexpr const char* backend_name() { return "cpu-avx2"; }

  void apply_gate(const Gate& g, StateVector<FP>& state) {
    const Gate n = normalized(g.controls.empty() ? g : expand_controls(g));
    apply_gate_avx(n, state, *pool_);
  }

  void run(const Circuit& c, StateVector<FP>& state, std::uint64_t seed = 0,
           std::vector<index_t>* measurements = nullptr) {
    check(state.num_qubits() == c.num_qubits, "SimulatorAVX::run: qubit mismatch");
    std::uint64_t meas_idx = 0;
    for (const auto& g : c.gates) {
      if (g.is_measurement()) {
        const index_t outcome = statespace::measure(
            state, g.qubits, measurement_seed(seed, ++meas_idx), *pool_);
        if (measurements) measurements->push_back(outcome);
      } else {
        apply_gate(g, state);
      }
    }
  }

 private:
  ThreadPool* pool_;
};

}  // namespace qhip

#endif  // __AVX2__ && __FMA__
