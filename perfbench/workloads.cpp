#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/base/rng.h"
#include "src/base/timer.h"
#include "src/base/types.h"
#include "src/fusion/fuser.h"
#include "src/io/circuit_io.h"
#include "src/noise/channels.h"
#include "src/obs/observable.h"
#include "src/perfmodel/workload.h"
#include "src/rqc/rqc.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"
#include "src/simulator/reference.h"
#include "src/statespace/statevector.h"
#include "stats.h"

namespace perfbench {

using qhip::Circuit;
using qhip::Timer;
using qhip::engine::EngineOptions;
using qhip::engine::RequestKind;
using qhip::engine::SimRequest;
using qhip::engine::SimResult;
using qhip::engine::SimulationEngine;

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

namespace {

constexpr std::size_t kMaxErrors = 10;
// Every workload fuses at the paper's optimum (max_fused = 4).
constexpr unsigned kMaxFused = 4;

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void note_error(Phase& ph, std::string what) {
  if (ph.errors.size() < kMaxErrors) ph.errors.push_back(std::move(what));
}

// Process CPU time per request over consecutive windows of a phase, with
// the gauge sampled among the window's requests; the CPU time of the gauge's
// own threads is left out of the window.
class CpuWindows {
 public:
  CpuWindows(Phase& ph, HostGauge* gauge) : ph_(ph), gauge_(gauge) {}

  void sample_gauge() {
    if (gauge_ == nullptr) return;
    gauge_cpu_ += gauge_->sample();
    slowdown_sum_ += gauge_->samples().back();
    ++slowdowns_;
  }

  // Ends the window, which covered `requests` requests; the next starts now.
  void close(std::size_t requests) {
    const double now = process_cpu_seconds();
    if (requests > 0) {
      ph_.cpu_ms_per_req_windows.push_back((now - start_ - gauge_cpu_) * 1e3 /
                                           static_cast<double>(requests));
      if (gauge_ != nullptr) {
        ph_.slowdown_windows.push_back(slowdowns_ > 0 ? slowdown_sum_ / slowdowns_ : Phase::kNoSample);
      }
    }
    start_ = now;
    gauge_cpu_ = slowdown_sum_ = 0;
    slowdowns_ = 0;
  }

 private:
  Phase& ph_;
  HostGauge* gauge_;
  double start_ = process_cpu_seconds();
  double gauge_cpu_ = 0, slowdown_sum_ = 0;
  int slowdowns_ = 0;
};

// The engine's stage timings must partition (part of) the request's total:
// queue, fuse and run are disjoint intervals inside submit -> completion.
// Returns "" when they do, else the offending figures.
std::string check_stage_times(const SimResult& r) {
  if (r.queue_seconds + r.fuse_seconds + r.run_seconds <= r.total_seconds) return {};
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: queue %.6f + fuse %.6f + run %.6f s exceeds total %.6f s",
                qhip::engine::to_string(r.kind), r.queue_seconds, r.fuse_seconds,
                r.run_seconds, r.total_seconds);
  return buf;
}

// Returns "" when the stage timings of `s` partition its total, else why they
// do not; a violation fails the request. Trajectories alone are exempt and
// only warned about: the engine starts a trajectory batch's run timer before
// its normalize ("fuse") step, so that step is counted twice.
std::string stage_time_error(Phase& ph, Sample& s) {
  if (!s.ok) return {};
  std::string why = check_stage_times(s.res);
  s.stage_times_ok = why.empty();
  if (s.stage_times_ok || s.res.kind != RequestKind::kTrajectory) return why;
  if (ph.warnings.size() < kMaxErrors) ph.warnings.push_back(std::move(why));
  return {};
}

// Backend and fusion a result was computed with; results of one request
// are only comparable bit for bit when these agree ("auto" may re-plan).
std::string placement(const SimResult& r) {
  std::string out = r.backend_used;
  for (const char* k : {"planner/max_fused", "planner/window"}) {
    const auto it = r.counters.find(k);
    out += "/" + (it == r.counters.end() ? std::string("-") : std::to_string(it->second));
  }
  return out;
}

// FNV-1a over every output a result carries, bit for bit.
class PayloadHash {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001B3ull;
  }
  template <typename T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const auto& x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t payload_hash(const SimResult& r) {
  PayloadHash h;
  h.add_all(r.measurements);
  h.add_all(r.samples);
  h.add_all(r.amplitudes);
  h.add_all(r.state);
  h.add_all(r.distribution);
  h.add(r.expectation);
  h.add(r.expectation_stderr);
  h.add(r.trajectories_run);
  return h.value();
}

void drop_payload(SimResult& r) {
  r.samples = {};
  r.amplitudes = {};
  r.state = {};
  r.distribution = {};
  r.measurements = {};
}

bool samples_in_range(const SimResult& r, std::size_t n, unsigned qubits) {
  if (r.samples.size() != n) return false;
  for (auto s : r.samples) {
    if (s >= qhip::pow2(qubits)) return false;
  }
  return true;
}

// --- closed-loop RQC workloads ----------------------------------------------

// One client sends one request at a time through SimulationEngine::run, in
// cycles of four: three on the primary backend, one on the partitioned one.
class RqcWorkload : public Workload {
 public:
  RqcWorkload(Options opt, Circuit circuit, std::string primary,
              std::string partitioned, std::map<std::string, double> slo_ms)
      : opt_(std::move(opt)), circuit_(std::move(circuit)),
        specs_{primary, primary, primary, std::move(partitioned)},
        slo_ms_(std::move(slo_ms)) {
    qhip::Xoshiro256 rng(mix64(opt_.seed, 0xA11));
    for (int i = 0; i < kAmplitudes; ++i) {
      amp_idx_.push_back(rng() % qhip::pow2(circuit_.num_qubits));
    }
  }

  void setup(qhip::Tracer* tracer) override {
    EngineOptions eo;
    eo.tracer = tracer;
    eng_ = std::make_unique<SimulationEngine>(eo);
    // First request per backend: device construction, pools, fused cache.
    for (std::size_t pos = 0; pos < specs_.size(); ++pos) {
      if (pos > 0 && specs_[pos] == specs_[pos - 1]) continue;
      const SimResult res = eng_->run(request(pos, 1));
      if (!res.ok) throw std::runtime_error("warm-up failed on " + specs_[pos] + ": " + res.error);
    }
  }

  void teardown() override { eng_.reset(); }

  Phase measure(double seconds, SpanRecorder* spans, HostGauge* gauge) override {
    Phase ph;
    qhip::Xoshiro256 rng(mix64(opt_.seed, 0x5EED00 + phase_++));
    ph.before = eng_->metrics();
    const double cpu0 = process_cpu_seconds();
    CpuWindows windows(ph, gauge);  // each 4-request cycle is one window
    Timer wall;
    std::uint64_t seed = 0;
    for (std::size_t i = 0; i % 4 != 0 || wall.seconds() < seconds; ++i) {
      const std::size_t pos = i % 4;
      if (pos == 0 && i > 0) windows.close(4);
      windows.sample_gauge();
      // The partitioned run reuses the preceding primary run's seed so the
      // two can be compared output for output.
      if (pos != 3) seed = rng() >> 1 | 1;
      const SimRequest req = request(pos, seed);
      Sample s;
      s.kind = req.kind;
      s.spec = req.backend;
      const std::uint64_t t0 = Timer::now_micros();
      s.res = eng_->run(req);
      const std::uint64_t t1 = Timer::now_micros();
      s.latency_ms = static_cast<double>(t1 - t0) / 1e3;
      s.ok = s.res.ok;
      std::string why = check(pos, s.res);
      if (why.empty()) why = stage_time_error(ph, s);
      s.correct = why.empty();
      if (!s.correct) note_error(ph, s.spec + " request " + std::to_string(i) + ": " + why);
      if (spans != nullptr) {
        const std::uint64_t req_id = i + 1;
        const std::uint64_t root = spans->new_id();
        const std::uint64_t call =
            spans->add("engine.run", req_id, root, t0, t1);
        spans->link(s.res.request_id, call);
        const std::uint64_t t2 = Timer::now_micros();
        spans->add("check", req_id, root, t1, t2);
        spans->add("request", req_id, 0, t0, t2, root);
      }
      if (pos == 2) previous_ = s.res;
      drop_payload(s.res);
      ph.samples.push_back(std::move(s));
    }
    windows.close(4);
    ph.wall_s = wall.seconds();
    ph.cpu_s = process_cpu_seconds() - cpu0;
    ph.after = eng_->metrics();
    return ph;
  }

  double slo_ms(const std::string& spec) const override { return slo_ms_.at(spec); }

  std::map<std::string, double> fusion_metrics() const override {
    std::vector<double> ms;
    qhip::FusionResult fr;
    for (int k = 0; k < 5; ++k) {
      fr = qhip::fuse_circuit(circuit_, {kMaxFused, 4});
      ms.push_back(fr.stats.seconds * 1e3);
    }
    return {{"fusion.fuse_ms", median(ms)},
            {"fusion.gates_out", static_cast<double>(fr.stats.output_gates)},
            {"fusion.mean_width", fr.stats.mean_width()}};
  }

  std::map<std::string, std::string> params() const override {
    return {{"qubits", std::to_string(circuit_.num_qubits)},
            {"gates", std::to_string(circuit_.gates.size())},
            {"num_samples", std::to_string(kSamples)},
            {"amplitudes_checked", std::to_string(kAmplitudes)},
            {"max_fused", std::to_string(kMaxFused)},
            {"precision", "single"},
            {"backends", specs_[0] + " x3, " + specs_[3] + " x1"},
            {"loop", "closed, 1 client"},
            {"result_cache", "bypassed"},
            {"slo_ms", specs_[0] + " " + std::to_string(slo_ms_.at(specs_[0])) + ", " +
                           specs_[3] + " " + std::to_string(slo_ms_.at(specs_[3]))}};
  }

 protected:
  static constexpr std::size_t kSamples = 1000;
  static constexpr int kAmplitudes = 32;

  // Returns "" when `res` (request position `pos` of its cycle) is correct.
  virtual std::string check(std::size_t pos, const SimResult& res) const = 0;

  SimRequest request(std::size_t pos, std::uint64_t seed) const {
    SimRequest req;
    req.circuit = circuit_;
    req.backend = specs_[pos];
    req.precision = qhip::Precision::kSingle;
    req.fusion = {kMaxFused, 4};
    req.seed = seed;
    req.num_samples = kSamples;
    req.amplitude_indices = amp_idx_;
    req.bypass_result_cache = true;
    return req;
  }

  std::string check_common(const SimResult& res) const {
    if (!res.ok) return "failed: " + res.error;
    if (!samples_in_range(res, kSamples, circuit_.num_qubits)) return "bad samples";
    if (res.amplitudes.size() != amp_idx_.size()) return "missing amplitudes";
    return {};
  }

  Options opt_;
  Circuit circuit_;
  std::vector<std::string> specs_;  // backend per position of a 4-cycle
  // Latency limit per backend: twice the median per-run p90 latency of
  // that backend measured on a 4-core x86 host, so host drift keeps the share
  // near 1 while a 2x slowdown of either backend pulls it down.
  std::map<std::string, double> slo_ms_;
  std::vector<qhip::index_t> amp_idx_;
  std::unique_ptr<SimulationEngine> eng_;
  SimResult previous_;  // last primary result, for the partitioned compare
  std::uint64_t phase_ = 0;
};

class RqcGpu : public RqcWorkload {
 public:
  explicit RqcGpu(const Options& opt)
      : RqcWorkload(opt, make_circuit(opt.seed), "hip", "hip:2",
                    {{"hip", 850}, {"hip:2", 1400}}),
        ref_(circuit_.num_qubits) {
    // The oracle of the parity tests: reference_run over the same fused
    // circuit the engine executes.
    qhip::reference_run(qhip::fuse_circuit(circuit_, {kMaxFused, 4}).circuit, ref_);
  }

  double cpu_bytes_per_run() const override { return 0; }

 private:
  static Circuit make_circuit(std::uint64_t seed) {
    qhip::rqc::RqcOptions ro;
    ro.rows = 2;
    ro.cols = 7;
    ro.depth = 14;
    ro.seed = mix64(seed, 0xC1C);
    return qhip::rqc::generate_rqc(ro);
  }

  std::string check(std::size_t, const SimResult& res) const override {
    if (auto why = check_common(res); !why.empty()) return why;
    const double tol = 4 * qhip::state_tol<float>();
    for (std::size_t k = 0; k < amp_idx_.size(); ++k) {
      const auto& r = ref_[amp_idx_[k]];
      const double d = std::abs(res.amplitudes[k] - qhip::cplx64(r.real(), r.imag()));
      if (!(d < tol)) return "amplitude " + std::to_string(amp_idx_[k]) + " off the reference";
    }
    return {};
  }

  qhip::StateVector<float> ref_;
};

class RqcHost : public RqcWorkload {
 public:
  explicit RqcHost(const Options& opt)
      : RqcWorkload(opt, qhip::read_circuit_file(opt.root + "/circuits/circuit_q20"),
                    "cpu", "dist:2", {{"cpu", 1300}, {"dist:2", 2300}}) {}

  double cpu_bytes_per_run() const override {
    const auto fused = qhip::fuse_circuit(circuit_, {kMaxFused, 4}).circuit;
    return qhip::perfmodel::WorkloadStats::from_circuit(fused).total_bytes(
        sizeof(qhip::cplx<float>));
  }

 private:
  std::string check(std::size_t pos, const SimResult& res) const override {
    if (auto why = check_common(res); !why.empty()) return why;
    if (pos == 3 && (res.samples != previous_.samples ||
                     res.amplitudes != previous_.amplitudes)) {
      return "dist:2 output differs from cpu for the same seed";
    }
    return {};
  }
};

// --- open-loop serving mix ---------------------------------------------------

// What a request is, compact enough to keep for every arrival; rebuilt into
// an identical SimRequest for repeats and the in-process replay.
struct Desc {
  enum Kind : std::uint8_t { kFresh, kRepeat, kExpectation, kTrajectory };
  Kind kind = kFresh;
  std::uint32_t circuit = 0;
  std::uint64_t seed = 1;
  std::int64_t repeat_of = -1;  // arrival index repeated (kRepeat)
};

class ServeMix : public Workload {
 public:
  static constexpr unsigned kQubits = 10;
  static constexpr std::size_t kPool = 256;
  static constexpr double kZipfExponent = 1.0;
  static constexpr std::size_t kCircuitSamples = 64;
  static constexpr std::size_t kTrajectories = 4;
  static constexpr std::size_t kRepeatWindow = 128;  // recent arrivals repeated
  // 50% fresh circuits, 20% exact repeats, 15% expectations, 15% trajectories.
  inline static const std::vector<Desc::Kind> kMixBlock = {
      Desc::kFresh,       Desc::kFresh,       Desc::kFresh,      Desc::kFresh,
      Desc::kFresh,       Desc::kFresh,       Desc::kFresh,      Desc::kFresh,
      Desc::kFresh,       Desc::kFresh,       Desc::kRepeat,     Desc::kRepeat,
      Desc::kRepeat,      Desc::kRepeat,      Desc::kExpectation, Desc::kExpectation,
      Desc::kExpectation, Desc::kTrajectory,  Desc::kTrajectory, Desc::kTrajectory};
  static constexpr unsigned kConnections = 2;
  // Arrivals per second: about 60% of the capacity the mix keeps on a 4-core
  // x86 host through its slow periods.
  static constexpr double kRate = 60;
  static constexpr double kSloMs = 50;
  // Arrivals per CPU window (2.5 s at kRate).
  static constexpr std::size_t kCpuWindow = 150;
  // The gauge is sampled in a gap between arrivals at least kGaugeGap long,
  // kGaugeLead before the next arrival is due and only when no request is
  // in flight then, so it neither shares the host with a request nor delays
  // a send (a sample takes about 20 ms, and the lead leaves 25 ms for the
  // host to pause it; at kRate one gap in 35 qualifies).
  static constexpr std::chrono::milliseconds kGaugeGap{60}, kGaugeLead{45};
  // One arrival in kReplayOneIn (seeded) is replayed in-process afterwards.
  static constexpr std::size_t kReplayOneIn = 32;
  static constexpr std::size_t kMaxReplays = 200;

  explicit ServeMix(const Options& opt) : opt_(opt) {
    for (std::size_t k = 0; k < kPool; ++k) {
      qhip::rqc::RqcOptions ro;
      ro.rows = 2;
      ro.cols = 5;
      ro.depth = 8;
      ro.seed = mix64(opt_.seed, 0x9001 + k);
      pool_.push_back(qhip::rqc::generate_rqc(ro));
    }
    double total = 0;
    for (std::size_t r = 1; r <= kPool; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (auto& c : zipf_cdf_) c /= total;
    // Which pool circuit holds each popularity rank (seeded shuffle).
    rank_.resize(kPool);
    for (std::size_t k = 0; k < kPool; ++k) rank_[k] = static_cast<std::uint32_t>(k);
    qhip::Xoshiro256 rng(mix64(opt_.seed, 0x2A2));
    for (std::size_t k = kPool - 1; k > 0; --k) std::swap(rank_[k], rank_[rng() % (k + 1)]);
    observable_ = qhip::obs::transverse_field_ising(kQubits, 1.0, 0.5);
  }

  void setup(qhip::Tracer* tracer) override {
    EngineOptions eo;
    eo.num_workers = 2;
    eo.tracer = tracer;
    eng_ = std::make_unique<SimulationEngine>(eo);
    qhip::serve::ServerOptions so;
    so.tracer = tracer != nullptr ? eng_->trace_sink() : nullptr;
    server_ = std::make_unique<qhip::serve::Server>(*eng_, so);
    for (unsigned c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<qhip::serve::Client>("127.0.0.1", server_->port()));
    }
    // First request per backend "auto" may choose, then enough auto runs for
    // the planner's calibration to settle, then one of each other kind.
    auto warm = [&](SimRequest req) {
      const SimResult res = clients_[0]->call(req);
      if (!res.ok) throw std::runtime_error("warm-up failed: " + res.error);
    };
    for (const char* spec : {"cpu", "hip", "a100"}) {
      for (std::uint32_t k = 0; k < 2; ++k) {
        SimRequest req = build({Desc::kFresh, k, k + 1, -1});
        req.backend = spec;
        req.fusion = {kMaxFused, 4};
        warm(req);
      }
    }
    for (std::uint32_t k = 0; k < 8; ++k) warm(build({Desc::kFresh, k, 100 + k, -1}));
    for (std::uint32_t k = 0; k < 2; ++k) {
      warm(build({Desc::kExpectation, k, 200 + k, -1}));
      warm(build({Desc::kTrajectory, k, 300 + k, -1}));
    }
    // Plan every pool circuit once. The engine's plan cache outlives a
    // circuit's stay in the bounded result and fused caches, so a long-lived
    // server plans each circuit once; without this the measured phase would
    // be dominated by a transient of first plans that shrinks with run length.
    std::vector<std::future<SimResult>> plans;
    for (std::uint32_t k = 0; k < kPool; ++k) {
      SimRequest req = build({Desc::kFresh, k, 400 + k, -1});
      req.num_samples = 0;
      plans.push_back(eng_->submit(std::move(req)));
    }
    for (auto& f : plans) {
      const SimResult res = f.get();
      if (!res.ok) throw std::runtime_error("warm-up failed: " + res.error);
    }
  }

  void teardown() override {
    clients_.clear();
    if (server_) server_->shutdown();
    server_.reset();
    eng_.reset();
  }

  Phase measure(double seconds, SpanRecorder* spans, HostGauge* gauge) override;

  // The open loop samples the gauge on its sender thread alone.
  unsigned gauge_threads() const override { return 1; }
  double slo_ms(const std::string&) const override { return kSloMs; }

  std::map<std::string, double> fusion_metrics() const override {
    std::vector<double> ms, gates, width;
    for (std::size_t k = 0; k < kPool; k += 8) {
      const auto fr = qhip::fuse_circuit(pool_[k], {kMaxFused, 4});
      ms.push_back(fr.stats.seconds * 1e3);
      gates.push_back(static_cast<double>(fr.stats.output_gates));
      width.push_back(fr.stats.mean_width());
    }
    return {{"fusion.fuse_ms", median(ms)},
            {"fusion.gates_out", median(gates)},
            {"fusion.mean_width", mean(width)}};
  }

  double cpu_bytes_per_run() const override { return 0; }

  std::map<std::string, std::string> params() const override {
    return {{"qubits", std::to_string(kQubits)},
            {"pool", std::to_string(kPool)},
            {"zipf_exponent", std::to_string(kZipfExponent)},
            {"rate_rps", std::to_string(kRate)},
            {"connections", std::to_string(kConnections)},
            {"engine_workers", "2"},
            {"mix", "50% circuit auto fresh seed, 20% exact repeat, "
                    "15% expectation auto, 15% trajectory cpu x4"},
            {"loop", "open, Poisson arrivals"},
            {"slo_ms", std::to_string(kSloMs)}};
  }

 private:
  SimRequest build(const Desc& d) const {
    SimRequest req;
    req.circuit = pool_[d.circuit];
    req.precision = qhip::Precision::kSingle;
    req.fusion = {kMaxFused, 4};
    req.seed = d.seed;
    switch (d.kind) {
      case Desc::kExpectation:
        req.kind = RequestKind::kExpectation;
        req.backend = spec_of(d);
        req.observable = observable_;
        break;
      case Desc::kTrajectory:
        req.kind = RequestKind::kTrajectory;
        req.backend = spec_of(d);
        req.noise = qhip::noise::NoiseModel{qhip::noise::depolarizing(0.01)};
        req.num_trajectories = kTrajectories;
        break;
      default:
        req.backend = spec_of(d);
        req.num_samples = kCircuitSamples;
        break;
    }
    return req;
  }

  static std::string spec_of(const Desc& d) {
    return d.kind == Desc::kTrajectory ? "cpu" : "auto";
  }

  std::uint32_t draw_circuit(qhip::Xoshiro256& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    const auto r = static_cast<std::size_t>(it - zipf_cdf_.begin());
    return rank_[std::min(r, kPool - 1)];
  }

  // Returns "" when the response is correct for its request.
  std::string check(const SimResult& res) const {
    if (!res.ok) return "failed: " + res.error;
    switch (res.kind) {
      case RequestKind::kCircuit:
        if (!samples_in_range(res, kCircuitSamples, kQubits)) return "bad samples";
        break;
      case RequestKind::kExpectation: {
        double bound = 0;
        for (const auto& s : observable_.strings) bound += std::abs(s.coefficient);
        const double e = res.expectation.real();
        if (!std::isfinite(e) || std::abs(e) > bound * (1 + 1e-9) ||
            std::abs(res.expectation.imag()) > 1e-6 * bound) {
          return "expectation out of range";
        }
        break;
      }
      case RequestKind::kTrajectory: {
        if (res.trajectories_run != kTrajectories ||
            res.distribution.size() != qhip::pow2(kQubits)) {
          return "trajectory result incomplete";
        }
        double total = 0;
        for (double p : res.distribution) {
          if (!(p >= 0)) return "negative probability";
          total += p;
        }
        if (std::abs(total - 1) > 1e-5) return "distribution does not sum to 1";
        break;
      }
    }
    return {};
  }

  Options opt_;
  std::vector<Circuit> pool_;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint32_t> rank_;
  qhip::obs::Observable observable_;
  std::unique_ptr<SimulationEngine> eng_;
  std::unique_ptr<qhip::serve::Server> server_;
  std::vector<std::unique_ptr<qhip::serve::Client>> clients_;
  std::uint64_t phase_ = 0;
};

Phase ServeMix::measure(double seconds, SpanRecorder* spans, HostGauge* gauge) {
  using Clock = std::chrono::steady_clock;
  Phase ph;
  qhip::Xoshiro256 rng(mix64(opt_.seed, 0x5EED00 + phase_++));

  struct Arrival {
    Desc desc;
    Clock::time_point due, sent, encoded;
    double encode_us = 0;
    std::size_t request_bytes = 0;
  };
  struct Answer {
    bool done = false;
    std::uint64_t hash = 0;
    Sample sample;
  };
  std::mutex mu;  // guards arrivals, answers and `answered`
  std::vector<Arrival> arrivals;
  std::vector<Answer> answers;
  std::size_t answered = 0;

  auto us_since = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  auto micros = [](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t.time_since_epoch()).count());
  };

  auto receive = [&](qhip::serve::Client& client) {
    try {
      std::string line;
      while (client.recv_line(&line)) {
        const auto t_recv = Clock::now();
        std::string id;
        SimResult res = qhip::serve::decode_result(line, &id);
        const auto t_decoded = Clock::now();
        const std::size_t i = std::stoull(id);
        Arrival a;
        {
          std::lock_guard lk(mu);
          a = arrivals.at(i);
        }
        Sample s;
        s.kind = res.kind;
        s.spec = spec_of(a.desc);
        s.ok = res.ok;
        s.latency_ms = us_since(a.due, t_decoded) / 1e3;
        s.lateness_ms = us_since(a.due, a.sent) / 1e3;
        s.wire_ms = us_since(a.encoded, t_recv) / 1e3 - res.total_seconds * 1e3;
        s.codec_us = a.encode_us + us_since(t_recv, t_decoded);
        s.request_bytes = a.request_bytes;
        s.response_bytes = line.size() + 1;
        std::string why = check(res);
        const std::uint64_t hash = payload_hash(res);
        const std::uint64_t corr = res.request_id;
        drop_payload(res);
        s.res = std::move(res);
        const auto t_checked = Clock::now();
        if (spans != nullptr) {
          const std::uint64_t req_id = i + 1;
          const std::uint64_t root = spans->new_id();
          spans->add("loadgen.wait", req_id, root, micros(a.due), micros(a.sent));
          spans->add("codec.encode", req_id, root, micros(a.sent), micros(a.encoded));
          const std::uint64_t rt =
              spans->add("client.roundtrip", req_id, root, micros(a.encoded), micros(t_recv));
          spans->link(corr, rt);
          spans->add("codec.decode", req_id, root, micros(t_recv), micros(t_decoded));
          spans->add("check", req_id, root, micros(t_decoded), micros(t_checked));
          spans->add("request", req_id, 0, micros(a.due), micros(t_checked), root);
        }
        std::lock_guard lk(mu);
        if (why.empty()) why = stage_time_error(ph, s);
        s.correct = why.empty();
        if (!s.correct) note_error(ph, "request " + id + ": " + why);
        answers.at(i) = {true, hash, std::move(s)};
        ++answered;
      }
    } catch (const std::exception& e) {
      std::lock_guard lk(mu);
      note_error(ph, std::string("receiver: ") + e.what());
    }
  };

  ph.before = eng_->metrics();
  const double cpu0 = process_cpu_seconds();
  std::vector<std::thread> receivers;
  for (auto& c : clients_) receivers.emplace_back(receive, std::ref(*c));

  const Clock::time_point start = Clock::now();
  std::vector<std::size_t> recent;  // ring of recent non-repeat arrivals
  // Kinds come in shuffled blocks that hold the mix exactly, so every run
  // carries the same share of each kind.
  std::vector<Desc::Kind> block;
  // A Poisson process conditioned on its count: rate x seconds arrivals at
  // sorted uniform times, so every run offers exactly the same load.
  std::vector<double> due_s(static_cast<std::size_t>(std::lround(kRate * seconds)));
  for (auto& t : due_s) t = rng.uniform() * seconds;
  std::sort(due_s.begin(), due_s.end());
  arrivals.reserve(due_s.size());
  answers.reserve(due_s.size());
  CpuWindows windows(ph, gauge);
  auto idle = [&] {
    std::lock_guard lk(mu);
    return answered == arrivals.size();
  };
  // A dead connection ends the schedule; what was not answered counts as
  // failed below.
  try {
    for (std::size_t i = 0; i < due_s.size(); ++i) {
      if (i > 0 && i % kCpuWindow == 0) windows.close(kCpuWindow);
      if (i % kMixBlock.size() == 0) {
        block = kMixBlock;
        for (std::size_t k = block.size() - 1; k > 0; --k) {
          std::swap(block[k], block[rng() % (k + 1)]);
        }
      }
      Desc d;
      d.kind = block[i % block.size()];
      d.seed = rng() >> 1 | 1;
      d.circuit = draw_circuit(rng);
      if (d.kind == Desc::kRepeat) {
        if (recent.empty()) {
          d.kind = Desc::kFresh;
        } else {
          const std::size_t k = recent[rng() % recent.size()];
          {
            std::lock_guard lk(mu);
            d = arrivals[k].desc;
          }
          d.repeat_of = static_cast<std::int64_t>(k);
        }
      }
      if (d.repeat_of < 0) {
        if (recent.size() < kRepeatWindow) {
          recent.push_back(i);
        } else {
          recent[i % kRepeatWindow] = i;
        }
      }
      Arrival a;
      a.desc = d;
      a.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[i]));
      if (gauge != nullptr && a.due - Clock::now() >= kGaugeGap) {
        std::this_thread::sleep_until(a.due - kGaugeLead);
        if (idle()) windows.sample_gauge();
      }
      std::this_thread::sleep_until(a.due);
      a.sent = Clock::now();
      const SimRequest req = build(d);
      const std::string line = qhip::serve::encode_request(req, std::to_string(i));
      a.encoded = Clock::now();
      a.encode_us = us_since(a.sent, a.encoded);
      a.request_bytes = line.size() + 1;
      {
        std::lock_guard lk(mu);
        arrivals.push_back(a);
        answers.emplace_back();
      }
      clients_[i % clients_.size()]->send_line(line);
    }
  } catch (const std::exception& e) {
    std::lock_guard lk(mu);
    note_error(ph, std::string("sender: ") + e.what());
  }
  for (auto& c : clients_) c->finish_writes();
  for (auto& th : receivers) th.join();
  const std::size_t sent = arrivals.size();
  windows.close(sent == 0 ? 0 : (sent - 1) % kCpuWindow + 1);
  ph.cpu_s = process_cpu_seconds() - cpu0;
  ph.after = eng_->metrics();
  clients_.clear();  // the server closed these connections

  Clock::time_point last = start;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Answer& ans = answers[i];
    if (!ans.done) {
      note_error(ph, "request " + std::to_string(i) + " never answered");
      Sample s;
      s.spec = spec_of(arrivals[i].desc);
      ans.sample = std::move(s);
      continue;
    }
    last = std::max(last, arrivals[i].due +
                              std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      ans.sample.latency_ms)));
    // An exact repeat placed like the original must return exactly what the
    // original returned.
    const std::int64_t orig = arrivals[i].desc.repeat_of;
    if (orig >= 0 && ans.sample.correct && answers[orig].done &&
        answers[orig].sample.ok &&
        placement(answers[orig].sample.res) == placement(ans.sample.res) &&
        answers[orig].hash != ans.hash) {
      ans.sample.correct = false;
      note_error(ph, "repeat " + std::to_string(i) + " differs from request " +
                         std::to_string(orig));
    }
  }
  ph.wall_s = std::chrono::duration<double>(last - start).count();

  // Replay a seeded subset in-process on the same backend and fusion the
  // server used: the wire must have carried the engine's result bit for bit.
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < arrivals.size() && replayed < kMaxReplays; ++i) {
    Answer& ans = answers[i];
    if (!ans.done || !ans.sample.correct || mix64(opt_.seed, i) % kReplayOneIn != 0) continue;
    ++replayed;
    SimRequest req = build(arrivals[i].desc);
    const SimResult& wire = ans.sample.res;
    if (req.backend == "auto") {
      req.backend = wire.backend_used;
      const auto f = wire.counters.find("planner/max_fused");
      const auto w = wire.counters.find("planner/window");
      if (f != wire.counters.end() && w != wire.counters.end()) {
        req.fusion = {static_cast<unsigned>(f->second), static_cast<unsigned>(w->second)};
      }
    }
    req.bypass_result_cache = true;
    const SimResult local = eng_->run(req);
    if (!local.ok || payload_hash(local) != ans.hash) {
      ans.sample.correct = false;
      note_error(ph, "replay of request " + std::to_string(i) + " differs from the wire result");
    }
  }

  std::vector<double> lateness;
  for (auto& ans : answers) {
    lateness.push_back(ans.sample.lateness_ms);
    ph.samples.push_back(std::move(ans.sample));
  }
  // The generator has fallen behind when one send in ten is late by more
  // than the mean gap between arrivals.
  ph.lateness_p90_ms = percentile(lateness, 90);
  ph.generator_kept_up = ph.lateness_p90_ms <= 1e3 / kRate;
  return ph;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "rqc_gpu") return std::make_unique<RqcGpu>(opt);
  if (opt.workload == "rqc_host") return std::make_unique<RqcHost>(opt);
  if (opt.workload == "serve_mix") return std::make_unique<ServeMix>(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload +
                              "' (expected rqc_gpu | rqc_host | serve_mix)");
}

}  // namespace perfbench
