// The three perfbench workloads (see BENCHMARK.json for why each exists).
//
//   rqc_gpu    closed loop, one client: a seeded 14-qubit RQC with 1000
//              samples on the virtual MI250X, 3:1 "hip" : "hip:2".
//   rqc_host   closed loop, one client: circuits/circuit_q20 with 1000
//              samples, 3:1 "cpu" : "dist:2".
//   serve_mix  open loop over loopback TCP to an in-process serve::Server:
//              Poisson arrivals, Zipf-drawn 10-qubit RQCs, a mix of fresh
//              circuits, exact repeats, expectations and trajectories.
//
// Every workload drives the program only through its public API and checks
// every output it receives; a mismatch marks the request failed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gauge.h"
#include "spans.h"
#include "src/engine/engine.h"
#include "src/prof/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  // checkout root (circuits/ lives there)
};

// One request as the benchmark saw it.
struct Sample {
  qhip::engine::RequestKind kind = qhip::engine::RequestKind::kCircuit;
  std::string spec;        // backend named in the request
  bool ok = false;         // answered with ok=true
  bool correct = false;    // ok and passed every output check
  double latency_ms = 0;   // client-observed; serve_mix: from the due time
  double lateness_ms = 0;  // serve_mix: send time - due time
  double wire_ms = 0;      // serve_mix: round trip - SimResult::total_seconds
  double codec_us = 0;     // serve_mix: encode_request + decode_result
  std::size_t request_bytes = 0, response_bytes = 0;
  // queue + fuse + run <= total held for this result (see stage_time_error)
  bool stage_times_ok = true;
  qhip::engine::SimResult res;  // payload vectors dropped after checking
};

struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0;  // first send to last answer
  double cpu_s = 0;   // process user+sys time over the phase
  // Process CPU per request in consecutive windows of the phase (a 4-request
  // cycle closed loop, 150 arrivals open loop), the gauge's own CPU time
  // left out; cpu_ms_per_req is the median, so a transient host slowdown in
  // a few windows does not move it.
  std::vector<double> cpu_ms_per_req_windows;
  // Mean host slowdown (HostGauge::sample) measured among each window's
  // requests, kNoSample for a window without a sample; empty when the phase
  // ran without a gauge.
  std::vector<double> slowdown_windows;
  static constexpr double kNoSample = -1;
  qhip::engine::EngineMetrics before, after;
  bool generator_kept_up = true;  // open loop only
  double lateness_p90_ms = 0;     // open loop only
  std::vector<std::string> errors;    // first few check failures
  std::vector<std::string> warnings;  // first few exempt stage-timing violations
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Engine (and server) construction plus warm-up: the first request per
  // backend and, where "auto" is used, planner calibration. `tracer`, when
  // non-null, is attached to the engine (and server).
  virtual void setup(qhip::Tracer* tracer) = 0;
  virtual void teardown() = 0;
  // Runs the workload for `seconds`, then checks what came back. `spans`,
  // when non-null, receives one span per public call. `gauge`, when
  // non-null, is sampled between requests while none is in flight.
  virtual Phase measure(double seconds, SpanRecorder* spans, HostGauge* gauge) = 0;
  // Threads the host gauge runs on (HostGauge's constructor argument).
  virtual unsigned gauge_threads() const { return 0; }
  // Latency limit behind slo_met_share for a request on backend `spec`.
  virtual double slo_ms(const std::string& spec) const = 0;
  // Workload parameters recorded in the provenance.
  virtual std::map<std::string, std::string> params() const = 0;
  // fusion.* metrics from calling fuse_circuit directly on the inputs.
  virtual std::map<std::string, double> fusion_metrics() const = 0;
  // Bytes streamed per cpu run (perfmodel::WorkloadStats), 0 when the
  // workload has no single cpu circuit.
  virtual double cpu_bytes_per_run() const = 0;
};

std::unique_ptr<Workload> make_workload(const Options& opt);

// Process user+sys CPU seconds so far.
double process_cpu_seconds();

}  // namespace perfbench
