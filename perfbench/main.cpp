// perfbench: the repository benchmark (driven by perfbench/run.py).
//
//   perfbench --workload rqc_gpu|rqc_host|serve_mix --seed N --seconds S
//             --trace 0|1 [--root DIR] [--out-dir DIR] [--commit ID]
//
// --trace 0 sets up the workload five times (setup_s is the median of the
// process CPU seconds each set-up takes), runs it for S seconds untraced and
// reports the end-to-end metrics; both are divided by the host slowdown
// gauge.h measures among the requests of the run. --trace 1
// runs it S/2 seconds untraced, then S/2 seconds with the engine Tracer and
// the benchmark's own spans attached, and reports the per-layer metrics plus
// the tracing overhead between the two halves. Every output is checked; the
// last stdout line is the JSON result, and the exit code is non-zero when
// any check failed.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gauge.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

std::string strings_json(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> latencies(const Phase& ph) {
  std::vector<double> v;
  for (const auto& s : ph.samples) {
    if (s.ok) v.push_back(s.latency_ms);
  }
  return v;
}

std::size_t count_correct(const Phase& ph) {
  std::size_t n = 0;
  for (const auto& s : ph.samples) n += s.correct ? 1 : 0;
  return n;
}

std::size_t count_stage_time_violations(const Phase& ph) {
  std::size_t n = 0;
  for (const auto& s : ph.samples) n += s.stage_times_ok ? 0 : 1;
  return n;
}

// Share of requests answered correctly within the workload's latency limit.
double slo_met_share(const Workload& w, const Phase& ph) {
  std::size_t within = 0;
  for (const auto& s : ph.samples) {
    within += s.correct && s.latency_ms <= w.slo_ms(s.spec) ? 1 : 0;
  }
  return share(within, ph.samples.size());
}

// Each CPU time is divided by the host slowdown measured with it, so it
// reads as CPU time on the gauge's reference host; a time without a
// slowdown is left out.
std::vector<double> divided(const std::vector<double>& v, const std::vector<double>& by) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size() && i < by.size(); ++i) {
    if (by[i] > 0) out.push_back(v[i] / by[i]);
  }
  return out;
}

// The end-to-end metrics that repeat across runs on a shared host. Wall-clock
// throughput, latency, the share of requests within their latency limit and
// peak RSS swing by 15-80% between runs there, so they are reported with the
// per-layer metrics instead (see CHANGES.md).
// Set-up is divided by the median slowdown of the measured phase, which has
// many more samples than the moments around each set-up, whose readings
// follow the teardown before them as much as the host.
Metrics end_to_end(const Phase& ph, double setup_cpu_s) {
  std::vector<double> slowdowns;
  for (double s : ph.slowdown_windows) {
    if (s > 0) slowdowns.push_back(s);
  }
  return {
      {"setup_s", {setup_cpu_s / median(slowdowns), "s"}},
      {"cpu_ms_per_req",
       {median(divided(ph.cpu_ms_per_req_windows, ph.slowdown_windows)), "ms"}},
  };
}

// User-visible figures of the untraced half of a --trace 1 run;
// `peak_rss` was read at its end, before any tracing began. The host
// slowdown, sampled before and after that half, and its unadjusted CPU time
// show what the end-to-end adjustment does.
Metrics unbounded_end_to_end(const Workload& w, const Phase& ph, double peak_rss,
                             const HostGauge& gauge) {
  const auto lat = latencies(ph);
  return {
      {"throughput_rps", {static_cast<double>(count_correct(ph)) / ph.wall_s, "1/s"}},
      {"latency_p50_ms", {median(lat), "ms"}},
      {"latency_p90_ms", {percentile(lat, 90), "ms"}},
      {"slo_met_share", {slo_met_share(w, ph), "share"}},
      {"peak_rss_mb", {peak_rss, "MB"}},
      {"host.slowdown", {median(gauge.samples()), "ratio"}},
      {"host.cpu_ms_per_req_unadjusted", {median(ph.cpu_ms_per_req_windows), "ms"}},
  };
}

// Per-layer metrics of the traced half (see BENCHMARK.json for the
// end-to-end metric and workload each one should move).
Metrics per_layer(const Workload& w, const Phase& untraced, const Phase& traced,
                  const qhip::Tracer& tracer, const SpanRecorder& spans) {
  using qhip::engine::RequestKind;
  Metrics m;
  const auto& samples = traced.samples;
  const double n = static_cast<double>(samples.size());

  // serve
  std::vector<double> wire, codec, late;
  double req_bytes = 0, resp_bytes = 0;
  // engine
  std::vector<double> queue, sample_ms, cpu_apply_ms, pred_over_obs, traj, expect;
  std::map<std::string, std::vector<double>> run_ms;
  std::size_t result_hits = 0;
  // dist / multi-GCD counters, averaged over the runs that carry them
  std::map<std::string, std::vector<double>> part;
  for (const auto& s : samples) {
    late.push_back(s.lateness_ms);
    if (!s.ok) continue;
    const auto& r = s.res;
    if (s.request_bytes > 0) {
      wire.push_back(s.wire_ms);
      codec.push_back(s.codec_us);
    }
    req_bytes += static_cast<double>(s.request_bytes);
    resp_bytes += static_cast<double>(s.response_bytes);
    queue.push_back(r.queue_seconds * 1e3);
    result_hits += r.result_cache_hit ? 1 : 0;
    if (r.result_cache_hit) continue;
    if (r.kind == RequestKind::kTrajectory) traj.push_back(r.run_seconds * 1e3);
    if (r.kind == RequestKind::kExpectation) expect.push_back(r.run_seconds * 1e3);
    if (r.kind != RequestKind::kCircuit) continue;
    run_ms[r.backend_used].push_back(r.run_seconds * 1e3);
    if (r.backend_used == "cpu") cpu_apply_ms.push_back((r.run_seconds - r.sample_seconds) * 1e3);
    if (r.sample_seconds > 0) sample_ms.push_back(r.sample_seconds * 1e3);
    if (const auto p = r.counters.find("planner/predicted_seconds"); p != r.counters.end()) {
      const double observed = r.run_seconds - r.sample_seconds;
      if (observed > 0) pred_over_obs.push_back(p->second / observed);
    }
    auto counter = [&](const char* key) {
      const auto it = r.counters.find(key);
      return it == r.counters.end() ? 0.0 : it->second;
    };
    if (r.backend_used == "dist:2") {
      part["dist.slot_swaps"].push_back(counter("slot_swaps"));
      part["dist.peer_bytes"].push_back(counter("peer_bytes"));
      part["dist.exchange_ms"].push_back(counter("exchange_ns") / 1e6);
    } else if (r.backend_used == "hip:2") {
      part["multigcd.slot_swaps"].push_back(counter("slot_swaps"));
      part["multigcd.peer_bytes"].push_back(counter("peer_bytes"));
    }
  }
  m["serve.wire_ms.p50"] = {median(wire), "ms"};
  m["serve.codec_us.p50"] = {median(codec), "us"};
  m["serve.request_bytes"] = {req_bytes / n, "bytes"};
  m["serve.response_bytes"] = {resp_bytes / n, "bytes"};
  m["loadgen.lateness_p90_ms"] = {percentile(late, 90), "ms"};

  m["engine.queue_ms.p50"] = {median(queue), "ms"};
  m["engine.queue_ms.p90"] = {percentile(queue, 90), "ms"};
  for (const auto& [spec, label] : std::map<std::string, std::string>{
           {"cpu", "cpu"}, {"hip", "hip"}, {"hip:2", "hip2"}, {"dist:2", "dist2"}}) {
    m["engine.run_ms." + label + ".p50"] = {median(run_ms[spec]), "ms"};
  }
  m["engine.sample_ms.p50"] = {median(sample_ms), "ms"};
  m["engine.result_cache_hit_ratio"] = {share(result_hits, samples.size()), "ratio"};
  const auto& b = traced.before;
  const auto& a = traced.after;
  const auto fused_hits = a.fused_cache.hits - b.fused_cache.hits;
  const auto fused_all = fused_hits + a.fused_cache.misses - b.fused_cache.misses;
  m["engine.fused_cache_hit_ratio"] = {share(fused_hits, fused_all), "ratio"};
  const auto pool_hits = a.pool_hits - b.pool_hits;
  const auto pool_all = pool_hits + a.pool_misses - b.pool_misses;
  m["engine.pool_hit_ratio"] = {share(pool_hits, pool_all), "ratio"};
  m["engine.rejected"] = {static_cast<double>(a.rejected - b.rejected), "count"};
  m["engine.retries"] = {static_cast<double>(a.retries - b.retries), "count"};
  m["engine.stage_time_violations"] = {
      static_cast<double>(count_stage_time_violations(traced)), "count"};

  // planner
  const auto decisions = a.planner_decisions - b.planner_decisions;
  for (const char* spec : {"cpu", "hip", "a100"}) {
    const auto chosen = [&](const qhip::engine::EngineMetrics& em) {
      const auto it = em.planner_chosen.find(spec);
      return it == em.planner_chosen.end() ? std::uint64_t{0} : it->second;
    };
    m[std::string("planner.chosen_share.") + spec] = {
        share(chosen(a) - chosen(b), decisions), "share"};
  }
  m["planner.predicted_over_observed"] = {median(pred_over_obs), "ratio"};

  // fusion, simulator
  static const std::map<std::string, std::string> kFusionUnits = {
      {"fusion.fuse_ms", "ms"}, {"fusion.gates_out", "count"}, {"fusion.mean_width", "qubits"}};
  for (const auto& [name, value] : w.fusion_metrics()) m[name] = {value, kFusionUnits.at(name)};
  // Computed, not measured: the perfmodel's bytes per run over the cpu
  // backend's gate-application time (run minus sampling).
  const double cpu_apply_s = median(cpu_apply_ms) / 1e3;
  m["cpu.computed_gbytes_per_s"] = {
      cpu_apply_s > 0 ? w.cpu_bytes_per_run() / cpu_apply_s / 1e9 : 0, "GB/s"};

  // vgpu / hipsim kernels and copies from Tracer::summary(), per request
  std::map<std::string, qhip::TraceSummaryRow> rows;
  double memcpy_us = 0, memcpy_bytes = 0;
  for (const auto& row : tracer.summary()) {
    rows[row.name] = row;
    if (row.name.rfind("hipMemcpy", 0) == 0) {
      memcpy_us += static_cast<double>(row.total_us);
      memcpy_bytes += static_cast<double>(row.total_bytes);
    }
  }
  for (const char* k : {"ApplyGateH", "ApplyGateL"}) {
    const auto& row = rows[std::string(k) + "_Kernel"];
    m[std::string("vgpu.kernel_ms.") + k] = {static_cast<double>(row.total_us) / 1e3 / n, "ms"};
    m[std::string("vgpu.launches.") + k] = {static_cast<double>(row.count) / n, "count"};
  }
  m["vgpu.memcpy_ms"] = {memcpy_us / 1e3 / n, "ms"};
  m["vgpu.memcpy_bytes"] = {memcpy_bytes / n, "bytes"};

  // dist / multi-GCD
  for (const auto& [name, unit] : std::map<std::string, std::string>{
           {"dist.slot_swaps", "count"}, {"dist.peer_bytes", "bytes"},
           {"dist.exchange_ms", "ms"}, {"multigcd.slot_swaps", "count"},
           {"multigcd.peer_bytes", "bytes"}}) {
    m[name] = {mean(part[name]), unit};
  }

  // noise / obs
  m["noise.trajectory_ms.p50"] = {median(traj), "ms"};
  m["obs.expectation_ms.p50"] = {median(expect), "ms"};

  // harness
  const double untraced_cpu = untraced.cpu_s / static_cast<double>(untraced.samples.size());
  const double traced_cpu = traced.cpu_s / n;
  m["trace.overhead_share"] = {traced_cpu / untraced_cpu - 1, "share"};
  const std::size_t attempted = untraced.samples.size() + samples.size();
  const std::size_t failed = attempted - count_correct(untraced) - count_correct(traced);
  m["error_share"] = {share(failed, attempted), "share"};

  // Self time per layer, per traced request.
  const auto self = spans.layer_self_ms(tracer.events());
  for (const char* layer : {"harness", "codec", "wire", "serve", "engine", "queue",
                            "planner", "fusion", "backend", "simulator", "vgpu", "noise"}) {
    const auto it = self.find(layer);
    m[std::string("self_ms.") + layer] = {it == self.end() ? 0 : it->second / n, "ms"};
  }
  return m;
}

struct Args {
  Options opt;
  std::string out_dir;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.opt.workload = v;
    else if (k == "--seed") a.opt.seed = std::stoull(v);
    else if (k == "--seconds") a.opt.seconds = std::stod(v);
    else if (k == "--trace") a.opt.trace = std::stoi(v) != 0;
    else if (k == "--root") a.opt.root = v;
    else if (k == "--out-dir") a.out_dir = v;
    else if (k == "--commit") a.commit = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

constexpr int kSetups = 5;
// Gauge samples before and after the untraced half of a --trace 1 run.
constexpr int kGaugeSamples = 4;

int run(const Args& args) {
  const Options& opt = args.opt;
  auto w = make_workload(opt);
  std::vector<Phase> phases;
  std::vector<double> setup;  // CPU seconds of each --trace 0 set-up
  Metrics metrics;
  std::string trace_file;

  HostGauge gauge(w->gauge_threads());
  if (!opt.trace) {
    // Set up several times and keep the last: setup_s is the median. It is
    // counted in process CPU seconds, which follow the work done rather
    // than how much of the shared host the process got meanwhile.
    for (int k = 0; k < kSetups; ++k) {
      if (k > 0) w->teardown();
      const double cpu0 = process_cpu_seconds();
      w->setup(nullptr);
      setup.push_back(process_cpu_seconds() - cpu0);
    }
    phases.push_back(w->measure(opt.seconds, nullptr, &gauge));
    w->teardown();
    metrics = end_to_end(phases[0], median(setup));
  } else {
    for (int g = 0; g < kGaugeSamples; ++g) gauge.sample();
    w->setup(nullptr);
    phases.push_back(w->measure(opt.seconds / 2, nullptr, nullptr));
    for (int g = 0; g < kGaugeSamples; ++g) gauge.sample();
    const double untraced_rss = peak_rss_mb();
    w->teardown();
    qhip::Tracer tracer;
    SpanRecorder spans;
    w->setup(&tracer);
    tracer.clear();  // per-request figures cover the measured requests only
    phases.push_back(w->measure(opt.seconds / 2, &spans, nullptr));
    w->teardown();
    metrics = per_layer(*w, phases[0], phases[1], tracer, spans);
    metrics.merge(unbounded_end_to_end(*w, phases[0], untraced_rss, gauge));
    if (!args.out_dir.empty()) {
      spans.export_to(tracer);
      trace_file = args.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                   ".trace.json";
      tracer.write_perfetto_json(trace_file);
    }
  }

  std::size_t attempted = 0, failed = 0, stage_violations = 0;
  bool kept_up = true;
  std::vector<std::string> errors;
  for (const auto& ph : phases) {
    attempted += ph.samples.size();
    failed += ph.samples.size() - count_correct(ph);
    stage_violations += count_stage_time_violations(ph);
    kept_up = kept_up && ph.generator_kept_up;
    errors.insert(errors.end(), ph.errors.begin(), ph.errors.end());
    for (const auto& w : ph.warnings) {
      std::fprintf(stderr, "perfbench: stage timings inconsistent: %s\n", w.c_str());
    }
  }
  for (const auto& e : errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  if (!kept_up) std::fprintf(stderr, "perfbench: run invalid: the load generator fell behind\n");
  // Without a slowdown sample cpu_ms_per_req has no value to report.
  const bool gauged =
      opt.trace || !divided(phases.front().cpu_ms_per_req_windows,
                            phases.front().slowdown_windows).empty();
  if (!gauged) std::fprintf(stderr, "perfbench: run invalid: the host gauge was never sampled\n");
  const bool correct = failed == 0 && kept_up && gauged && attempted > 0;

  // Latency figures of the untraced (first) phase.
  const auto lat = latencies(phases.front());
  std::map<std::string, std::string> prov = w->params();
  prov["workload"] = opt.workload;
  prov["seed"] = std::to_string(opt.seed);
  prov["seconds"] = json_number(opt.seconds);
  prov["trace"] = opt.trace ? "1" : "0";
  prov["nproc"] = std::to_string(std::thread::hardware_concurrency());
  prov["compiler"] = PERFBENCH_COMPILER;
  prov["build_type"] = PERFBENCH_BUILD_TYPE;
  prov["commit"] = args.commit;
  prov["latency_samples"] = std::to_string(lat.size());
  prov["latency_p90_valid"] = percentile_valid(lat.size(), 90) ? "true" : "false";
  const auto tail = tail_percentile(lat.size());
  prov["latency_tail_percentile"] = tail ? json_number(*tail) : "none";
  prov["latency_tail_ms"] = tail ? json_number(percentile(lat, *tail)) : "none";
  prov["generator_kept_up"] = kept_up ? "true" : "false";
  prov["loadgen_lateness_p90_ms"] = json_number(phases.front().lateness_p90_ms);
  prov["stage_time_violations"] = std::to_string(stage_violations);
  auto joined = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : " ") + json_number(x);
    return out;
  };
  if (!setup.empty()) prov["setup_cpu_s_each"] = joined(setup);  // unadjusted
  prov["slo_met_share"] = json_number(slo_met_share(*w, phases.front()));
  // cpu_ms_per_req before and after the host-slowdown adjustment.
  prov["host_slowdown_each"] = joined(gauge.samples());
  prov["host_slowdown_windows"] = joined(phases.front().slowdown_windows);
  prov["cpu_ms_per_req_windows"] = joined(phases.front().cpu_ms_per_req_windows);
  prov["cpu_ms_per_req_unadjusted"] = json_number(median(phases.front().cpu_ms_per_req_windows));
  if (!trace_file.empty()) prov["trace_file"] = trace_file;

  const std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted) +
                             ", \"failed\": " + std::to_string(failed) +
                             ", \"metrics\": " + metrics_json(metrics) + "}";
  const std::string prov_json = strings_json(prov);
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" + prov["trace"] + ".json";
    std::string lat_json = "[";
    for (const auto& s : phases.front().samples) {
      if (lat_json.size() > 1) lat_json += ", ";
      lat_json += json_number(s.latency_ms);
    }
    std::ofstream(path) << "{\"provenance\": " << prov_json << ", \"result\": " << result
                        << ", \"latency_ms\": " << lat_json << "]}\n";
  }
  std::printf("provenance: %s\n%s\n", prov_json.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
