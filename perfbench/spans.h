// In-memory span recorder for the traced perfbench run.
//
// The benchmark records one span around each public call it makes (name,
// start, end, parent), grouped by a per-request id. At the end of the run the
// engine's own trace events for the same requests (request/queue/fuse/
// execute/sample spans and vgpu kernel/memcpy events, joined by
// SimResult::request_id) are attached below the benchmark span that made the
// call, and every span is charged to a layer. A layer's self time is the
// duration of its spans minus the part covered by their children.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/prof/trace.h"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root of its request
  std::uint64_t req = 0;     // benchmark request id shared by its spans
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
};

class SpanRecorder {
 public:
  // Reserves the id of a span whose children are recorded before it ends.
  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  // Records a completed span; `id` 0 allocates a fresh one. Returns the id.
  std::uint64_t add(std::string name, std::uint64_t req, std::uint64_t parent,
                    std::uint64_t start_us, std::uint64_t end_us,
                    std::uint64_t id = 0);

  // The engine events of correlation id `corr` hang below span `bridge`.
  void link(std::uint64_t corr, std::uint64_t bridge);

  // Self time per layer, in ms summed over all recorded requests, after
  // attaching the engine events in `engine_events`.
  std::map<std::string, double> layer_self_ms(
      const std::vector<qhip::TraceEvent>& engine_events) const;

  // Records every benchmark span into `tracer` (kind kSpan, lane of its
  // request, detail "bench parent=<id>"), so one Perfetto file holds the
  // benchmark and engine spans together.
  void export_to(qhip::Tracer& tracer) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint64_t> bridges_;  // corr -> benchmark span
};

// Layer a span or trace event is charged to ("harness", "codec", "wire",
// "serve", "engine", "queue", "planner", "fusion", "backend", "simulator",
// "vgpu", "noise").
std::string layer_of(const std::string& name, qhip::TraceKind kind);

}  // namespace perfbench
