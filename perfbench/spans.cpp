#include "spans.h"

#include <algorithm>

namespace perfbench {

std::uint64_t SpanRecorder::add(std::string name, std::uint64_t req,
                                std::uint64_t parent, std::uint64_t start_us,
                                std::uint64_t end_us, std::uint64_t id) {
  if (id == 0) id = new_id();
  std::lock_guard lk(mu_);
  spans_.push_back({id, parent, req, std::move(name), start_us,
                    std::max(start_us, end_us)});
  return id;
}

void SpanRecorder::link(std::uint64_t corr, std::uint64_t bridge) {
  std::lock_guard lk(mu_);
  bridges_[corr] = bridge;
}

std::string layer_of(const std::string& name, qhip::TraceKind kind) {
  using qhip::TraceKind;
  if (kind == TraceKind::kKernel && name == "ApplyGate_CPU") return "simulator";
  if (kind == TraceKind::kKernel || kind == TraceKind::kMemcpy) return "vgpu";
  static const std::map<std::string, std::string> kLayers = {
      // benchmark spans
      {"request", "harness"}, {"loadgen.wait", "harness"}, {"check", "harness"},
      {"codec.encode", "codec"}, {"codec.decode", "codec"},
      {"client.roundtrip", "wire"}, {"engine.run", "engine"},
      // server and engine spans (src/serve/server.cpp, src/engine/engine.cpp)
      {"serve", "serve"}, {"engine.request", "engine"}, {"admit", "engine"},
      {"plan", "planner"}, {"queue", "queue"}, {"fuse", "fusion"},
      {"execute", "backend"}, {"sample", "backend"}, {"trajectory", "noise"}};
  const auto it = kLayers.find(name);
  return it == kLayers.end() ? "other" : it->second;
}

namespace {

struct Node {
  std::string layer;
  std::uint64_t start = 0, end = 0;
  std::vector<std::size_t> children;
};

// Duration of [start, end) not covered by the union of the children.
double self_us(const Node& n, const std::vector<Node>& nodes) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (std::size_t c : n.children) {
    const std::uint64_t s = std::max(n.start, nodes[c].start);
    const std::uint64_t e = std::min(n.end, nodes[c].end);
    if (e > s) iv.emplace_back(s, e);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0, cur_s = 0, cur_e = 0;
  for (const auto& [s, e] : iv) {
    if (cur_e <= s) {
      covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  covered += cur_e - cur_s;
  return static_cast<double>(n.end - n.start - covered);
}

}  // namespace

std::map<std::string, double> SpanRecorder::layer_self_ms(
    const std::vector<qhip::TraceEvent>& engine_events) const {
  std::lock_guard lk(mu_);
  std::vector<Node> nodes;
  std::map<std::uint64_t, std::size_t> index;  // benchmark span id -> node
  nodes.reserve(spans_.size());
  for (const auto& s : spans_) {
    index[s.id] = nodes.size();
    nodes.push_back({layer_of(s.name, qhip::TraceKind::kSpan), s.start_us,
                     s.end_us, {}});
  }
  for (const auto& s : spans_) {
    if (s.parent == 0) continue;
    if (const auto it = index.find(s.parent); it != index.end()) {
      nodes[it->second].children.push_back(index[s.id]);
    }
  }

  // Engine events of each linked request, nested by interval containment
  // (the engine records no parent ids); outermost ones hang below the
  // benchmark span that made the call.
  std::map<std::uint64_t, std::vector<const qhip::TraceEvent*>> by_corr;
  for (const auto& e : engine_events) {
    if (e.corr != 0 && bridges_.count(e.corr) != 0 &&
        (e.kind == qhip::TraceKind::kSpan || e.kind == qhip::TraceKind::kKernel ||
         e.kind == qhip::TraceKind::kMemcpy)) {
      by_corr[e.corr].push_back(&e);
    }
  }
  for (auto& [corr, evs] : by_corr) {
    const auto bridge = index.find(bridges_.at(corr));
    if (bridge == index.end()) continue;
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<std::size_t> open;
    for (const auto* e : evs) {
      const std::uint64_t end = e->ts_us + e->dur_us;
      while (!open.empty() && nodes[open.back()].end < end) open.pop_back();
      const std::size_t parent = open.empty() ? bridge->second : open.back();
      const std::string name = e->name == "request" ? "engine.request" : e->name;
      nodes.push_back({layer_of(name, e->kind), e->ts_us, end, {}});
      nodes[parent].children.push_back(nodes.size() - 1);
      open.push_back(nodes.size() - 1);
    }
  }

  std::map<std::string, double> out;
  for (const auto& n : nodes) out[n.layer] += self_us(n, nodes) / 1e3;
  return out;
}

void SpanRecorder::export_to(qhip::Tracer& tracer) const {
  std::lock_guard lk(mu_);
  for (const auto& s : spans_) {
    tracer.record("bench/" + s.name, qhip::TraceKind::kSpan, s.start_us,
                  s.end_us - s.start_us, qhip::span_lane(s.req), 0, 0,
                  "req=" + std::to_string(s.req) +
                      " parent=" + std::to_string(s.parent));
  }
}

}  // namespace perfbench
