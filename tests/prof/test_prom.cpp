// Prometheus label-value escaping: a hostile backend spec or calibration key
// must not splice samples into the scrape. The round trip through
// prom_escape_label / prom_unescape_label is lossless, and
// EngineMetrics::to_prom_text escapes every interpolated label value.
//
// The second half audits the whole scrape against text-format 0.0.4: every
// family announced by # HELP/# TYPE exactly once, every sample belonging to
// an announced family, and histogram _bucket/_sum/_count internally
// consistent (cumulative buckets, +Inf == _count). The last tests check that
// every declared engine metric reads the same in the scrape and in the trace.
#include "src/prof/prom.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/engine/engine.h"
#include "src/obs/observable.h"
#include "src/prof/trace.h"
#include "src/rqc/rqc.h"

namespace qhip::prof {
namespace {

TEST(PromEscape, RoundTripsHostileStrings) {
  const std::string hostile[] = {
      "plain",
      "quote\"inside",
      "back\\slash",
      "new\nline",
      "hip\"} 1\nevil_metric 42",           // the classic injection
      "\\n literal backslash-n",
      "trailing backslash \\",
      std::string("\n\n\"\"\\\\"),
  };
  for (const std::string& s : hostile) {
    const std::string esc = prom_escape_label(s);
    // The escaped form is safe to interpolate: no raw quote, no raw newline.
    EXPECT_EQ(esc.find('\n'), std::string::npos) << s;
    for (std::size_t i = 0; i < esc.size(); ++i) {
      if (esc[i] == '"') {
        ASSERT_GT(i, 0u);
        EXPECT_EQ(esc[i - 1], '\\') << s;
      }
    }
    EXPECT_EQ(prom_unescape_label(esc), s);
  }
}

TEST(PromEscape, EngineMetricsEscapeHostileSpecs) {
  const std::string hostile = "hip\"} 1\nevil_metric 42";
  engine::EngineMetrics m;
  m.planner_decisions = 1;
  m.planner_chosen[hostile] = 3;
  m.planner_calibration[hostile + "/q20"] = 1.25;

  const std::string text = m.to_prom_text();
  // The escaped form appears...
  EXPECT_NE(text.find(prom_escape_label(hostile)), std::string::npos);
  // ...and the injection does not: no line starts with the smuggled metric,
  // and every line is either a comment or a qhip_engine_* sample.
  EXPECT_EQ(text.find("\nevil_metric"), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line.rfind("#", 0) == 0 || line.rfind("qhip_engine_", 0) == 0)
        << "spliced line: " << line;
  }
}

TEST(PromEscape, EscapedLabelValueRecoversOriginal) {
  // A scraper that unescapes the label value must read back the exact spec.
  const std::string hostile = "spec with \"quotes\", \\ and \nnewline";
  engine::EngineMetrics m;
  m.planner_chosen[hostile] = 1;
  const std::string text = m.to_prom_text();

  const std::string needle = "qhip_engine_planner_chosen{backend=\"";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  const std::size_t start = at + needle.size();
  const std::size_t end = text.find("\"}", start);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(prom_unescape_label(text.substr(start, end - start)), hostile);
}

// --- text-format 0.0.4 validator ---------------------------------------------

struct PromFamily {
  int help_lines = 0;
  int type_lines = 0;
  std::string type;
};

struct HistSeries {  // one label set of one histogram family
  std::vector<std::uint64_t> bucket_cum;  // in exposition order, +Inf last
  bool saw_inf = false;
  bool saw_sum = false;
  std::uint64_t count = 0;
  bool saw_count = false;
};

// Base metric name of a sample line: everything before '{' or ' '.
std::string sample_name(const std::string& line) {
  const std::size_t cut = line.find_first_of("{ ");
  return line.substr(0, cut);
}

// Maps a sample name to its announced family: histogram samples use the
// _bucket/_sum/_count suffixes of their family name.
std::string family_of(const std::string& name,
                      const std::map<std::string, PromFamily>& families) {
  if (families.count(name) != 0) return name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      const std::string base = name.substr(0, name.size() - s.size());
      if (families.count(base) != 0) return base;
    }
  }
  return "";
}

// Validates `text` as Prometheus text-format 0.0.4 and cross-checks every
// histogram series. Uses EXPECT so one run reports every violation.
void validate_prom_text(const std::string& text) {
  std::map<std::string, PromFamily> families;
  std::vector<std::pair<std::string, std::string>> samples;  // name, line

  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      families[rest.substr(0, sp)].help_lines++;
      EXPECT_GT(rest.size(), sp + 1) << "empty HELP text: " << line;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      PromFamily& f = families[rest.substr(0, sp)];
      f.type_lines++;
      f.type = rest.substr(sp + 1);
      EXPECT_TRUE(f.type == "counter" || f.type == "gauge" ||
                  f.type == "histogram")
          << line;
      continue;
    }
    if (line[0] == '#') continue;  // other comments (# EXEMPLAR) are ignored
    samples.emplace_back(sample_name(line), line);
  }

  ASSERT_FALSE(families.empty());
  for (const auto& [name, f] : families) {
    EXPECT_EQ(f.help_lines, 1) << "# HELP lines for " << name;
    EXPECT_EQ(f.type_lines, 1) << "# TYPE lines for " << name;
  }

  std::map<std::string, HistSeries> hists;  // key: sample name + labels
  for (const auto& [name, full] : samples) {
    const std::string fam = family_of(name, families);
    ASSERT_FALSE(fam.empty()) << "sample without # HELP/# TYPE: " << full;
    // The value token is everything after the last space.
    const std::size_t sp = full.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << full;
    const std::string value_tok = full.substr(sp + 1);
    char* end = nullptr;
    const double value = std::strtod(value_tok.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << full;

    if (families[fam].type != "histogram") {
      EXPECT_EQ(name, fam) << "suffixed sample of non-histogram: " << full;
      continue;
    }
    // Histogram sample: bucket into its series by labels minus `le`.
    const std::string suffix = name.substr(fam.size());
    std::string labels;
    if (const std::size_t brace = full.find('{');
        brace != std::string::npos && brace < sp) {
      labels = full.substr(brace, full.find('}', brace) + 1 - brace);
    }
    if (suffix == "_bucket") {
      const std::size_t le = labels.find("le=\"");
      ASSERT_NE(le, std::string::npos) << "_bucket without le: " << full;
      const std::size_t le_end = labels.find('"', le + 4);
      const std::string le_val = labels.substr(le + 4, le_end - le - 4);
      // Series key: labels with the le pair removed (it is the last label).
      std::string key = fam + labels.substr(0, le);
      HistSeries& h = hists[key];
      EXPECT_FALSE(h.saw_inf) << "bucket after +Inf: " << full;
      h.bucket_cum.push_back(static_cast<std::uint64_t>(value));
      if (le_val == "+Inf") h.saw_inf = true;
    } else if (suffix == "_sum") {
      hists[fam + labels].saw_sum = true;
    } else if (suffix == "_count") {
      HistSeries& h = hists[fam + labels];
      h.saw_count = true;
      h.count = static_cast<std::uint64_t>(value);
    } else {
      ADD_FAILURE() << "unsuffixed histogram sample: " << full;
    }
  }

  // _bucket keys carry a trailing '{...' prefix fragment while _sum/_count
  // carry the full label set; reconcile by matching prefixes.
  for (auto& [key, h] : hists) {
    if (h.bucket_cum.empty()) continue;  // the _sum/_count half of a series
    EXPECT_TRUE(h.saw_inf) << key << ": histogram without an +Inf bucket";
    for (std::size_t i = 1; i < h.bucket_cum.size(); ++i) {
      EXPECT_GE(h.bucket_cum[i], h.bucket_cum[i - 1])
          << key << ": cumulative bucket counts decreased at " << i;
    }
    // Find the matching _sum/_count series (same family+labels, with the
    // le pair stripped the bucket key ends just before "le=").
    std::string want = key;
    if (!want.empty() && (want.back() == ',' || want.back() == '{')) {
      want.pop_back();
      if (!want.empty() && want.back() == '{') want.pop_back();
      if (want.find('{') != std::string::npos) want += '}';
    }
    const auto it = hists.find(want);
    ASSERT_NE(it, hists.end()) << key << ": no _sum/_count series (" << want
                               << ")";
    EXPECT_TRUE(it->second.saw_sum) << want << ": missing _sum";
    EXPECT_TRUE(it->second.saw_count) << want << ": missing _count";
    EXPECT_EQ(h.bucket_cum.back(), it->second.count)
        << want << ": +Inf bucket != _count";
  }
}

TEST(PromFormat, SyntheticMetricsPassTheValidator) {
  engine::EngineMetrics m;
  m.submitted = 10;
  m.completed = 8;
  m.rejected = 2;
  m.planner_decisions = 3;
  m.planner_chosen["hip"] = 2;
  m.planner_chosen["cpu"] = 1;
  m.planner_calibration["hip/q20"] = 1.25;
  m.slo_breaches = 1;
  m.snapshots_written = 1;
  for (double v : {0.5, 1.5, 40.0}) {
    m.queue_ms.record(v);
    m.fuse_ms.record(v);
    m.execute_ms.record(v);
    m.sample_ms.record(v);
    m.total_ms.record(v * 4);
  }
  m.fused_gates.record(12);
  m.result_bytes.record(4096);
  m.trajectories_per_batch.record(16);
  m.exemplars["total"] = {42, 160.0};
  m.exemplars["execute"] = {42, 40.0};

  const std::string text = m.to_prom_text();
  validate_prom_text(text);

  // The exemplar annotations are comment lines carrying the slowest corr.
  EXPECT_NE(
      text.find("# EXEMPLAR qhip_engine_stage_latency_ms{stage=\"total\"} "
                "corr=42"),
      std::string::npos);
}

TEST(PromFormat, LiveEngineScrapePassesTheValidator) {
  rqc::RqcOptions ropt;
  ropt.rows = 2;
  ropt.cols = 3;
  ropt.depth = 8;
  ropt.seed = 7;
  engine::EngineOptions opt;
  opt.num_workers = 1;
  opt.planner_candidates = {"cpu", "hip"};
  engine::SimulationEngine eng(opt);
  engine::SimRequest req;
  req.circuit = rqc::generate_rqc(ropt);
  req.backend = "auto";
  req.num_samples = 16;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    req.seed = s;
    const engine::SimResult r = eng.run(req);
    ASSERT_TRUE(r.ok) << r.error;
  }
  validate_prom_text(eng.metrics().to_prom_text());
}

// Planner::stats() reports both the bucket-wide factor ("spec/q<b>") and the
// per-fusion-width one ("spec/q<b>/f<w>"). Both must scrape with the bare
// spec as backend, the bucket as bucket, and the width (or "all") as fused.
TEST(PromFormat, CalibrationLabelsSplitBackendBucketAndFusion) {
  rqc::RqcOptions ropt;
  ropt.rows = 2;
  ropt.cols = 2;
  ropt.depth = 6;
  ropt.seed = 3;
  engine::EngineOptions opt;
  opt.num_workers = 1;
  opt.planner_candidates = {"cpu"};
  engine::SimulationEngine eng(opt);
  engine::SimRequest req;
  req.circuit = rqc::generate_rqc(ropt);
  req.backend = "auto";
  req.num_samples = 4;
  ASSERT_TRUE(eng.run(req).ok);

  const std::string text = eng.metrics().to_prom_text();
  const std::string family = "qhip_engine_planner_calibration{";
  int series = 0;
  bool saw_all = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(family, 0) != 0) continue;
    ++series;
    const std::size_t b = line.find("backend=\"");
    ASSERT_NE(b, std::string::npos) << line;
    const std::string backend =
        line.substr(b + 9, line.find('"', b + 9) - (b + 9));
    EXPECT_EQ(backend.find('/'), std::string::npos) << line;
    EXPECT_NE(line.find("bucket=\"q"), std::string::npos) << line;
    EXPECT_NE(line.find("fused=\""), std::string::npos) << line;
    if (line.find("fused=\"all\"") != std::string::npos) saw_all = true;
  }
  EXPECT_GE(series, 2) << text;
  EXPECT_TRUE(saw_all) << text;
}

// Sample lines of a scrape keyed by name plus labels ("family{...}").
std::map<std::string, double> prom_samples(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

// Both export surfaces loop over the same declared rows, so every row must
// read the same value in the Prometheus scrape and in the trace counters.
TEST(PromFormat, ScrapeAndTraceAgreeOnEveryDeclaredMetric) {
  rqc::RqcOptions ropt;
  ropt.rows = 2;
  ropt.cols = 2;
  ropt.depth = 6;
  ropt.seed = 5;
  const Circuit circuit = rqc::generate_rqc(ropt);

  Tracer tracer;
  engine::EngineOptions opt;
  opt.num_workers = 2;
  opt.planner_candidates = {"cpu"};
  opt.tracer = &tracer;
  engine::SimulationEngine eng(opt);

  engine::SimRequest req;
  req.circuit = circuit;
  req.num_samples = 8;
  ASSERT_TRUE(eng.run(req).ok);
  const engine::SimResult hit = eng.run(req);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.result_cache_hit);

  engine::SimRequest expect = req;
  expect.kind = engine::RequestKind::kExpectation;
  expect.num_samples = 0;
  expect.observable.strings.push_back(
      obs::PauliString{1.0, {{0, obs::Pauli::kZ}}});
  ASSERT_TRUE(eng.run(expect).ok);

  engine::SimRequest traj = req;
  traj.kind = engine::RequestKind::kTrajectory;
  traj.num_samples = 0;
  traj.precision = Precision::kDouble;
  traj.noise = noise::NoiseModel{noise::depolarizing(0.05)};
  traj.num_trajectories = 4;
  ASSERT_TRUE(eng.run(traj).ok);

  engine::SimRequest planned = req;
  planned.backend = "auto";
  planned.seed = 2;
  ASSERT_TRUE(eng.run(planned).ok);

  eng.export_metrics();
  const std::map<std::string, double> trace = tracer.counters();
  const std::string text = eng.metrics().to_prom_text();
  validate_prom_text(text);
  const std::map<std::string, double> scrape = prom_samples(text);

  for (const engine::MetricRow& r : engine::metric_rows()) {
    std::string family = std::string("qhip_engine_") + r.name;
    for (char& c : family) c = c == '/' ? '_' : c;
    const std::string counter = std::string("engine/") + r.name;
    ASSERT_EQ(scrape.count(family), 1u) << family;
    ASSERT_EQ(trace.count(counter), 1u) << counter;
    EXPECT_NEAR(scrape.at(family), trace.at(counter),
                1e-8 * std::abs(trace.at(counter)))
        << r.name;
    EXPECT_NE(text.find("# TYPE " + family + " " + r.type + "\n"),
              std::string::npos)
        << family;
  }

  // Bucket bounds come from an empty EngineMetrics; the trace counts each
  // bucket on its own, the scrape cumulatively.
  const engine::EngineMetrics empty;
  int stage_rows = 0;
  for (const engine::HistogramRow& r : engine::histogram_rows()) {
    const Histogram& shape = empty.*r.hist;
    const std::string series =
        r.stage != nullptr
            ? "qhip_engine_stage_latency_ms_bucket{stage=\"" +
                  std::string(r.stage) + "\","
            : "qhip_engine_" + std::string(r.name) + "_bucket{";
    stage_rows += r.stage != nullptr;
    double prev = 0;
    for (std::size_t i = 0; i <= shape.num_buckets(); ++i) {
      const bool inf = i == shape.num_buckets();
      const std::string le = inf ? "+Inf" : strfmt("%g", shape.upper_bound(i));
      const std::string key = series + "le=\"" + le + "\"}";
      ASSERT_EQ(scrape.count(key), 1u) << key;
      const double in_bucket = scrape.at(key) - prev;
      prev = scrape.at(key);
      const auto it = trace.find(strfmt("engine/hist/%s/le_%s", r.name,
                                        inf ? "inf" : le.c_str()));
      EXPECT_EQ(it == trace.end() ? 0.0 : it->second, in_bucket) << key;
    }
  }
  EXPECT_EQ(stage_rows, 5);
  EXPECT_EQ(engine::histogram_rows().size(), 8u);
  EXPECT_GT(scrape.at("qhip_engine_result_cache_hits"), 0);
  EXPECT_GT(scrape.at("qhip_engine_planner_decisions"), 0);
  EXPECT_GT(scrape.at("qhip_engine_trajectory_batches"), 0);
  EXPECT_GT(scrape.at("qhip_engine_expectation_requests"), 0);
}

}  // namespace
}  // namespace qhip::prof
