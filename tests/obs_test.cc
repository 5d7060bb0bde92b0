// Tests for the observability layer (src/obs): span trees, the metric
// registry, JSON export, and the end-to-end pipeline trace.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "counting/config.h"
#include "cq/builders.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace pqe {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON syntax checker (RFC 8259 subset: no
// surrogate-pair validation). Enough to prove the hand-rolled writer emits
// well-formed documents without pulling in a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') return ++pos_, true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson(R"({"a": [1, 2.5, -3e2], "b": {"c": "x\n"}})"));
  EXPECT_TRUE(IsValidJson("[true, false, null]"));
  EXPECT_FALSE(IsValidJson(R"({"a": 1,})"));
  EXPECT_FALSE(IsValidJson(R"({"a" 1})"));
  EXPECT_FALSE(IsValidJson("[1, 2"));
  EXPECT_FALSE(IsValidJson(""));
}

// ---------------------------------------------------------------------------
// Span trees.

TEST(TraceTest, NestedSpansBuildTreeInOrder) {
  obs::TraceSession session("root");
  ASSERT_TRUE(session.active());
  {
    PQE_TRACE_SPAN_VAR(outer, "outer");
    outer.AttrUint("n", 7);
    { PQE_TRACE_SPAN("inner_a"); }
    {
      PQE_TRACE_SPAN_VAR(inner, "inner_b");
      inner.AttrText("label", "second");
    }
  }
  { PQE_TRACE_SPAN("sibling"); }
  obs::RunTrace trace = session.Finish();

  if (!obs::TracingCompiledIn()) {
    EXPECT_EQ(trace.root.name, "root");
    EXPECT_TRUE(trace.root.children.empty());
    return;
  }
  ASSERT_EQ(trace.root.children.size(), 2u);
  const obs::TraceSpan& outer = trace.root.children[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].name, "inner_a");
  EXPECT_EQ(outer.children[1].name, "inner_b");
  EXPECT_EQ(trace.root.children[1].name, "sibling");
  EXPECT_EQ(trace.root.TreeSize(), 5u);

  const obs::TraceAttr* n = outer.FindAttr("n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->u, 7u);
  const obs::TraceSpan* inner_b = trace.root.Find("inner_b");
  ASSERT_NE(inner_b, nullptr);
  ASSERT_NE(inner_b->FindAttr("label"), nullptr);
  EXPECT_EQ(inner_b->FindAttr("label")->text, "second");
  // Children start within the parent and nest chronologically.
  EXPECT_LE(outer.start_ns, outer.children[0].start_ns);
  EXPECT_LE(outer.children[0].start_ns, outer.children[1].start_ns);
  EXPECT_GE(trace.root.duration_ns, outer.duration_ns);
}

TEST(TraceTest, SpansWithoutSessionAreNoOps) {
  PQE_TRACE_SPAN_VAR(span, "orphan");
  span.AttrUint("ignored", 1);
  EXPECT_FALSE(span.active());
}

TEST(TraceTest, NestedSessionIsInert) {
  obs::TraceSession outer("outer_root");
  {
    obs::TraceSession inner("inner_root");
    EXPECT_FALSE(inner.active());
    PQE_TRACE_SPAN("during_inner");
  }
  obs::RunTrace trace = outer.Finish();
  EXPECT_EQ(trace.root.name, "outer_root");
  if (obs::TracingCompiledIn()) {
    // The span landed in the outer session, not the inert inner one.
    EXPECT_NE(trace.root.Find("during_inner"), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(MetricsTest, CountersAreSharedAcrossThreads) {
  obs::MetricRegistry registry;
  constexpr uint64_t kPerThread = 50'000;
  auto bump = [&registry]() {
    obs::Counter& c = registry.GetCounter("test.shared");
    for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
  };
  std::thread t1(bump);
  std::thread t2(bump);
  t1.join();
  t2.join();
  EXPECT_EQ(registry.Snapshot().CounterValue("test.shared"), 2 * kPerThread);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.GetHistogram("test.hist");
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);   // bits=3 → bucket 3, range [4, 7]
  h.Observe(7);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 13u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 7u);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const auto* entry = snap.FindHistogram("test.hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 4u);
}

TEST(MetricsTest, ResetZeroesButKeepsHandles) {
  obs::MetricRegistry registry;
  obs::Counter& c = registry.GetCounter("test.reset");
  registry.GetGauge("test.gauge").Set(2.5);
  c.Add(9);
  registry.Reset();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.reset"), 0u);
  c.Increment();
  EXPECT_EQ(registry.Snapshot().CounterValue("test.reset"), 1u);
}

TEST(MetricsTest, HistogramQuantilesInterpolateWithinBuckets) {
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.GetHistogram("test.q");
  // 100 samples all in bucket 7 (range [64, 127]): quantiles interpolate
  // linearly across the bucket's value range.
  for (uint64_t i = 0; i < 100; ++i) h.Observe(64 + i % 64);
  const obs::MetricsSnapshot::HistogramEntry entry =
      obs::MetricsSnapshot::SnapshotHistogram("test.q", h);
  const double p50 = entry.Quantile(0.50);
  const double p99 = entry.Quantile(0.99);
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 127.0);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 127.0);
  // q=0 clamps to the first sample; q>=1 is the top bucket's upper bound.
  EXPECT_GE(entry.Quantile(0.0), 64.0);
  EXPECT_EQ(entry.Quantile(1.0), 127.0);
}

TEST(MetricsTest, HistogramQuantilesAcrossBuckets) {
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.GetHistogram("test.q2");
  // 90 fast samples (value 1) and 10 slow ones (value 1000): the p50 sits
  // in the fast bucket, the p99 in the slow one.
  for (int i = 0; i < 90; ++i) h.Observe(1);
  for (int i = 0; i < 10; ++i) h.Observe(1000);
  const obs::MetricsSnapshot::HistogramEntry entry =
      obs::MetricsSnapshot::SnapshotHistogram("test.q2", h);
  EXPECT_EQ(entry.Quantile(0.50), 1.0);
  EXPECT_GE(entry.Quantile(0.99), 512.0);
  EXPECT_LE(entry.Quantile(0.99), 1023.0);

  const obs::MetricsSnapshot::HistogramEntry empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(MetricsTest, EmptyHistogramQuantilesAreZeroAtEveryQ) {
  // Regression guard for the count == 0 path: every q — including the
  // q >= 1 branch, which otherwise indexes the top bucket — must return 0
  // instead of reading an empty bucket vector.
  const obs::MetricsSnapshot::HistogramEntry empty;
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(empty.Quantile(q), 0.0) << q;
  }
  // A histogram that saw traffic and was then Reset() snapshots as empty
  // and must behave the same.
  obs::MetricRegistry registry;
  obs::Histogram& h = registry.GetHistogram("test.q3");
  for (int i = 0; i < 10; ++i) h.Observe(100);
  h.Reset();
  const obs::MetricsSnapshot::HistogramEntry entry =
      obs::MetricsSnapshot::SnapshotHistogram("test.q3", h);
  EXPECT_EQ(entry.count, 0u);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(entry.Quantile(q), 0.0) << q;
  }
}

// The documented relaxed-atomics contract (obs/metrics.h): Snapshot() and
// Reset() may interleave with hot-path Add()/Observe() calls without locks.
// Values are never torn and every add lands in some pre- or post-reset
// state; a snapshot is NOT a point-in-time cut. Running this under the TSan
// CI stage is what proves the contract — the assertions here only pin down
// "no torn/lost values within one epoch".
TEST(MetricsTest, SnapshotAndResetRaceWithHotPathAdds) {
  obs::MetricRegistry registry;
  obs::Counter& counter = registry.GetCounter("race.count");
  obs::Histogram& hist = registry.GetHistogram("race.hist");
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&counter, &hist, &stop]() {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Add(3);
        hist.Observe(i++ % 1024);
      }
    });
  }

  for (int round = 0; round < 200; ++round) {
    const obs::MetricsSnapshot snap = registry.Snapshot();
    // Counter adds are multiples of 3, so any observed value must be too —
    // a torn read would almost surely break this.
    EXPECT_EQ(snap.CounterValue("race.count") % 3, 0u);
    if (round % 50 == 49) registry.Reset();
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();

  registry.Reset();
  counter.Add(3);
  EXPECT_EQ(registry.Snapshot().CounterValue("race.count"), 3u);
}

// ---------------------------------------------------------------------------
// JSON export.

TEST(ExportTest, TraceJsonIsValidAndEscaped) {
  obs::TraceSession session("root");
  {
    PQE_TRACE_SPAN_VAR(span, "stage.one");
    span.AttrText("tricky", "quote\" backslash\\ newline\n tab\t");
    span.AttrUint("count", 42);
    span.AttrFloat("ratio", 0.5);
    span.AttrInt("delta", -3);
  }
  obs::RunTrace trace = session.Finish();
  const std::string json = obs::TraceToJson(trace);
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"root\""), std::string::npos);
  if (obs::TracingCompiledIn()) {
    EXPECT_NE(json.find("stage.one"), std::string::npos);
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
  }
  // The text rendering mentions every span name as well.
  const std::string text = obs::RenderTraceText(trace);
  EXPECT_NE(text.find("root"), std::string::npos);
}

TEST(ExportTest, NonFiniteDoublesSerializeAsNull) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("inf").Double(1.0 / 0.0);
  writer.Key("neg").Double(-1.0 / 0.0);
  writer.Key("nan").Double(0.0 / 0.0);
  writer.EndObject();
  const std::string json = writer.Take();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_EQ(json, R"({"inf":null,"neg":null,"nan":null})");
}

TEST(ExportTest, FiniteDoublesRoundTripBitExact) {
  // JsonWriter::Double emits max_digits10 significant digits and ParseJson
  // reads back through strtod — both directions correctly rounded, so every
  // finite double round-trips to the identical bit pattern.
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           0.1,
                           1.0 / 3.0,
                           0.59999999999999942,
                           0.93413926825981919,
                           1e-308,
                           1.7976931348623157e308,
                           -2.2250738585072014e-308};
  for (const double v : values) {
    obs::JsonWriter writer;
    writer.BeginArray();
    writer.Double(v);
    writer.EndArray();
    auto doc = obs::ParseJson(writer.Take());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ASSERT_EQ(doc->Items().size(), 1u);
    const double back = doc->Items()[0].AsNumber();
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
        << v << " round-tripped to " << back;
  }
}

TEST(ExportTest, ParseJsonHandlesEscapesAndRejectsGarbage) {
  auto doc = obs::ParseJson(
      R"({"s":"a\"b\\c\nd\u0041\u00e9","arr":[1,-2.5,true,null],"n":{}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* s = doc->Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->AsString(), "a\"b\\c\nd"
                           "A\xc3\xa9");
  const obs::JsonValue* arr = doc->Find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->Items().size(), 4u);
  EXPECT_EQ(arr->Items()[0].AsNumber(), 1.0);
  EXPECT_EQ(arr->Items()[1].AsNumber(), -2.5);
  EXPECT_TRUE(arr->Items()[2].AsBool());
  EXPECT_EQ(arr->Items()[3].kind(), obs::JsonValue::Kind::kNull);

  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("[1,]").ok());
  EXPECT_FALSE(obs::ParseJson("01").ok());
  EXPECT_FALSE(obs::ParseJson("{} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("\"\\ud800\"").ok());  // lone surrogate
}

TEST(ExportTest, OpenMetricsExpositionShape) {
  obs::MetricRegistry registry;
  registry.GetCounter("serve.requests").Add(7);
  registry.GetCounter("pqe.strata_total").Add(3);  // already ends in _total
  registry.GetGauge("bench.speedup-warm").Set(12.5);
  obs::Histogram& h = registry.GetHistogram("serve.request_ms");
  h.Observe(1);
  h.Observe(5);
  h.Observe(9);
  const std::string om = obs::MetricsToOpenMetrics(registry.Snapshot());

  // Names are sanitized to [a-zA-Z0-9_:].
  EXPECT_NE(om.find("# TYPE serve_requests counter\n"), std::string::npos);
  EXPECT_NE(om.find("serve_requests_total 7\n"), std::string::npos);
  // A source name already ending in _total is not double-suffixed.
  EXPECT_NE(om.find("pqe_strata_total 3\n"), std::string::npos);
  EXPECT_EQ(om.find("_total_total"), std::string::npos);
  EXPECT_NE(om.find("# TYPE bench_speedup_warm gauge\n"), std::string::npos);
  // Histogram: cumulative buckets, +Inf, sum, count.
  EXPECT_NE(om.find("# TYPE serve_request_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(om.find("serve_request_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(om.find("serve_request_ms_bucket{le=\"7\"} 2\n"),
            std::string::npos);
  EXPECT_NE(om.find("serve_request_ms_bucket{le=\"15\"} 3\n"),
            std::string::npos);
  EXPECT_NE(om.find("serve_request_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(om.find("serve_request_ms_sum 15\n"), std::string::npos);
  EXPECT_NE(om.find("serve_request_ms_count 3\n"), std::string::npos);
  // The exposition terminates with the OpenMetrics EOF marker.
  const std::string tail = "# EOF\n";
  ASSERT_GE(om.size(), tail.size());
  EXPECT_EQ(om.substr(om.size() - tail.size()), tail);
}

TEST(ExportTest, MetricsJsonIsValid) {
  obs::MetricRegistry registry;
  registry.GetCounter("a.count").Add(3);
  registry.GetGauge("a.gauge").Set(1.25);
  registry.GetHistogram("a.hist").Observe(9);
  const std::string json = obs::MetricsToJson(registry.Snapshot());
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"a.hist\""), std::string::npos);
}

// A metrics file names where its numbers were taken: the "host" stamp that
// bench_compare prints when a baseline and a fresh run differ.
TEST(ExportTest, MetricsFileCarriesHostStamp) {
  obs::MetricRegistry registry;
  registry.GetGauge("a.speedup").Set(2.5);
  const std::string path = testing::TempDir() + "obs_test_metrics.json";
  ASSERT_TRUE(obs::WriteMetricsJsonFile(path, registry).ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  auto doc = obs::ParseJson(text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::JsonValue* gauges = doc->Find("metrics")->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("a.speedup")->AsNumber(), 2.5);
  const obs::JsonValue* host = doc->Find("host");
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(host->is_object());
  EXPECT_TRUE(host->Find("hardware_threads")->is_number());
  for (const char* key : {"compiler_id", "compiler_version", "build_type"}) {
    const obs::JsonValue* value = host->Find(key);
    ASSERT_NE(value, nullptr) << key;
    ASSERT_TRUE(value->is_string()) << key;
    EXPECT_FALSE(value->AsString().empty()) << key;
  }
}

TEST(ExportTest, CountStatsJsonCoversEveryField) {
  CountStats stats;
  stats.strata_total = 10;
  stats.strata_live = 4;
  stats.pool_entries = 3;
  stats.attempts = 2;
  stats.accepted = 1;
  stats.forced_samples = 5;
  stats.membership_checks = 6;
  const std::string json = obs::StatsToJson(stats);
  EXPECT_TRUE(IsValidJson(json)) << json;
  // Field list driven by the same X-macro as the struct definition, so this
  // stays exhaustive by construction.
#define PQE_EXPECT_FIELD(field)                                  \
  EXPECT_NE(json.find("\"" #field "\""), std::string::npos) << json;
  PQE_COUNT_STATS_FIELDS(PQE_EXPECT_FIELD)
#undef PQE_EXPECT_FIELD
}

// ---------------------------------------------------------------------------
// End-to-end: a kFpras evaluation produces the documented span tree.

TEST(PipelineTraceTest, FprasEvaluationEmitsExpectedSpans) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 0.9;
  opt.seed = 4;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.kind = ProbabilityModel::Kind::kUniformHalf;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  PqeEngine::Options opts;
  opts.method = PqeMethod::kFpras;
  opts.epsilon = 0.3;
  opts.collect_trace = true;
  PqeEngine engine(opts);
  const EvalResponse resp =
      engine.EvaluateRequest(EvalRequest::ForQuery(qi.query, pdb));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  const PqeAnswer* answer = &resp.answer;

  ASSERT_NE(answer->trace, nullptr);
  const obs::TraceSpan& root = answer->trace->root;
  EXPECT_EQ(root.name, "engine.evaluate");
  EXPECT_GT(root.duration_ns, 0u);
  const std::string json = obs::TraceToJson(*answer->trace);
  EXPECT_TRUE(IsValidJson(json)) << json;

  if (!obs::TracingCompiledIn()) return;
  ASSERT_NE(root.FindAttr("method"), nullptr);
  EXPECT_EQ(root.FindAttr("method")->text, "fpras");
  // A 3-atom path query takes the string specialization; both branches end
  // in a multiplier translation and a counting loop with recorded stats.
  EXPECT_NE(root.Find("pqe.multiplier_translate"), nullptr);
  const bool string_path = root.Find("path.estimate") != nullptr;
  const obs::TraceSpan* count =
      root.Find(string_path ? "count.nfa" : "count.nfta");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(count->FindAttr("attempts"), nullptr);
  ASSERT_NE(count->FindAttr("membership_checks"), nullptr);
  if (!string_path) {
    EXPECT_NE(root.Find("hd.decompose"), nullptr);
    EXPECT_NE(root.Find("nfta.translate"), nullptr);
  }
}

TEST(PipelineTraceTest, TreeFprasEvaluationEmitsDecompositionSpans) {
  // A non-path query (shared first variable) exercises the hypertree → NFTA
  // branch of the pipeline.
  auto star = MakeStarQuery(2).MoveValue();
  StarDataOptions sopt;
  auto db = MakeStarDatabase(star, sopt).MoveValue();
  ProbabilityModel pm;
  pm.kind = ProbabilityModel::Kind::kUniformHalf;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  PqeEngine::Options opts;
  opts.method = PqeMethod::kFpras;
  opts.epsilon = 0.4;
  opts.collect_trace = true;
  PqeEngine engine(opts);
  const EvalResponse resp =
      engine.EvaluateRequest(EvalRequest::ForQuery(star.query, pdb));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  const PqeAnswer* answer = &resp.answer;
  ASSERT_NE(answer->trace, nullptr);
  if (!obs::TracingCompiledIn()) return;
  const obs::TraceSpan& root = answer->trace->root;
  EXPECT_NE(root.Find("pqe.estimate"), nullptr);
  EXPECT_NE(root.Find("pqe.build_automaton"), nullptr);
  EXPECT_NE(root.Find("hd.decompose"), nullptr);
  EXPECT_NE(root.Find("nfta.translate"), nullptr);
  EXPECT_NE(root.Find("nfta.trim"), nullptr);
  EXPECT_NE(root.Find("pqe.multiplier_translate"), nullptr);
  EXPECT_NE(root.Find("count.nfta"), nullptr);
}

TEST(PipelineTraceTest, TraceAbsentWhenNotRequested) {
  auto qi = MakePathQuery(2).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.seed = 11;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  PqeEngine engine;
  const EvalResponse resp =
      engine.EvaluateRequest(EvalRequest::ForQuery(qi.query, pdb));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  const PqeAnswer& answer = resp.answer;
  EXPECT_EQ(answer.trace, nullptr);
  EXPECT_FALSE(RenderDiagnostics(answer).empty());
}

}  // namespace
}  // namespace pqe
