// The serving telemetry plane (docs/serving.md): per-request stats
// aggregated into ServiceStats (cache classes, per-stage quantiles, the
// bounded slow-query log), workload capture records that round-trip through
// JSONL, and the replay oracle — a replayed capture must reproduce every
// recorded answer bit for bit.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "cq/builders.h"
#include "obs/json.h"
#include "serve/service.h"
#include "serve/telemetry.h"
#include "serve/workload.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace serve {
namespace {

// --- ServiceTelemetry aggregation ----------------------------------------

RequestTelemetry MakeRequest(uint64_t id, CacheClass c, uint64_t total_ns) {
  RequestTelemetry t;
  t.request_id = id;
  t.cache_class = c;
  t.status = StatusCode::kOk;
  t.total_ns = total_ns;
  t.estimate_ns = total_ns / 2;
  t.span_excerpt = "excerpt-" + std::to_string(id);
  return t;
}

TEST(ServiceTelemetryTest, AggregatesClassesStatusesAndStages) {
  ServiceTelemetry telemetry(/*slow_log_capacity=*/8);
  telemetry.Record(MakeRequest(1, CacheClass::kColdCompile, 1000));
  telemetry.Record(MakeRequest(2, CacheClass::kAnswerMemo, 10));
  telemetry.Record(MakeRequest(3, CacheClass::kAnswerMemo, 12));
  RequestTelemetry dead = MakeRequest(4, CacheClass::kDelegated, 50);
  dead.status = StatusCode::kDeadlineExceeded;
  dead.deadline_exceeded = true;
  telemetry.Record(dead);
  RequestTelemetry err = MakeRequest(5, CacheClass::kDelegated, 60);
  err.status = StatusCode::kInvalidArgument;
  telemetry.Record(err);

  const ServiceStats stats = telemetry.Snapshot();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(CacheClass::kColdCompile)],
            1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(CacheClass::kAnswerMemo)], 2u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(CacheClass::kDelegated)], 2u);

  const ServiceStats::StageStats* total = stats.FindStage("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 5u);
  EXPECT_EQ(total->sum_ns, 1000u + 10 + 12 + 50 + 60);
  EXPECT_GT(total->p99_ns, total->p50_ns);
  // Only requests that ran a stage enter its histogram.
  const ServiceStats::StageStats* estimate = stats.FindStage("estimate");
  ASSERT_NE(estimate, nullptr);
  EXPECT_EQ(estimate->count, 5u);
  const ServiceStats::StageStats* compile = stats.FindStage("compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->count, 0u);
  EXPECT_EQ(stats.FindStage("no_such_stage"), nullptr);
}

TEST(ServiceTelemetryTest, SlowLogIsBoundedAndSortedSlowestFirst) {
  ServiceTelemetry telemetry(/*slow_log_capacity=*/3);
  const uint64_t totals[] = {50, 500, 10, 900, 300, 5, 700};
  uint64_t id = 1;
  for (uint64_t ns : totals) {
    telemetry.Record(MakeRequest(id++, CacheClass::kWarmBind, ns));
  }
  const ServiceStats stats = telemetry.Snapshot();
  ASSERT_EQ(stats.slow_queries.size(), 3u);
  EXPECT_EQ(stats.slow_queries[0].total_ns, 900u);
  EXPECT_EQ(stats.slow_queries[1].total_ns, 700u);
  EXPECT_EQ(stats.slow_queries[2].total_ns, 500u);
  EXPECT_EQ(stats.slow_queries[0].request_id, 4u);
  EXPECT_EQ(stats.slow_queries[0].span_excerpt, "excerpt-4");

  ServiceTelemetry disabled(/*slow_log_capacity=*/0);
  disabled.Record(MakeRequest(1, CacheClass::kWarmBind, 1000));
  EXPECT_TRUE(disabled.Snapshot().slow_queries.empty());
}

TEST(ServiceTelemetryTest, ToJsonParsesAndCoversEverySection) {
  ServiceTelemetry telemetry(/*slow_log_capacity=*/2);
  telemetry.Record(MakeRequest(7, CacheClass::kColdCompile, 123456));
  const std::string json = telemetry.Snapshot().ToJson();
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  const obs::JsonValue* stats = doc->Find("service_stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("requests")->AsUint(), 1u);
  const obs::JsonValue* by_class = stats->Find("by_class");
  ASSERT_NE(by_class, nullptr);
  EXPECT_EQ(by_class->Find("cold_compile")->AsUint(), 1u);
  const obs::JsonValue* stages = stats->Find("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* stage :
       {"total", "cache_lookup", "compile", "bind", "estimate"}) {
    ASSERT_NE(stages->Find(stage), nullptr) << stage;
    EXPECT_NE(stages->Find(stage)->Find("p95_ns"), nullptr) << stage;
  }
  const obs::JsonValue* slow = stats->Find("slow_queries");
  ASSERT_NE(slow, nullptr);
  ASSERT_EQ(slow->Items().size(), 1u);
  EXPECT_EQ(slow->Items()[0].Find("request_id")->AsUint(), 7u);
}

TEST(ServiceTelemetryTest, ResetClearsAggregatesAndSlowFloor) {
  ServiceTelemetry telemetry(/*slow_log_capacity=*/2);
  telemetry.Record(MakeRequest(1, CacheClass::kWarmBind, 900));
  telemetry.Record(MakeRequest(2, CacheClass::kWarmBind, 800));
  // Log full: the admission floor is now 800, and 700 is rejected fast-path.
  telemetry.Record(MakeRequest(3, CacheClass::kWarmBind, 700));
  ASSERT_EQ(telemetry.Snapshot().slow_queries.size(), 2u);

  telemetry.Reset();
  const ServiceStats cleared = telemetry.Snapshot();
  EXPECT_EQ(cleared.requests, 0u);
  EXPECT_EQ(cleared.ok, 0u);
  EXPECT_EQ(cleared.by_class[static_cast<size_t>(CacheClass::kWarmBind)], 0u);
  const ServiceStats::StageStats* total = cleared.FindStage("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 0u);
  EXPECT_EQ(total->sum_ns, 0u);
  EXPECT_TRUE(cleared.slow_queries.empty());

  // The floor regression: a post-reset request far below the PRE-reset
  // floor (100 < 800) must be admitted to the now-empty log. A floor that
  // survived the reset would fast-path-reject everything slower history
  // already beat, leaving the log empty forever.
  telemetry.Record(MakeRequest(4, CacheClass::kWarmBind, 100));
  const ServiceStats after = telemetry.Snapshot();
  ASSERT_EQ(after.slow_queries.size(), 1u);
  EXPECT_EQ(after.slow_queries[0].request_id, 4u);
  EXPECT_EQ(after.requests, 1u);
}

TEST(ServiceTelemetryTest, ToJsonEmitsNullQuantilesForEmptyStages) {
  ServiceTelemetry telemetry(/*slow_log_capacity=*/2);
  // This request never ran the compile stage (compile_ns == 0 in
  // MakeRequest), so "compile" has count 0 — its quantiles are unknown,
  // not zero-nanosecond measurements.
  telemetry.Record(MakeRequest(1, CacheClass::kAnswerMemo, 5000));
  const std::string json = telemetry.Snapshot().ToJson();
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  const obs::JsonValue* stages = doc->Find("service_stats")->Find("stages");
  ASSERT_NE(stages, nullptr);

  const obs::JsonValue* compile = stages->Find("compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->Find("count")->AsUint(), 0u);
  for (const char* q : {"p50_ns", "p95_ns", "p99_ns"}) {
    const obs::JsonValue* v = compile->Find(q);
    ASSERT_NE(v, nullptr) << q;
    EXPECT_EQ(v->kind(), obs::JsonValue::Kind::kNull) << q;
  }
  // A stage that DID run keeps numeric quantiles.
  const obs::JsonValue* total = stages->Find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_TRUE(total->Find("p50_ns")->is_number());
}

// --- Workload records: JSONL round-trip ----------------------------------

TEST(WorkloadRecordTest, FormatParseRoundTripIsExact) {
  WorkloadRecord record;
  record.request_id = 42;
  record.target = "query";
  record.query = "Follows(x,y), Likes(y,z)";
  record.labelling_hash = 0xdeadbeefcafef00dull;  // needs all 64 bits
  record.config_hash = 0xffffffffffffffffull;
  record.method = "fpras";
  record.epsilon = 0.20000000000000001;  // not representable in few digits
  record.seed = 0x3c6ef372fe94f854ull;
  record.deadline_ms = 250;
  record.status = "ok";
  record.probability = 0.93413926825981919;

  const std::string line = FormatWorkloadRecord(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto back = ParseWorkloadRecord(line);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, record.request_id);
  EXPECT_EQ(back->target, record.target);
  EXPECT_EQ(back->query, record.query);
  // 64-bit values travel as hex strings, so they are exact beyond 2^53.
  EXPECT_EQ(back->labelling_hash, record.labelling_hash);
  EXPECT_EQ(back->config_hash, record.config_hash);
  EXPECT_EQ(back->seed, record.seed);
  EXPECT_EQ(back->method, record.method);
  EXPECT_EQ(back->deadline_ms, record.deadline_ms);
  EXPECT_EQ(back->status, record.status);
  // Doubles are written with max_digits10: bit-exact round-trip.
  EXPECT_EQ(std::memcmp(&back->epsilon, &record.epsilon, sizeof(double)), 0);
  EXPECT_EQ(
      std::memcmp(&back->probability, &record.probability, sizeof(double)),
      0);

  EXPECT_FALSE(ParseWorkloadRecord("not json").ok());
  EXPECT_FALSE(ParseWorkloadRecord("[1,2,3]").ok());

  // The writer no longer emits "kernels"; a record carrying the key (as
  // earlier versions wrote) still parses.
  EXPECT_EQ(line.find("kernels"), std::string::npos);
  auto legacy = ParseWorkloadRecord(
      R"({"request_id":1,"kernels":"fast","status":"ok"})");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->request_id, 1u);
}

TEST(WorkloadRecordTest, LoadWorkloadFileSkipsBlanksAndNumbersErrors) {
  const std::string path = "telemetry_test_load.jsonl";
  {
    std::ofstream out(path);
    WorkloadRecord r;
    r.request_id = 1;
    out << FormatWorkloadRecord(r) << "\n\n";
    r.request_id = 2;
    out << FormatWorkloadRecord(r) << "\n";
  }
  auto records = LoadWorkloadFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].request_id, 1u);
  EXPECT_EQ((*records)[1].request_id, 2u);

  {
    std::ofstream out(path, std::ios::app);
    out << "{broken\n";
  }
  auto bad = LoadWorkloadFile(path);
  ASSERT_FALSE(bad.ok());
  // The error names the offending line (path:lineno: message).
  EXPECT_NE(bad.status().ToString().find(path + ":4:"), std::string::npos)
      << bad.status().ToString();
  std::remove(path.c_str());

  EXPECT_FALSE(LoadWorkloadFile("no_such_file.jsonl").ok());
}

TEST(WorkloadRecordTest, TruncatedTrailingLineIsATypedErrorNamingTheLine) {
  // A capture cut mid-write (process killed, disk full) ends in a prefix of
  // a record. Loading must fail with a line-numbered error, not silently
  // drop the tail or crash the replay.
  const std::string path = "telemetry_test_truncated.jsonl";
  {
    std::ofstream out(path);
    WorkloadRecord r;
    r.request_id = 1;
    out << FormatWorkloadRecord(r) << "\n";
    r.request_id = 2;
    const std::string full = FormatWorkloadRecord(r);
    out << full.substr(0, full.size() / 2);  // no closing brace, no newline
  }
  auto truncated = LoadWorkloadFile(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(truncated.status().ToString().find(path + ":2:"),
            std::string::npos)
      << truncated.status().ToString();
  std::remove(path.c_str());

  // Same for non-JSON garbage appended after valid records.
  const std::string garbage_path = "telemetry_test_garbage.jsonl";
  {
    std::ofstream out(garbage_path);
    WorkloadRecord r;
    r.request_id = 1;
    out << FormatWorkloadRecord(r) << "\n"
        << "\x01\xffGARBAGE not json at all\n";
  }
  auto garbage = LoadWorkloadFile(garbage_path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(garbage.status().ToString().find(garbage_path + ":2:"),
            std::string::npos)
      << garbage.status().ToString();
  std::remove(garbage_path.c_str());
}

TEST(WorkloadRecordTest, UpdateSpecRejectsSignsWhitespaceAndJunk) {
  // strtoull would accept all of these by wrapping or stopping early; the
  // strict parser rejects them with a typed InvalidArgument instead of
  // applying a garbage delta.
  for (const char* spec :
       {"0=-1/2", "0=+1/2", "-1=1/2", "0=1/-2", "0= 1/2", "0=1/ 2",
        "0=1a/2", "0=1/2x", "0x3=1/2", "0=18446744073709551616/2"}) {
    auto delta = ParseLabelDeltaSpec(spec);
    ASSERT_FALSE(delta.ok()) << spec;
    EXPECT_EQ(delta.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  // The straight form still parses.
  auto good = ParseLabelDeltaSpec("3=1/2,7=2/3");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good->facts.size(), 2u);
  EXPECT_EQ(good->facts[0], 3u);
  EXPECT_EQ(good->new_probs[1].num, 2u);
  EXPECT_EQ(good->new_probs[1].den, 3u);
}

// --- Fingerprints ----------------------------------------------------------

struct Fixture {
  QueryInstance qi;
  ProbabilisticDatabase pdb;
};

// At density 1.0 the path query is near certain and the FPRAS answer clamps
// to exactly 1; kBelowOneDensity keeps the answer a sampled value below 1.
constexpr double kBelowOneDensity = 0.6;

Fixture MakeFixture(uint64_t prob_seed, double density = 1.0) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = density;
  opt.seed = 7;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = prob_seed;
  return {std::move(qi), AttachProbabilities(std::move(db), pm)};
}

PqeEngine::Options TestOptions() {
  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kFpras)
                  .Epsilon(0.3)
                  .Seed(0xfeed)
                  .PoolSize(48)
                  .Repetitions(1)
                  .NumThreads(1)
                  .Build();
  EXPECT_TRUE(opts.ok()) << opts.status().ToString();
  return *opts;
}

TEST(WorkloadHashTest, LabellingHashSeesProbabilitiesNotFacts) {
  Fixture a = MakeFixture(100);
  Fixture a2 = MakeFixture(100);  // same facts, same labelling
  Fixture b = MakeFixture(200);   // same facts, different labelling
  EXPECT_EQ(HashLabelling(a.pdb), HashLabelling(a2.pdb));
  EXPECT_NE(HashLabelling(a.pdb), HashLabelling(b.pdb));
}

TEST(WorkloadHashTest, ConfigHashSeesSteeringFieldsOnly) {
  const PqeEngine::Options base = TestOptions();
  PqeEngine::Options widened = base;
  widened.max_width = base.max_width + 1;
  EXPECT_NE(HashEngineConfig(base), HashEngineConfig(widened));

  // Fields each record carries itself — and thread count, which never
  // changes answers — are excluded.
  PqeEngine::Options reseeded = base;
  reseeded.seed ^= 0x1234;
  reseeded.epsilon = 0.4;
  reseeded.num_threads = 8;
  EXPECT_EQ(HashEngineConfig(base), HashEngineConfig(reseeded));
}

// --- Capture through the service ------------------------------------------

TEST(CaptureTest, ServiceWritesOneParseableRecordPerRequest) {
  Fixture fx = MakeFixture(100);
  const std::string path = "telemetry_test_capture.jsonl";
  std::remove(path.c_str());

  PqeService::Options sopt;
  sopt.engine = TestOptions();
  sopt.num_threads = 1;
  sopt.capture_path = path;
  PqeService service(sopt);
  ASSERT_TRUE(service.capture_status().ok())
      << service.capture_status().ToString();

  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  r.request_id = 9;
  const std::vector<EvalResponse> resp = service.EvaluateBatch({r});
  ASSERT_TRUE(resp[0].status.ok()) << resp[0].status.ToString();

  auto records = LoadWorkloadFile(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  const WorkloadRecord& rec = (*records)[0];
  EXPECT_EQ(rec.request_id, 9u);
  EXPECT_EQ(rec.target, "query");
  EXPECT_EQ(rec.status, "ok");
  EXPECT_EQ(rec.method, "fpras");
  EXPECT_EQ(rec.labelling_hash, HashLabelling(fx.pdb));
  EXPECT_EQ(rec.config_hash, HashEngineConfig(sopt.engine));
  // The capture records the EFFECTIVE seed (derived from the request id).
  EXPECT_EQ(rec.seed, Rng::DeriveSeed(sopt.engine.seed, 9));
  EXPECT_EQ(std::memcmp(&rec.probability, &resp[0].answer.probability,
                        sizeof(double)),
            0);
  // The query text parses back to the same query (what replay relies on).
  EXPECT_FALSE(rec.query.empty());
  std::remove(path.c_str());
}

TEST(CaptureTest, UnopenableCapturePathSurfacesAsStatusNotCrash) {
  PqeService::Options sopt;
  sopt.engine = TestOptions();
  sopt.capture_path = "no/such/dir/capture.jsonl";
  PqeService service(sopt);
  EXPECT_FALSE(service.capture_status().ok());
  // The service still serves.
  Fixture fx = MakeFixture(100);
  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  EXPECT_TRUE(service.Evaluate(r).status.ok());
}

// --- Replay: the bit-identity oracle --------------------------------------

TEST(ReplayTest, ReplayedAnswersMatchBitForBit) {
  Fixture fx = MakeFixture(100);
  const std::string path = "telemetry_test_replay.jsonl";
  std::remove(path.c_str());

  PqeService::Options sopt;
  sopt.engine = TestOptions();
  sopt.num_threads = 1;
  sopt.capture_path = path;
  {
    PqeService service(sopt);
    std::vector<EvalRequest> reqs;
    for (uint64_t i = 1; i <= 4; ++i) {
      EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
      r.request_id = i;
      if (i % 2 == 0) r.epsilon = 0.35;  // distinct estimator configs
      reqs.push_back(r);
    }
    const std::vector<EvalResponse> resp = service.EvaluateBatch(reqs);
    for (const EvalResponse& x : resp) ASSERT_TRUE(x.status.ok());
  }

  auto records = LoadWorkloadFile(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);

  // A fresh service (no warm state): only determinism makes answers match.
  PqeService::Options replay_opts = sopt;
  replay_opts.capture_path.clear();
  PqeService fresh(replay_opts);
  auto report = ReplayWorkload(fresh, fx.pdb, *records);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total, 4u);
  EXPECT_EQ(report->replayed, 4u);
  EXPECT_EQ(report->matched, 4u);
  EXPECT_EQ(report->mismatched, 0u);
  EXPECT_TRUE(report->Clean());

  // Tamper with one recorded probability: the oracle must notice.
  std::vector<WorkloadRecord> tampered = *records;
  tampered[2].probability += 1e-9;
  auto bad = ReplayWorkload(fresh, fx.pdb, tampered);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->mismatched, 1u);
  EXPECT_EQ(bad->matched, 3u);
  EXPECT_FALSE(bad->Clean());
  ASSERT_FALSE(bad->mismatch_details.empty());
  EXPECT_NE(bad->mismatch_details[0].find("request 3"), std::string::npos)
      << bad->mismatch_details[0];
  std::remove(path.c_str());
}

TEST(ReplayTest, ReplayedAnswersBelowOneMatchBitForBit) {
  // The same oracle on answers that cannot clamp: a sampler nondeterminism
  // would change these bits.
  Fixture fx = MakeFixture(100, kBelowOneDensity);
  const std::string path = "telemetry_test_replay_below_one.jsonl";
  std::remove(path.c_str());

  PqeService::Options sopt;
  sopt.engine = TestOptions();
  sopt.num_threads = 1;
  sopt.capture_path = path;
  {
    PqeService service(sopt);
    std::vector<EvalRequest> reqs;
    for (uint64_t i = 1; i <= 4; ++i) {
      EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
      r.request_id = i;
      if (i % 2 == 0) r.epsilon = 0.35;
      reqs.push_back(r);
    }
    for (const EvalResponse& x : service.EvaluateBatch(reqs)) {
      ASSERT_TRUE(x.status.ok()) << x.status.ToString();
      EXPECT_LT(x.answer.probability, 0.99);
    }
  }

  auto records = LoadWorkloadFile(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  PqeService::Options replay_opts = sopt;
  replay_opts.capture_path.clear();
  PqeService fresh(replay_opts);
  auto report = ReplayWorkload(fresh, fx.pdb, *records);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->replayed, 4u);
  EXPECT_EQ(report->matched, 4u);
  EXPECT_TRUE(report->Clean());
  std::remove(path.c_str());
}

TEST(ReplayTest, DriftAndUnreplayableRecordsAreCountedNotCompared) {
  Fixture fx = MakeFixture(100);
  Fixture drifted = MakeFixture(200);  // same facts, different labelling

  WorkloadRecord ok_record;
  {
    // Capture one real request to get a faithful record.
    const std::string path = "telemetry_test_drift.jsonl";
    std::remove(path.c_str());
    PqeService::Options sopt;
    sopt.engine = TestOptions();
    sopt.num_threads = 1;
    sopt.capture_path = path;
    PqeService service(sopt);
    EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
    r.request_id = 1;
    ASSERT_TRUE(service.EvaluateBatch({r})[0].status.ok());
    auto records = LoadWorkloadFile(path);
    ASSERT_TRUE(records.ok());
    ok_record = (*records)[0];
    std::remove(path.c_str());
  }

  WorkloadRecord dead = ok_record;
  dead.request_id = 2;
  dead.status = "deadline_exceeded";
  WorkloadRecord union_rec = ok_record;
  union_rec.request_id = 3;
  union_rec.target = "union";
  WorkloadRecord config_drift = ok_record;
  config_drift.request_id = 4;
  config_drift.config_hash ^= 1;
  WorkloadRecord bad_query = ok_record;
  bad_query.request_id = 5;
  bad_query.query = "NoSuchRel(x,";

  PqeService::Options sopt;
  sopt.engine = TestOptions();
  sopt.num_threads = 1;
  PqeService service(sopt);

  // Replaying against a drifted labelling: nothing is compared.
  auto drift = ReplayWorkload(service, drifted.pdb, {ok_record});
  ASSERT_TRUE(drift.ok());
  EXPECT_EQ(drift->labelling_drift, 1u);
  EXPECT_EQ(drift->replayed, 0u);
  EXPECT_TRUE(drift->Clean());

  auto report = ReplayWorkload(
      service, fx.pdb, {ok_record, dead, union_rec, config_drift, bad_query});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->total, 5u);
  EXPECT_EQ(report->replayed, 1u);  // only the clean "ok" query record
  EXPECT_EQ(report->matched, 1u);
  EXPECT_EQ(report->skipped_status, 1u);
  EXPECT_EQ(report->skipped_target, 1u);
  EXPECT_EQ(report->config_drift, 1u);
  EXPECT_EQ(report->parse_failures, 1u);
  EXPECT_FALSE(report->Clean());  // parse failures are never clean
  const std::string summary = report->Summary();
  EXPECT_NE(summary.find("5 records"), std::string::npos) << summary;
}

TEST(ReplayTest, CaptureFromTheTwoTierSamplerReplaysAsConfigDrift) {
  // A line captured by the version that still had the scalar sampling tier
  // (same fixture and options), verbatim: its config_hash predates the
  // sampler tag in HashEngineConfig, and it carries the "kernels" key that
  // version wrote. The same line without the key is what versions before
  // that wrote. Either way the record must run as config drift — never be
  // compared against the current sampler's answer, never fail to parse.
  const std::string with_kernels =
      R"json({"request_id":1,"target":"query","query":"R1(x1,x2), )json"
      R"json(R2(x2,x3), R3(x3,x4)","labelling_hash":"0xb9e6e3b58de7c2b5",)json"
      R"json("config_hash":"0x9c4e70cbeec34869","method":"fpras",)json"
      R"json("kernels":"exact","epsilon":0.29999999999999999,)json"
      R"json("seed":"0x3c6ef372fe95f717","deadline_ms":0,"status":"ok",)json"
      R"json("probability":1})json";
  std::string without_kernels = with_kernels;
  const std::string key = R"("kernels":"exact",)";
  without_kernels.erase(without_kernels.find(key), key.size());

  Fixture fx = MakeFixture(100);
  PqeService::Options sopt;
  sopt.engine = TestOptions();
  sopt.num_threads = 1;
  PqeService service(sopt);
  std::vector<WorkloadRecord> records;
  for (const std::string& line : {with_kernels, without_kernels}) {
    auto record = ParseWorkloadRecord(line);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(record->labelling_hash, HashLabelling(fx.pdb));
    EXPECT_NE(record->config_hash, HashEngineConfig(sopt.engine));
    records.push_back(*record);
  }
  auto report = ReplayWorkload(service, fx.pdb, records);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total, 2u);
  EXPECT_EQ(report->config_drift, 2u);
  EXPECT_EQ(report->replayed, 0u);
  EXPECT_EQ(report->mismatched, 0u);
  EXPECT_EQ(report->parse_failures, 0u);
  EXPECT_TRUE(report->Clean());
}

}  // namespace
}  // namespace serve
}  // namespace pqe
