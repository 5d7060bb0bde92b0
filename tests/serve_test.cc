// The serving layer's contract (docs/serving.md): prepared answers are
// bit-identical to cold engine evaluation, the content-keyed cache
// hits/misses/evicts deterministically, deadlines surface as typed statuses
// (never hangs, never throws), and the Options::Builder rejects invalid
// configurations up front.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "cq/builders.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/prepared_cache.h"
#include "serve/prepared_query.h"
#include "serve/service.h"
#include "serve/telemetry.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

PqeEngine::Options ServeOptions() {
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

// A path-route instance (string specialization) with selectable labelling.
struct PathFixture {
  QueryInstance qi;
  ProbabilisticDatabase pdb;
};

PathFixture MakePathFixture(uint64_t prob_seed) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 1.0;
  opt.seed = 7;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = prob_seed;
  return {std::move(qi), AttachProbabilities(std::move(db), pm)};
}

// A tree-route instance (generic NFTA pipeline; star queries are not path
// queries).
PathFixture MakeStarFixture() {
  auto qi = MakeStarQuery(3).MoveValue();
  StarDataOptions opt;
  opt.hubs = 2;
  opt.spokes_per_hub = 2;
  opt.density = 1.0;
  opt.seed = 5;
  auto db = MakeStarDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 11;
  return {std::move(qi), AttachProbabilities(std::move(db), pm)};
}

void ExpectSameAnswer(const PqeAnswer& a, const PqeAnswer& b) {
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.method_used, b.method_used);
  ASSERT_EQ(a.count_stats.has_value(), b.count_stats.has_value());
  if (a.count_stats.has_value()) {
    EXPECT_EQ(a.count_stats->ToString(), b.count_stats->ToString());
  }
}

// --- Options::Builder validation -----------------------------------------

TEST(OptionsBuilderTest, RejectsOutOfRangeEpsilon) {
  EXPECT_FALSE(PqeEngine::Options::Builder().Epsilon(0.0).Build().ok());
  EXPECT_FALSE(PqeEngine::Options::Builder().Epsilon(1.0).Build().ok());
  EXPECT_FALSE(PqeEngine::Options::Builder().Epsilon(-0.5).Build().ok());
  EXPECT_TRUE(PqeEngine::Options::Builder().Epsilon(0.5).Build().ok());
}

TEST(OptionsBuilderTest, RejectsZeroMaxWidth) {
  auto bad = PqeEngine::Options::Builder().MaxWidth(0).Build();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(PqeEngine::Options::Builder().MaxWidth(1).Build().ok());
}

TEST(OptionsBuilderTest, RejectsInconsistentPoolBounds) {
  EXPECT_FALSE(PqeEngine::Options::Builder()
                   .PoolSize(100)
                   .MaxPoolSize(50)
                   .Build()
                   .ok());
  EXPECT_FALSE(PqeEngine::Options::Builder().Repetitions(0).Build().ok());
}

// --- EvaluateRequest ------------------------------------------------------

TEST(EvaluateRequestTest, RepeatedRequestsAreBitIdentical) {
  // The request envelope (with defaults) is the engine's only entry point;
  // identical requests must produce identical answers.
  PathFixture fx = MakePathFixture(100);
  PqeEngine engine(ServeOptions());
  const EvalResponse first =
      engine.EvaluateRequest(EvalRequest::ForQuery(fx.qi.query, fx.pdb));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  const EvalResponse resp =
      engine.EvaluateRequest(EvalRequest::ForQuery(fx.qi.query, fx.pdb));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  ExpectSameAnswer(resp.answer, first.answer);
}

TEST(EvaluateRequestTest, RejectsMissingPointers) {
  PqeEngine engine(ServeOptions());
  EvalRequest r;
  r.target = EvalRequest::Target::kQuery;
  const EvalResponse resp = engine.EvaluateRequest(r);
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
}

// --- Service vs cold engine ----------------------------------------------

TEST(ServeTest, ServedAnswerMatchesColdEngine) {
  PathFixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = ServeOptions();

  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  r.request_id = 1;
  r.seed = 0xabc;

  PqeEngine engine(opts);
  const EvalResponse cold = engine.EvaluateRequest(r);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();

  serve::PqeService::Options sopt;
  sopt.engine = opts;
  sopt.num_threads = 1;
  serve::PqeService service(sopt);
  const EvalResponse served = service.Evaluate(r);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.answer.method_used, PqeMethod::kFpras);
  ExpectSameAnswer(served.answer, cold.answer);
}

TEST(ServeTest, TreeRouteServesThroughPreparedCacheToo) {
  PathFixture fx = MakeStarFixture();
  const PqeEngine::Options opts = ServeOptions();
  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  r.seed = 0xabc;

  PqeEngine engine(opts);
  const EvalResponse cold = engine.EvaluateRequest(r);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();

  serve::PqeService::Options sopt;
  sopt.engine = opts;
  serve::PqeService service(sopt);
  const EvalResponse served = service.Evaluate(r);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  ExpectSameAnswer(served.answer, cold.answer);
  EXPECT_EQ(service.cache().stats().misses, 1u);
}

TEST(ServeTest, SeedlessRequestsDeriveFromRequestId) {
  // The documented contract: a request without a seed runs at
  // DeriveSeed(service seed, request_id), so batch members are independent
  // yet individually reproducible.
  PathFixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = ServeOptions();

  serve::PqeService::Options sopt;
  sopt.engine = opts;
  serve::PqeService service(sopt);
  EvalRequest anon = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  anon.request_id = 5;
  const EvalResponse served = service.Evaluate(anon);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();

  PqeEngine engine(opts);
  EvalRequest pinned = anon;
  pinned.seed = Rng::DeriveSeed(opts.seed, 5);
  const EvalResponse cold = engine.EvaluateRequest(pinned);
  ASSERT_TRUE(cold.status.ok());
  ExpectSameAnswer(served.answer, cold.answer);
}

// --- PreparedCache: hit / miss / eviction determinism ---------------------

TEST(ServeTest, CacheHitsMissesAndEvictsDeterministically) {
  PathFixture a = MakePathFixture(100);
  // A second database with different facts (different generator seed) so the
  // content keys differ.
  auto qi2 = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 0.5;
  opt.seed = 9;
  auto db2 = MakeLayeredPathDatabase(qi2, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 100;
  ProbabilisticDatabase pdb2 = AttachProbabilities(std::move(db2), pm);

  const PqeEngine::Options opts = ServeOptions();
  serve::PqeService::Options sopt;
  sopt.engine = opts;
  sopt.cache_capacity = 1;  // force evictions on alternation
  serve::PqeService service(sopt);

  EvalRequest ra = EvalRequest::ForQuery(a.qi.query, a.pdb);
  ra.seed = 0xabc;
  EvalRequest rb = EvalRequest::ForQuery(qi2.query, pdb2);
  rb.seed = 0xabc;

  PqeEngine engine(opts);
  const EvalResponse cold_a = engine.EvaluateRequest(ra);
  const EvalResponse cold_b = engine.EvaluateRequest(rb);
  ASSERT_TRUE(cold_a.status.ok() && cold_b.status.ok());

  // a: miss; b: miss + evict a; a: miss + evict b; a: hit.
  ExpectSameAnswer(service.Evaluate(ra).answer, cold_a.answer);
  ExpectSameAnswer(service.Evaluate(rb).answer, cold_b.answer);
  ExpectSameAnswer(service.Evaluate(ra).answer, cold_a.answer);
  ExpectSameAnswer(service.Evaluate(ra).answer, cold_a.answer);

  const serve::PreparedCache::Stats stats = service.cache().stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(service.cache().size(), 1u);
}

TEST(ServeTest, ContentKeySeesFactsNotObjectIdentity) {
  PathFixture a = MakePathFixture(100);
  PathFixture b = MakePathFixture(200);  // same facts, different labels
  const uint64_t ka = serve::PreparedCache::ContentKey(
      a.qi.query, a.pdb.database(), /*max_width=*/3);
  const uint64_t kb = serve::PreparedCache::ContentKey(
      b.qi.query, b.pdb.database(), /*max_width=*/3);
  // Probability labels are not part of the key: the skeleton is
  // probability-independent, so both labellings share one PreparedQuery.
  EXPECT_EQ(ka, kb);
  EXPECT_NE(ka, serve::PreparedCache::ContentKey(a.qi.query,
                                                 a.pdb.database(),
                                                 /*max_width=*/4));
}

// --- PreparedQuery: rebind bit-identity and the answer memo ---------------

TEST(ServeTest, RebindMatchesColdBuildBitForBit) {
  PathFixture a = MakePathFixture(100);
  PathFixture b = MakePathFixture(200);  // same facts, new labelling
  const PqeEngine::Options opts = ServeOptions();

  auto prepared = serve::PreparedQuery::Prepare(a.qi.query, a.pdb.database(),
                                                UrConstructionOptions{});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_TRUE((*prepared)->is_path_route());

  EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);
  PqeEngine engine(opts);
  EvalRequest ra = EvalRequest::ForQuery(a.qi.query, a.pdb);
  ra.seed = cfg.seed;
  EvalRequest rb = EvalRequest::ForQuery(b.qi.query, b.pdb);
  rb.seed = cfg.seed;

  // Labelling A (cold bind), labelling B (rebind — delta when B keeps A's
  // denominators, full otherwise), labelling A again (a hit: the bind LRU
  // holds both labellings).
  auto pa = (*prepared)->EvaluateFpras(a.pdb, cfg);
  auto pb = (*prepared)->EvaluateFpras(b.pdb, cfg);
  auto pa2 = (*prepared)->EvaluateFpras(a.pdb, cfg);
  ASSERT_TRUE(pa.ok() && pb.ok() && pa2.ok());
  ExpectSameAnswer(*pa, engine.EvaluateRequest(ra).answer);
  ExpectSameAnswer(*pb, engine.EvaluateRequest(rb).answer);
  ExpectSameAnswer(*pa2, *pa);
  EXPECT_EQ((*prepared)->rebinds() + (*prepared)->delta_rebinds(), 2u);
  EXPECT_EQ((*prepared)->bind_hits(), 1u);
  EXPECT_EQ((*prepared)->bind_evictions(), 0u);
}

TEST(ServeTest, AnswerMemoReplaysIdenticalRequestsOnly) {
  PathFixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = ServeOptions();
  auto prepared = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                                UrConstructionOptions{});
  ASSERT_TRUE(prepared.ok());

  EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);
  auto first = (*prepared)->EvaluateFpras(fx.pdb, cfg);
  auto replay = (*prepared)->EvaluateFpras(fx.pdb, cfg);
  ASSERT_TRUE(first.ok() && replay.ok());
  ExpectSameAnswer(*replay, *first);
  EXPECT_EQ((*prepared)->answer_hits(), 1u);
  EXPECT_EQ((*prepared)->bind_hits(), 1u);

  // A different seed is a different request: fresh samples, no memo hit.
  cfg.seed ^= 1;
  auto fresh = (*prepared)->EvaluateFpras(fx.pdb, cfg);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*prepared)->answer_hits(), 1u);
}

// --- Deadlines: typed status, never a hang --------------------------------

TEST(ServeTest, ExpiredDeadlineReturnsTypedStatus) {
  PathFixture fx = MakePathFixture(100);
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  serve::PqeService service(sopt);

  CancelToken cancelled;
  cancelled.Cancel();
  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  r.request_id = 1;
  r.deadline_ms = 60'000;  // generous deadline; the parent token is what
  r.cancel = &cancelled;   // expires — deterministic in tests
  const std::vector<EvalResponse> resp = service.EvaluateBatch({r});
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_FALSE(resp[0].status.ok());
  EXPECT_EQ(resp[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp[0].deadline_exceeded);
  EXPECT_EQ(resp[0].request_id, 1u);
}

TEST(ServeTest, DeadlineInsideBatchDoesNotPoisonNeighbors) {
  PathFixture fx = MakePathFixture(100);
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  serve::PqeService service(sopt);

  CancelToken cancelled;
  cancelled.Cancel();
  EvalRequest ok_req = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  ok_req.request_id = 1;
  ok_req.seed = 0xabc;
  EvalRequest dead_req = ok_req;
  dead_req.request_id = 2;
  dead_req.cancel = &cancelled;
  const std::vector<EvalResponse> resp =
      service.EvaluateBatch({ok_req, dead_req, ok_req});
  ASSERT_EQ(resp.size(), 3u);
  EXPECT_TRUE(resp[0].status.ok()) << resp[0].status.ToString();
  EXPECT_TRUE(resp[1].deadline_exceeded);
  EXPECT_TRUE(resp[2].status.ok());
  ExpectSameAnswer(resp[2].answer, resp[0].answer);
}

TEST(ServeTest, DeadlineIncrementsStatsCounterAndCarriesProgress) {
  // The deadline-exceeded path in the telemetry plane: the typed status
  // lands in ServiceStats.deadline_exceeded (not errors), and the response
  // carries the partial-progress count from the cancel token — zero strata
  // for a request that expired before evaluation started.
  PathFixture fx = MakePathFixture(100);
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  serve::PqeService service(sopt);

  CancelToken cancelled;
  cancelled.Cancel();
  EvalRequest dead = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  dead.request_id = 1;
  dead.deadline_ms = 60'000;
  dead.cancel = &cancelled;
  EvalRequest alive = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  alive.request_id = 2;
  alive.seed = 0xabc;
  alive.deadline_ms = 60'000;  // a live token, so progress gets reported
  const std::vector<EvalResponse> resp = service.EvaluateBatch({dead, alive});
  ASSERT_EQ(resp.size(), 2u);
  EXPECT_TRUE(resp[0].deadline_exceeded);
  EXPECT_EQ(resp[0].progress, 0u);  // expired before any stratum finished
  EXPECT_TRUE(resp[1].status.ok());
  EXPECT_GT(resp[1].progress, 0u);  // the live twin reports finished strata

  const serve::ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeTest, ServedRequestsCountAsEngineEvaluations) {
  // A served request is an engine evaluation: the prepared FPRAS route adds
  // to pqe.engine.evaluations.fpras, and an expired deadline adds to
  // pqe.engine.deadline_exceeded, as they would on PqeEngine.
  PathFixture fx = MakePathFixture(100);
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  sopt.num_threads = 1;
  serve::PqeService service(sopt);
  obs::Counter& fpras = obs::MetricRegistry::Global().GetCounter(
      "pqe.engine.evaluations.fpras");
  obs::Counter& deadline = obs::MetricRegistry::Global().GetCounter(
      "pqe.engine.deadline_exceeded");

  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  r.request_id = 1;
  const uint64_t fpras_before = fpras.Value();
  const uint64_t deadline_before = deadline.Value();
  ASSERT_TRUE(service.Evaluate(r).status.ok());
  EXPECT_EQ(fpras.Value(), fpras_before + 1);
  EXPECT_EQ(deadline.Value(), deadline_before);

  CancelToken cancelled;
  cancelled.Cancel();
  EvalRequest dead = r;
  dead.request_id = 2;
  dead.cancel = &cancelled;
  EXPECT_TRUE(service.Evaluate(dead).deadline_exceeded);
  EXPECT_EQ(deadline.Value(), deadline_before + 1);
  EXPECT_EQ(fpras.Value(), fpras_before + 1);
}

TEST(ServeTest, RequestHistogramRecordsWholeMicroseconds) {
  // serve.request_us keeps sub-millisecond requests visible: a cold request
  // adds one sample of at least 1 µs, where whole milliseconds read 0.
  PathFixture fx = MakePathFixture(100);
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  serve::PqeService service(sopt);
  obs::Histogram& hist =
      obs::MetricRegistry::Global().GetHistogram("serve.request_us");
  const uint64_t count_before = hist.Count();
  const uint64_t sum_before = hist.Sum();

  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  r.request_id = 1;
  ASSERT_TRUE(service.Evaluate(r).status.ok());
  EXPECT_EQ(hist.Count(), count_before + 1);
  EXPECT_GE(hist.Sum(), sum_before + 1);
}

TEST(ServeTest, StatsSnapshotClassifiesCacheEffectiveness) {
  PathFixture a = MakePathFixture(100);
  PathFixture b = MakePathFixture(200);  // same facts, different labelling
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  sopt.num_threads = 1;
  serve::PqeService service(sopt);

  EvalRequest ra = EvalRequest::ForQuery(a.qi.query, a.pdb);
  ra.request_id = 1;
  ra.seed = 0xabc;
  EvalRequest rb = EvalRequest::ForQuery(b.qi.query, b.pdb);
  rb.request_id = 2;
  rb.seed = 0xabc;
  EvalRequest rc = ra;  // identical to ra after the labelling moved away
  rc.request_id = 3;
  EvalRequest rd = ra;  // identical again: answer memo replay
  rd.request_id = 4;

  // cold compile, rebind (new labelling), answer memo twice: labelling A's
  // bound slot — and its memo — survives in the bind LRU while B is served,
  // so both identical replays hit the memo.
  for (const EvalRequest* r : {&ra, &rb, &rc, &rd}) {
    ASSERT_TRUE(service.Evaluate(*r).status.ok());
  }

  const serve::ServiceStats stats = service.StatsSnapshot();
  using serve::CacheClass;
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(CacheClass::kColdCompile)],
            1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(CacheClass::kRebind)] +
                stats.by_class[static_cast<size_t>(CacheClass::kDeltaRebind)],
            1u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(CacheClass::kAnswerMemo)],
            2u);
  EXPECT_EQ(stats.by_class[static_cast<size_t>(CacheClass::kDelegated)], 0u);

  // Per-stage latencies: every request ran the estimate stage except the
  // memo replay; quantiles come back ordered.
  const serve::ServiceStats::StageStats* total = stats.FindStage("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 4u);
  EXPECT_GT(total->sum_ns, 0u);
  EXPECT_LE(total->p50_ns, total->p95_ns);
  EXPECT_LE(total->p95_ns, total->p99_ns);
  const serve::ServiceStats::StageStats* compile = stats.FindStage("compile");
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(compile->count, 1u);  // only the cold request compiled

  // The slow-query log holds the slowest requests with their excerpts.
  ASSERT_FALSE(stats.slow_queries.empty());
  EXPECT_LE(stats.slow_queries.size(), sopt.slow_log_capacity);
  for (size_t i = 1; i < stats.slow_queries.size(); ++i) {
    EXPECT_GE(stats.slow_queries[i - 1].total_ns,
              stats.slow_queries[i].total_ns);
  }
  EXPECT_NE(stats.slow_queries[0].span_excerpt.find("class="),
            std::string::npos);
}

TEST(ServeTest, BatchTracesCarryRequestId) {
  // Every per-request trace names its request, so batch traces stay
  // attributable. Covers both the prepared route and the delegated route:
  // both run under the engine's request envelope ("engine.evaluate").
  if (!obs::TracingCompiledIn()) GTEST_SKIP() << "tracing compiled out";
  PathFixture fx = MakePathFixture(100);
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  sopt.num_threads = 1;
  serve::PqeService service(sopt);

  EvalRequest prepared = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  prepared.request_id = 11;
  prepared.collect_trace = true;
  EvalRequest delegated = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  delegated.request_id = 12;
  delegated.collect_trace = true;
  delegated.method = PqeMethod::kMonteCarlo;

  const std::vector<EvalResponse> resp =
      service.EvaluateBatch({prepared, delegated});
  ASSERT_EQ(resp.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(resp[i].status.ok()) << resp[i].status.ToString();
    ASSERT_NE(resp[i].answer.trace, nullptr);
    const obs::TraceAttr* attr =
        resp[i].answer.trace->root.FindAttr("request_id");
    ASSERT_NE(attr, nullptr) << "trace root missing request_id";
    EXPECT_EQ(attr->u, 11u + i);
  }
  EXPECT_EQ(resp[0].answer.trace->root.name, "engine.evaluate");
  EXPECT_EQ(resp[1].answer.trace->root.name, "engine.evaluate");
}

// --- Batch API ------------------------------------------------------------

TEST(ServeTest, BatchAssignsIndexIdsAndStaysReproducible) {
  PathFixture fx = MakePathFixture(100);
  serve::PqeService::Options sopt;
  sopt.engine = ServeOptions();
  serve::PqeService service(sopt);

  // request_id 0 means "use the batch index" — two identical anonymous
  // requests at different indices draw different seeds.
  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, fx.pdb);
  const std::vector<EvalResponse> resp = service.EvaluateBatch({r, r});
  ASSERT_EQ(resp.size(), 2u);
  ASSERT_TRUE(resp[0].status.ok() && resp[1].status.ok());
  EXPECT_EQ(resp[0].request_id, 0u);
  EXPECT_EQ(resp[1].request_id, 1u);

  // And the whole batch replays bit-identically.
  const std::vector<EvalResponse> again = service.EvaluateBatch({r, r});
  ExpectSameAnswer(again[0].answer, resp[0].answer);
  ExpectSameAnswer(again[1].answer, resp[1].answer);

  // A second service with a cold cache serves the same answers: they are a
  // function of (request, effective id), not of which service held what.
  serve::PqeService fresh(sopt);
  const std::vector<EvalResponse> cold = fresh.EvaluateBatch({r, r});
  ASSERT_EQ(cold.size(), 2u);
  ASSERT_TRUE(cold[0].status.ok() && cold[1].status.ok());
  ExpectSameAnswer(cold[0].answer, resp[0].answer);
  ExpectSameAnswer(cold[1].answer, resp[1].answer);
}

}  // namespace
}  // namespace pqe
