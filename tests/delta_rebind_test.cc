// Incremental-maintenance contracts (docs/serving.md "Incremental
// maintenance"): a delta rebind — patching the gadget slots of changed
// facts inside a cloned bound automaton — is bit-identical to a full bind
// of the updated labelling, on both the string and tree routes, for
// single-fact, multi-fact, and degenerate (p→0, p→1) deltas; denominator
// changes are rejected at the core level and fall back to a full rebind
// transparently at the serve level; answer memos are invalidated
// selectively (the prior labelling's memo survives in the bind LRU); and
// PqeService::ApplyUpdate keeps served answers bit-identical to cold
// evaluation of the updated database, including under concurrent updates
// and batch evaluation (the TSan target).

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/projection.h"
#include "core/ur_construction.h"
#include "cq/builders.h"
#include "serve/prepared_query.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

PqeEngine::Options PinnedOptions() {
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

struct Fixture {
  QueryInstance qi;
  ProbabilisticDatabase pdb;
};

// At density 1.0 the path query is near certain and the FPRAS answer clamps
// to exactly 1; kBelowOneDensity keeps the answer a sampled value below 1.
constexpr double kBelowOneDensity = 0.6;

// String-route instance (self-join-free path query).
Fixture MakePathFixture(uint64_t prob_seed, double density = 1.0) {
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

// Tree-route instance (star queries are not path queries).
Fixture MakeStarFixture(uint64_t prob_seed) {
  auto qi = MakeStarQuery(3).MoveValue();
  StarDataOptions opt;
  opt.hubs = 2;
  opt.spokes_per_hub = 2;
  opt.density = 1.0;
  opt.seed = 5;
  auto db = MakeStarDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = prob_seed;
  return {std::move(qi), AttachProbabilities(std::move(db), pm)};
}

// The delta matrix every bit-identity test walks: numerator-only updates of
// one fact, several facts, and the degenerate endpoints. Entries are
// (projected index, new numerator) pairs applied to a probs vector.
enum class DeltaKind { kSingle, kMulti, kToZero, kToOne };

std::vector<Probability> ApplyKind(std::vector<Probability> probs,
                                   DeltaKind kind) {
  auto bump = [&](size_t i, uint64_t shift) {
    probs[i].num = (probs[i].num + shift) % (probs[i].den + 1);
  };
  switch (kind) {
    case DeltaKind::kSingle:
      bump(0, 1);
      break;
    case DeltaKind::kMulti:
      for (size_t i = 0; i < 3 && i < probs.size(); ++i) bump(i, i + 1);
      break;
    case DeltaKind::kToZero:
      probs[0].num = 0;
      break;
    case DeltaKind::kToOne:
      probs[0].num = probs[0].den;
      break;
  }
  return probs;
}

constexpr DeltaKind kAllKinds[] = {DeltaKind::kSingle, DeltaKind::kMulti,
                                   DeltaKind::kToZero, DeltaKind::kToOne};

void ExpectBitIdenticalAnswer(const PqeAnswer& a, const PqeAnswer& b) {
  // The acceptance criterion is memcmp on the probability, not ==: two
  // doubles can compare equal without being the same bits (-0.0 vs 0.0).
  EXPECT_EQ(std::memcmp(&a.probability, &b.probability, sizeof(double)), 0)
      << a.probability << " vs " << b.probability;
  ASSERT_EQ(a.count_stats.has_value(), b.count_stats.has_value());
  if (a.count_stats.has_value()) {
    EXPECT_EQ(a.count_stats->ToString(), b.count_stats->ToString());
  }
}

// --- Core, string route ----------------------------------------------------

TEST(DeltaRebindTest, PathPatchMatchesFullBindAcrossDeltaMatrix) {
  Fixture fx = MakePathFixture(100);
  auto sk = BuildPathPqeSkeleton(fx.qi.query, fx.pdb.database());
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  auto probs = ProjectedFactProbabilities(sk->original_fact, fx.pdb);
  ASSERT_TRUE(probs.ok());

  auto prior = BindPathPqeNfa(*sk, *probs);
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();

  for (DeltaKind kind : kAllKinds) {
    const std::vector<Probability> next = ApplyKind(*probs, kind);
    size_t patched = 0;
    auto delta = RebindPathPqeNfa(*prior, *probs, next, &patched);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    auto fresh = BindPathPqeNfa(*sk, next);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(delta->nfa.DebugString(), fresh->nfa.DebugString());
    EXPECT_EQ(delta->word_length, fresh->word_length);
    EXPECT_TRUE(delta->denominator == fresh->denominator);
    if (kind == DeltaKind::kSingle) {
      EXPECT_GT(patched, 0u);
    }
  }

  // An empty delta patches nothing and reproduces the prior bind.
  size_t patched = 0;
  auto noop = RebindPathPqeNfa(*prior, *probs, *probs, &patched);
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(patched, 0u);
  EXPECT_EQ(noop->nfa.DebugString(), prior->nfa.DebugString());
}

TEST(DeltaRebindTest, PathPatchChainsAcrossSuccessiveDeltas) {
  // Patch-of-a-patch: the clone must stay patchable (layout shared, CSR
  // invalidation correct) so a stream of updates never degrades.
  Fixture fx = MakePathFixture(100);
  auto sk = BuildPathPqeSkeleton(fx.qi.query, fx.pdb.database());
  ASSERT_TRUE(sk.ok());
  auto probs = ProjectedFactProbabilities(sk->original_fact, fx.pdb);
  ASSERT_TRUE(probs.ok());

  auto bound = BindPathPqeNfa(*sk, *probs);
  ASSERT_TRUE(bound.ok());
  std::vector<Probability> cur = *probs;
  for (DeltaKind kind : kAllKinds) {
    const std::vector<Probability> next = ApplyKind(cur, kind);
    auto patched = RebindPathPqeNfa(*bound, cur, next, nullptr);
    ASSERT_TRUE(patched.ok()) << patched.status().ToString();
    auto fresh = BindPathPqeNfa(*sk, next);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(patched->nfa.DebugString(), fresh->nfa.DebugString());
    bound = std::move(patched);
    cur = next;
  }
}

TEST(DeltaRebindTest, PathPatchRejectsDenominatorChange) {
  Fixture fx = MakePathFixture(100);
  auto sk = BuildPathPqeSkeleton(fx.qi.query, fx.pdb.database());
  ASSERT_TRUE(sk.ok());
  auto probs = ProjectedFactProbabilities(sk->original_fact, fx.pdb);
  ASSERT_TRUE(probs.ok());
  auto prior = BindPathPqeNfa(*sk, *probs);
  ASSERT_TRUE(prior.ok());

  std::vector<Probability> next = *probs;
  next[0].den += 1;  // shape change: slot widths were sized for the old den
  auto rebind = RebindPathPqeNfa(*prior, *probs, next, nullptr);
  ASSERT_FALSE(rebind.ok());
  EXPECT_EQ(rebind.status().code(), StatusCode::kInvalidArgument);

  // Mismatched probs length is an input error, not a crash.
  std::vector<Probability> short_probs(*probs);
  short_probs.pop_back();
  auto bad = RebindPathPqeNfa(*prior, *probs, short_probs, nullptr);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// --- Core, tree route ------------------------------------------------------

TEST(DeltaRebindTest, TreePatchMatchesFullBindAcrossDeltaMatrix) {
  Fixture fx = MakeStarFixture(11);
  auto sk = BuildPqeSkeleton(fx.qi.query, fx.pdb.database(),
                             UrConstructionOptions{});
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  auto probs = ProjectedFactProbabilities(sk->original_fact, fx.pdb);
  ASSERT_TRUE(probs.ok());

  auto prior = BindPqeAutomaton(*sk, *probs);
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();

  for (DeltaKind kind : kAllKinds) {
    const std::vector<Probability> next = ApplyKind(*probs, kind);
    size_t patched = 0;
    auto delta = RebindPqeAutomaton(*prior, *probs, next, &patched);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    auto fresh = BindPqeAutomaton(*sk, next);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(delta->weighted.DebugString(), fresh->weighted.DebugString());
    EXPECT_EQ(delta->tree_size, fresh->tree_size);
    EXPECT_TRUE(delta->denominator == fresh->denominator);
    if (kind == DeltaKind::kSingle) {
      EXPECT_GT(patched, 0u);
    }
  }
}

TEST(DeltaRebindTest, TreePatchRejectsDenominatorChange) {
  Fixture fx = MakeStarFixture(11);
  auto sk = BuildPqeSkeleton(fx.qi.query, fx.pdb.database(),
                             UrConstructionOptions{});
  ASSERT_TRUE(sk.ok());
  auto probs = ProjectedFactProbabilities(sk->original_fact, fx.pdb);
  ASSERT_TRUE(probs.ok());
  auto prior = BindPqeAutomaton(*sk, *probs);
  ASSERT_TRUE(prior.ok());

  std::vector<Probability> next = *probs;
  next[0].den += 1;
  auto rebind = RebindPqeAutomaton(*prior, *probs, next, nullptr);
  ASSERT_FALSE(rebind.ok());
  EXPECT_EQ(rebind.status().code(), StatusCode::kInvalidArgument);
}

// --- PreparedQuery::Rebind -------------------------------------------------

serve::LabelDelta SingleFactDelta(const serve::PreparedQuery& prepared,
                                  const ProbabilisticDatabase& pdb) {
  const FactId fact = prepared.original_fact()[0];
  const Probability p = pdb.probability(fact);
  return {{fact}, {Probability{(p.num + 1) % (p.den + 1), p.den}}};
}

TEST(DeltaRebindTest, RebindBeforeAnyBindIsNotFound) {
  Fixture fx = MakePathFixture(100);
  auto prepared = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                                UrConstructionOptions{});
  ASSERT_TRUE(prepared.ok());
  auto stats = (*prepared)->Rebind(SingleFactDelta(**prepared, fx.pdb));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST(DeltaRebindTest, RebindPatchesAndNextEvaluationIsWarm) {
  Fixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = PinnedOptions();
  auto prepared = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                                UrConstructionOptions{});
  ASSERT_TRUE(prepared.ok());

  EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);
  ASSERT_TRUE((*prepared)->EvaluateFpras(fx.pdb, cfg).ok());
  ASSERT_EQ((*prepared)->rebinds(), 1u);

  const serve::LabelDelta delta = SingleFactDelta(**prepared, fx.pdb);
  auto stats = (*prepared)->Rebind(delta);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->reused);
  EXPECT_TRUE(stats->delta);
  EXPECT_GT(stats->patched_slots, 0u);
  EXPECT_EQ((*prepared)->delta_rebinds(), 1u);

  // The patched bind is MRU: evaluating the updated labelling is a warm
  // bind hit, and the answer matches the cold engine on the updated pdb.
  ProbabilisticDatabase updated = fx.pdb;
  ASSERT_TRUE(updated.SetProbability(delta.facts[0], delta.new_probs[0]).ok());
  auto warm = (*prepared)->EvaluateFpras(updated, cfg);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ((*prepared)->bind_hits(), 1u);
  EXPECT_EQ((*prepared)->rebinds(), 1u);  // no second full bind

  PqeEngine engine(opts);
  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, updated);
  r.seed = cfg.seed;
  const EvalResponse cold = engine.EvaluateRequest(r);
  ASSERT_TRUE(cold.status.ok());
  ExpectBitIdenticalAnswer(*warm, cold.answer);
}

TEST(DeltaRebindTest, RebindDenominatorChangeFallsBackToFullBind) {
  Fixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = PinnedOptions();
  auto prepared = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                                UrConstructionOptions{});
  ASSERT_TRUE(prepared.ok());
  EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);
  ASSERT_TRUE((*prepared)->EvaluateFpras(fx.pdb, cfg).ok());

  const FactId fact = (*prepared)->original_fact()[0];
  const Probability p = fx.pdb.probability(fact);
  serve::LabelDelta delta{{fact}, {Probability{p.num, p.den + 1}}};
  auto stats = (*prepared)->Rebind(delta);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->delta);  // shape change: transparent full rebind
  EXPECT_EQ((*prepared)->rebinds(), 2u);
  EXPECT_EQ((*prepared)->delta_rebinds(), 0u);

  ProbabilisticDatabase updated = fx.pdb;
  ASSERT_TRUE(updated.SetProbability(fact, delta.new_probs[0]).ok());
  auto warm = (*prepared)->EvaluateFpras(updated, cfg);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ((*prepared)->bind_hits(), 1u);

  PqeEngine engine(opts);
  EvalRequest r = EvalRequest::ForQuery(fx.qi.query, updated);
  r.seed = cfg.seed;
  ExpectBitIdenticalAnswer(*warm, engine.EvaluateRequest(r).answer);
}

TEST(DeltaRebindTest, AnswerMemoInvalidationIsSelective) {
  // An update must never serve a stale memoized answer for the NEW
  // labelling, while the OLD labelling's memo stays valid in the bind LRU.
  Fixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = PinnedOptions();
  auto prepared = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                                UrConstructionOptions{});
  ASSERT_TRUE(prepared.ok());
  EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);

  auto first = (*prepared)->EvaluateFpras(fx.pdb, cfg);  // memo fills
  ASSERT_TRUE(first.ok());

  const serve::LabelDelta delta = SingleFactDelta(**prepared, fx.pdb);
  ASSERT_TRUE((*prepared)->Rebind(delta).ok());
  ProbabilisticDatabase updated = fx.pdb;
  ASSERT_TRUE(updated.SetProbability(delta.facts[0], delta.new_probs[0]).ok());

  // New labelling: fresh Bound, fresh memo — the sampler must run.
  auto after = (*prepared)->EvaluateFpras(updated, cfg);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*prepared)->answer_hits(), 0u);
  // A stale memo would return `first` verbatim. Pr(Q) is near 1 on this
  // fixture, so both probabilities may clamp to 1.0; the sampler's run
  // statistics still tell the two labellings apart.
  ASSERT_TRUE(first->count_stats.has_value() && after->count_stats.has_value());
  EXPECT_TRUE(std::memcmp(&first->probability, &after->probability,
                          sizeof(double)) != 0 ||
              first->count_stats->ToString() != after->count_stats->ToString())
      << "delta did not change the answer; the memo check is vacuous";

  // Old labelling: its Bound survived in the LRU, memo replay allowed.
  auto replay = (*prepared)->EvaluateFpras(fx.pdb, cfg);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ((*prepared)->answer_hits(), 1u);
  ExpectBitIdenticalAnswer(*replay, *first);

  // And the updated labelling memoizes independently.
  auto again = (*prepared)->EvaluateFpras(updated, cfg);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*prepared)->answer_hits(), 2u);
  ExpectBitIdenticalAnswer(*again, *after);
}

TEST(DeltaRebindTest, BindLruEvictsAndCounts) {
  Fixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = PinnedOptions();
  EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);

  ProbabilisticDatabase other = fx.pdb;
  const FactId fact = 0;
  const Probability p = fx.pdb.probability(fact);
  ASSERT_TRUE(
      other.SetProbability(fact, {(p.num + 1) % (p.den + 1), p.den}).ok());

  // Capacity 1: alternating labellings evicts on every switch.
  auto tight = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                             UrConstructionOptions{},
                                             /*bind_cache_capacity=*/1);
  ASSERT_TRUE(tight.ok());
  ASSERT_TRUE((*tight)->EvaluateFpras(fx.pdb, cfg).ok());
  ASSERT_TRUE((*tight)->EvaluateFpras(other, cfg).ok());
  ASSERT_TRUE((*tight)->EvaluateFpras(fx.pdb, cfg).ok());
  EXPECT_EQ((*tight)->bind_evictions(), 2u);
  EXPECT_EQ((*tight)->bind_hits(), 0u);
  EXPECT_EQ((*tight)->rebinds() + (*tight)->delta_rebinds(), 3u);
  EXPECT_GT((*tight)->delta_rebinds(), 0u);  // evicted ≠ unpatchable

  // The default capacity (4) keeps both labellings: no evictions, a hit.
  auto roomy = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                             UrConstructionOptions{});
  ASSERT_TRUE(roomy.ok());
  ASSERT_TRUE((*roomy)->EvaluateFpras(fx.pdb, cfg).ok());
  ASSERT_TRUE((*roomy)->EvaluateFpras(other, cfg).ok());
  ASSERT_TRUE((*roomy)->EvaluateFpras(fx.pdb, cfg).ok());
  EXPECT_EQ((*roomy)->bind_evictions(), 0u);
  EXPECT_GE((*roomy)->bind_hits() + (*roomy)->answer_hits(), 1u);
}

TEST(DeltaRebindTest, ConcurrentBindsAreSingleFlight) {
  Fixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = PinnedOptions();
  EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);
  auto prepared = serve::PreparedQuery::Prepare(fx.qi.query, fx.pdb.database(),
                                                UrConstructionOptions{});
  ASSERT_TRUE(prepared.ok());

  constexpr size_t kThreads = 8;
  std::atomic<size_t> ready{0};
  std::vector<PqeAnswer> answers(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // start together so misses overlap
      auto ans = (*prepared)->EvaluateFpras(fx.pdb, cfg);
      ASSERT_TRUE(ans.ok()) << ans.status().ToString();
      answers[t] = *ans;
    });
  }
  for (auto& th : threads) th.join();

  // Exactly one thread ran the gadget expansion; every other call either
  // joined the in-flight build (single flight) or found the completed slot.
  EXPECT_EQ((*prepared)->rebinds(), 1u);
  EXPECT_EQ((*prepared)->delta_rebinds(), 0u);
  EXPECT_EQ((*prepared)->avoided_rebinds() + (*prepared)->bind_hits(),
            kThreads - 1);
  for (size_t t = 1; t < kThreads; ++t) {
    ExpectBitIdenticalAnswer(answers[t], answers[0]);
  }
}

// --- PqeService::ApplyUpdate -----------------------------------------------

TEST(DeltaRebindTest, ServiceUpdateBitIdentityMatrix) {
  // Both routes × the full delta matrix: after every ApplyUpdate, a served
  // answer must memcmp-equal a cold engine evaluation of the updated
  // database.
  struct Route {
    const char* name;
    Fixture fx;
  };
  Route routes[] = {{"path", MakePathFixture(100)},
                    {"tree", MakeStarFixture(11)}};
  for (Route& route : routes) {
    SCOPED_TRACE(route.name);
    const PqeEngine::Options opts = PinnedOptions();
    serve::PqeService::Options sopt;
    sopt.engine = opts;
    sopt.num_threads = 1;
    serve::PqeService service(sopt);
    PqeEngine cold(opts);

    ProbabilisticDatabase pdb = route.fx.pdb;
    uint64_t next_id = 1;
    auto serve_and_check = [&] {
      EvalRequest r = EvalRequest::ForQuery(route.fx.qi.query, pdb);
      r.request_id = next_id++;
      r.seed = 0xabc;
      const std::vector<EvalResponse> served = service.EvaluateBatch({r});
      ASSERT_EQ(served.size(), 1u);
      ASSERT_TRUE(served[0].status.ok()) << served[0].status.ToString();
      const EvalResponse want = cold.EvaluateRequest(r);
      ASSERT_TRUE(want.status.ok());
      ExpectBitIdenticalAnswer(served[0].answer, want.answer);
    };
    serve_and_check();  // resident prepared query for the updates to hit

    for (DeltaKind kind : kAllKinds) {
      // Build the delta against the database's current labels, in
      // original FactIds (facts 0..2 are in the projection for these
      // generators' single-relation-per-atom instances).
      serve::LabelDelta delta;
      const std::vector<Probability> before = [&] {
        std::vector<Probability> out;
        for (FactId f = 0; f < 3; ++f) out.push_back(pdb.probability(f));
        return out;
      }();
      const std::vector<Probability> after = ApplyKind(before, kind);
      for (FactId f = 0; f < 3; ++f) {
        if (before[f].num == after[f].num) continue;
        delta.facts.push_back(f);
        delta.new_probs.push_back(after[f]);
      }
      if (delta.facts.empty()) continue;  // degenerate was already there
      auto stats = service.ApplyUpdate(&pdb, delta);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->facts, delta.facts.size());
      EXPECT_GE(stats->prepared_visited, 1u);
      EXPECT_EQ(stats->delta_rebinds, 1u);  // numerator-only: always patch
      EXPECT_EQ(stats->full_rebinds, 0u);
      serve_and_check();
    }
  }
}

TEST(DeltaRebindTest, ServiceUpdatesBelowOneMatchCold) {
  // The path route of ServiceUpdateBitIdentityMatrix on answers that cannot
  // clamp to 1, so the memcmp compares sampled bits.
  Fixture fx = MakePathFixture(100, kBelowOneDensity);
  const PqeEngine::Options opts = PinnedOptions();
  serve::PqeService::Options sopt;
  sopt.engine = opts;
  sopt.num_threads = 1;
  serve::PqeService service(sopt);
  PqeEngine cold(opts);

  ProbabilisticDatabase pdb = fx.pdb;
  uint64_t next_id = 1;
  double served_probability = 0.0;
  auto serve_and_check = [&] {
    EvalRequest r = EvalRequest::ForQuery(fx.qi.query, pdb);
    r.request_id = next_id++;
    r.seed = 0xabc;
    const std::vector<EvalResponse> served = service.EvaluateBatch({r});
    ASSERT_EQ(served.size(), 1u);
    ASSERT_TRUE(served[0].status.ok()) << served[0].status.ToString();
    const EvalResponse want = cold.EvaluateRequest(r);
    ASSERT_TRUE(want.status.ok());
    ExpectBitIdenticalAnswer(served[0].answer, want.answer);
    served_probability = served[0].answer.probability;
  };
  serve_and_check();
  // Some deltas raise the estimate to the clamp; the fixture's own answer
  // must stay below it.
  EXPECT_LT(served_probability, 0.99);

  for (DeltaKind kind : kAllKinds) {
    std::vector<Probability> before;
    for (FactId f = 0; f < 3; ++f) before.push_back(pdb.probability(f));
    const std::vector<Probability> after = ApplyKind(before, kind);
    serve::LabelDelta delta;
    for (FactId f = 0; f < 3; ++f) {
      if (before[f].num == after[f].num) continue;
      delta.facts.push_back(f);
      delta.new_probs.push_back(after[f]);
    }
    if (delta.facts.empty()) continue;
    auto stats = service.ApplyUpdate(&pdb, delta);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->delta_rebinds, 1u);
    serve_and_check();
  }
}

TEST(DeltaRebindTest, ConcurrentUpdatesAndBatchesStayDeterministic) {
  // The TSan target: one thread streams ApplyUpdate into its own database
  // while evaluator threads serve batches over private snapshots. All of
  // them share the service — prepared cache, bind LRU, single-flight slots,
  // memos, telemetry — and every served answer must still memcmp-equal the
  // cold evaluation of its snapshot, no matter how updates interleave.
  Fixture fx = MakePathFixture(100);
  const PqeEngine::Options opts = PinnedOptions();
  serve::PqeService::Options sopt;
  sopt.engine = opts;
  serve::PqeService service(sopt);
  PqeEngine cold_engine(opts);

  // Two fixed labellings the evaluators pin, plus their cold answers.
  ProbabilisticDatabase snapshots[2] = {fx.pdb, fx.pdb};
  {
    const Probability p = fx.pdb.probability(1);
    ASSERT_TRUE(snapshots[1]
                    .SetProbability(1, {(p.num + 1) % (p.den + 1), p.den})
                    .ok());
  }
  PqeAnswer cold[2];
  for (size_t i = 0; i < 2; ++i) {
    EvalRequest r = EvalRequest::ForQuery(fx.qi.query, snapshots[i]);
    r.request_id = i + 1;
    r.seed = 0xabc;
    const EvalResponse resp = cold_engine.EvaluateRequest(r);
    ASSERT_TRUE(resp.status.ok());
    cold[i] = resp.answer;
  }

  std::atomic<bool> failed{false};
  std::thread updater([&] {
    ProbabilisticDatabase pdb = fx.pdb;  // the updater's own database
    for (size_t iter = 0; iter < 48 && !failed.load(); ++iter) {
      const FactId fact = iter % 3;
      const Probability p = pdb.probability(fact);
      serve::LabelDelta delta{
          {fact}, {Probability{(p.num + 1) % (p.den + 1), p.den}}};
      if (!service.ApplyUpdate(&pdb, delta).ok()) failed.store(true);
    }
  });
  std::vector<std::thread> evaluators;
  for (size_t i = 0; i < 2; ++i) {
    evaluators.emplace_back([&, i] {
      for (size_t iter = 0; iter < 16 && !failed.load(); ++iter) {
        EvalRequest r = EvalRequest::ForQuery(fx.qi.query, snapshots[i]);
        r.request_id = i + 1;
        r.seed = 0xabc;
        const std::vector<EvalResponse> resp = service.EvaluateBatch({r});
        if (resp.size() != 1 || !resp[0].status.ok() ||
            std::memcmp(&resp[0].answer.probability, &cold[i].probability,
                        sizeof(double)) != 0) {
          failed.store(true);
        }
      }
    });
  }
  updater.join();
  for (auto& th : evaluators) th.join();
  EXPECT_FALSE(failed.load());

  const serve::ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.requests, 32u);
}

TEST(DeltaRebindTest, ConcurrentUpdatesBelowOneStayDeterministic) {
  // ConcurrentUpdatesAndBatchesStayDeterministic on answers that cannot
  // clamp to 1: evaluators serving two pinned labellings while an updater
  // streams ApplyUpdate must reproduce the cold answers' sampled bits.
  Fixture fx = MakePathFixture(100, kBelowOneDensity);
  const PqeEngine::Options opts = PinnedOptions();
  serve::PqeService::Options sopt;
  sopt.engine = opts;
  serve::PqeService service(sopt);
  PqeEngine cold_engine(opts);

  ProbabilisticDatabase snapshots[2] = {fx.pdb, fx.pdb};
  {
    const Probability p = fx.pdb.probability(1);
    ASSERT_TRUE(snapshots[1]
                    .SetProbability(1, {(p.num + 1) % (p.den + 1), p.den})
                    .ok());
  }
  PqeAnswer cold[2];
  for (size_t i = 0; i < 2; ++i) {
    EvalRequest r = EvalRequest::ForQuery(fx.qi.query, snapshots[i]);
    r.request_id = i + 1;
    r.seed = 0xabc;
    const EvalResponse resp = cold_engine.EvaluateRequest(r);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_LT(resp.answer.probability, 0.99);
    cold[i] = resp.answer;
  }

  std::atomic<bool> failed{false};
  std::thread updater([&] {
    ProbabilisticDatabase pdb = fx.pdb;
    for (size_t iter = 0; iter < 24 && !failed.load(); ++iter) {
      const FactId fact = iter % 3;
      const Probability p = pdb.probability(fact);
      serve::LabelDelta delta{
          {fact}, {Probability{(p.num + 1) % (p.den + 1), p.den}}};
      if (!service.ApplyUpdate(&pdb, delta).ok()) failed.store(true);
    }
  });
  std::vector<std::thread> evaluators;
  for (size_t i = 0; i < 2; ++i) {
    evaluators.emplace_back([&, i] {
      for (size_t iter = 0; iter < 8 && !failed.load(); ++iter) {
        EvalRequest r = EvalRequest::ForQuery(fx.qi.query, snapshots[i]);
        r.request_id = i + 1;
        r.seed = 0xabc;
        const std::vector<EvalResponse> resp = service.EvaluateBatch({r});
        if (resp.size() != 1 || !resp[0].status.ok() ||
            std::memcmp(&resp[0].answer.probability, &cold[i].probability,
                        sizeof(double)) != 0) {
          failed.store(true);
        }
      }
    });
  }
  updater.join();
  for (auto& th : evaluators) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(service.StatsSnapshot().errors, 0u);
}

}  // namespace
}  // namespace pqe
