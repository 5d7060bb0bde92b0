// Coverage harness for the FPRAS guarantee: an estimate lands in
// (1 ± ε)·Pr(Q) with probability at least 1 − δ. Any change to sampling code
// must keep this test green.
//
// Instances come from the differential fuzz suite's random self-join-free
// queries (tree and path routes) and from regular path queries over random
// knowledge-graph layers (RPQ route). Every instance runs the engine's
// FPRAS at K fixed seeds and is compared with an exact oracle (world
// enumeration). A single estimate may legitimately miss the band, so no
// run is asserted alone; instead the number of misses over all runs must be
// consistent, by a one-sided binomial test, with a miss probability of at
// most δ (kDelta).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "counting/config.h"
#include "eval/eval.h"
#include "random_instance.h"
#include "rpq/product.h"
#include "rpq/regex.h"
#include "workload/generators.h"

namespace pqe {
namespace {

constexpr size_t kSeedsPerInstance = 4;
constexpr double kEpsilon = 0.1;
// The miss probability the guarantee allows.
constexpr double kDelta = 0.1;
// Fuzz seeds scanned for CQ instances; enumeration keeps the oracle exact.
constexpr uint64_t kFuzzSeeds = 40;
constexpr size_t kMaxEnumeratedFacts = 14;
// Significance of the binomial test: a correct sampler fails it with
// probability at most this (and the seeds are fixed, so it never flakes).
constexpr double kAlpha = 1e-3;

enum class Route { kTree, kPath, kRpq };

const char* RouteName(Route r) {
  switch (r) {
    case Route::kTree:
      return "tree";
    case Route::kPath:
      return "path";
    case Route::kRpq:
      return "rpq";
  }
  return "?";
}

// P[X >= misses] for X ~ Binomial(trials, p).
double BinomialUpperTail(size_t trials, size_t misses, double p) {
  double tail = 0.0;
  for (size_t k = misses; k <= trials; ++k) {
    const double log_term =
        std::lgamma(static_cast<double>(trials) + 1.0) -
        std::lgamma(static_cast<double>(k) + 1.0) -
        std::lgamma(static_cast<double>(trials - k) + 1.0) +
        static_cast<double>(k) * std::log(p) +
        static_cast<double>(trials - k) * std::log1p(-p);
    tail += std::exp(log_term);
  }
  return std::min(tail, 1.0);
}

struct Tally {
  size_t runs = 0;
  size_t misses = 0;
};

class CoverageHarness {
 public:
  // Runs one instance at every harness seed and tallies band misses.
  void Run(Route route, const std::string& name, double truth,
           const EvalRequest& request) {
    for (size_t k = 0; k < kSeedsPerInstance; ++k) {
      auto opts = PqeEngine::Options::Builder()
                      .Method(PqeMethod::kFpras)
                      .Epsilon(kEpsilon)
                      .Seed(0xc0de + 7919 * k)
                      .Build();
      ASSERT_TRUE(opts.ok()) << opts.status().ToString();
      const EvalResponse r = PqeEngine(*opts).EvaluateRequest(request);
      // The FPRAS's width budget may reject a cyclic instance: a routing
      // outcome, not a coverage sample.
      if (r.status.code() == StatusCode::kNotSupported ||
          r.status.code() == StatusCode::kResourceExhausted) {
        return;
      }
      ASSERT_TRUE(r.status.ok()) << name << ": " << r.status.ToString();
      const double rel = std::fabs(r.answer.probability / truth - 1.0);
      Tally& t = tallies_[static_cast<size_t>(route)];
      ++t.runs;
      if (rel > kEpsilon) ++t.misses;
    }
  }

  Tally Total() const {
    Tally all;
    for (const Tally& t : tallies_) {
      all.runs += t.runs;
      all.misses += t.misses;
    }
    return all;
  }

  const Tally& ByRoute(Route r) const {
    return tallies_[static_cast<size_t>(r)];
  }

 private:
  Tally tallies_[3];
};

void AddCqInstances(CoverageHarness* harness) {
  for (uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
    auto inst_or = test::MakeRandomInstance(seed);
    ASSERT_TRUE(inst_or.ok()) << inst_or.status().ToString();
    const test::RandomInstance& inst = *inst_or;
    if (inst.pdb.NumFacts() > kMaxEnumeratedFacts) continue;
    auto truth = ExactProbabilityByEnumeration(inst.pdb, inst.query);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    const double p = truth->ToDouble();
    if (p <= 0.0) continue;  // est/p is undefined; zero is decided exactly
    const Route route =
        inst.query.IsPathQuery() ? Route::kPath : Route::kTree;
    harness->Run(route, "fuzz seed " + std::to_string(seed), p,
                 EvalRequest::ForQuery(inst.query, inst.pdb));
  }
}

void AddRpqInstances(CoverageHarness* harness) {
  for (const char* text : {"a/b", "a/(a|b)*/a", "(a|b)+", "a?/b"}) {
    for (uint64_t seed : {3u, 5u, 9u}) {
      KgReachabilityOptions kopt;
      kopt.layers = 3;
      kopt.width = 2;
      kopt.density = 0.6;
      kopt.seed = seed;
      ProbabilityModel pm;
      pm.max_denominator = 8;
      pm.seed = seed + 1;
      ProbabilisticDatabase pdb = AttachProbabilities(
          MakeKgReachabilityDatabase(kopt).MoveValue(), pm);
      auto q = rpq::RpqQuery::Parse(text).MoveValue();
      auto truth = rpq::ExactRpqProbabilityByEnumeration(q, pdb);
      ASSERT_TRUE(truth.ok()) << truth.status().ToString();
      const double p = truth->ToDouble();
      if (p <= 0.0) continue;
      harness->Run(Route::kRpq,
                   std::string(text) + " kg seed " + std::to_string(seed), p,
                   EvalRequest::ForRpq(q, pdb));
    }
  }
}

TEST(FprasCoverageTest, BandMissesConsistentWithDelta) {
  CoverageHarness harness;
  AddCqInstances(&harness);
  AddRpqInstances(&harness);
  for (Route r : {Route::kTree, Route::kPath, Route::kRpq}) {
    // Every route must actually be exercised.
    EXPECT_GT(harness.ByRoute(r).runs, 0u) << RouteName(r);
    std::printf("[coverage] %s: %zu/%zu runs outside (1±%.2f)\n",
                RouteName(r), harness.ByRoute(r).misses,
                harness.ByRoute(r).runs, kEpsilon);
  }
  const Tally all = harness.Total();
  const double tail = BinomialUpperTail(all.runs, all.misses, kDelta);
  std::printf("[coverage] total: %zu/%zu misses, P[X >= %zu] = %.3g under "
              "delta = %.2f\n",
              all.misses, all.runs, all.misses, tail, kDelta);
  EXPECT_GE(tail, kAlpha) << all.misses << " of " << all.runs
                          << " estimates missed the band: more than delta "
                             "allows";
}

}  // namespace
}  // namespace pqe
