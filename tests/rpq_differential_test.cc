// Differential suite for the RPQ lowering contract (docs/rpq.md): a
// concatenation-only regex IS a linear path query, and its answers must be
// bit-identical to the legacy path_pqe route — same skeleton, same bind,
// same sampler draws. Random instances sweep query length, graph shape, and
// seeds; every comparison is memcmp on the probability's bits, across
// thread counts, and through the serving layer.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "cq/builders.h"
#include "rpq/eval.h"
#include "rpq/regex.h"
#include "serve/service.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

struct Instance {
  QueryInstance qi;
  ProbabilisticDatabase pdb;
  rpq::RpqQuery rpq;
};

// A random linear-path instance: the concat-only regex spelled from the
// path query's relation names, so the two routes ask the same question.
Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  const uint32_t length = 2 + static_cast<uint32_t>(rng.NextBounded(3));
  auto qi = MakePathQuery(length).MoveValue();
  LayeredGraphOptions gopt;
  // Kept small: the point is route identity, not load — word length grows
  // with facts × denominators and large draws here just burn minutes.
  gopt.width = 2 + static_cast<uint32_t>(rng.NextBounded(2));
  gopt.density = 0.4 + 0.2 * static_cast<double>(rng.NextBounded(3));
  gopt.seed = rng.NextBounded(1u << 20);
  auto db = MakeLayeredPathDatabase(qi, gopt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 2 + rng.NextBounded(7);
  pm.seed = rng.NextBounded(1u << 20);
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  std::string text;
  for (size_t i = 0; i < qi.query.NumAtoms(); ++i) {
    if (!text.empty()) text += "/";
    text += qi.schema.Name(qi.query.atom(i).relation);
  }
  auto rq = rpq::RpqQuery::Parse(text).MoveValue();
  EXPECT_TRUE(rq.IsLinearChain());
  return Instance{std::move(qi), std::move(pdb), std::move(rq)};
}

void ExpectBitIdentical(const EvalResponse& a, const EvalResponse& b,
                        const std::string& what) {
  ASSERT_TRUE(a.status.ok()) << what << ": " << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << what << ": " << b.status.ToString();
  EXPECT_EQ(std::memcmp(&a.answer.probability, &b.answer.probability,
                        sizeof(double)),
            0)
      << what << ": rpq=" << a.answer.probability
      << " path=" << b.answer.probability;
}

TEST(RpqDifferentialTest, ConcatOnlyRegexMatchesPathRouteBitForBit) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Instance in = MakeInstance(seed);
    for (size_t threads : {size_t{1}, size_t{3}}) {
      auto opts = PqeEngine::Options::Builder()
                      .Method(PqeMethod::kFpras)
                      .Epsilon(0.3)
                      .Seed(0xd1f ^ seed)
                      .PoolSize(32)
                      .Repetitions(threads)  // exercise the parallel reps
                      .NumThreads(threads)
                      .Build();
      ASSERT_TRUE(opts.ok());
      PqeEngine engine(*opts);
      const EvalResponse via_rpq =
          engine.EvaluateRequest(EvalRequest::ForRpq(in.rpq, in.pdb));
      const EvalResponse via_path =
          engine.EvaluateRequest(EvalRequest::ForQuery(in.qi.query, in.pdb));
      ExpectBitIdentical(via_rpq, via_path,
                         "seed " + std::to_string(seed) + " threads " +
                             std::to_string(threads));
    }
  }
}

TEST(RpqDifferentialTest, LoweringProducesThePathSkeletonExactly) {
  // Not just equal answers: the exact counts agree too, so the lowering is
  // the identical construction, not a numerically-close cousin.
  for (uint64_t seed : {21u, 22u, 23u}) {
    Instance in = MakeInstance(seed);
    auto rpq_exact = rpq::RpqExact(in.rpq, in.pdb);
    ASSERT_TRUE(rpq_exact.ok()) << rpq_exact.status().ToString();
    auto path_exact = PathPqeExact(in.qi.query, in.pdb);
    ASSERT_TRUE(path_exact.ok());
    EXPECT_EQ(rpq_exact->Compare(*path_exact), 0)
        << "seed " << seed << ": rpq " << rpq_exact->ToString() << " vs path "
        << path_exact->ToString();
  }
}

TEST(RpqDifferentialTest, ServedRpqMatchesServedPathBitForBit) {
  // The serving layer's prepared RPQ route against its prepared CQ route:
  // same lowered skeleton, same binds, same answers.
  for (uint64_t seed : {31u, 32u}) {
    Instance in = MakeInstance(seed);
    auto opts = PqeEngine::Options::Builder()
                    .Method(PqeMethod::kFpras)
                    .Epsilon(0.3)
                    .Seed(0x5e0 ^ seed)
                    .PoolSize(32)
                    .Repetitions(1)
                    .NumThreads(1)
                    .Build();
    ASSERT_TRUE(opts.ok());
    serve::PqeService::Options sopt;
    sopt.engine = *opts;
    sopt.num_threads = 1;
    serve::PqeService service(sopt);

    std::vector<EvalRequest> reqs;
    for (size_t i = 0; i < 4; ++i) {
      EvalRequest r = EvalRequest::ForRpq(in.rpq, in.pdb);
      r.request_id = 2 * i + 1;
      r.seed = 0x9e1 + i;
      reqs.push_back(r);
      EvalRequest p = EvalRequest::ForQuery(in.qi.query, in.pdb);
      p.request_id = 2 * i + 2;
      p.seed = 0x9e1 + i;
      reqs.push_back(p);
    }
    const std::vector<EvalResponse> resp = service.EvaluateBatch(reqs);
    ASSERT_EQ(resp.size(), reqs.size());
    for (size_t i = 0; i < resp.size(); i += 2) {
      ExpectBitIdentical(resp[i], resp[i + 1],
                         "seed " + std::to_string(seed) + " pair " +
                             std::to_string(i / 2));
    }
  }
}

}  // namespace
}  // namespace pqe
