// Unit and property tests for the hypertree module: GYO join trees, the
// width-k decomposer, validation, completeness, re-rooting, binarization.

#include <string>

#include <gtest/gtest.h>

#include "cq/builders.h"
#include "cq/parser.h"
#include "hypertree/decomposition.h"
#include "util/rng.h"
#include "util/str_cat.h"

namespace pqe {
namespace {

void ExpectValidComplete(const HypertreeDecomposition& hd,
                         const ConjunctiveQuery& q, bool generalized) {
  Status s = hd.Validate(q, generalized);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(hd.IsComplete(q));
}

TEST(GyoTest, PathQueriesHaveWidthOne) {
  for (uint32_t n : {1u, 2u, 5u, 9u}) {
    auto qi = MakePathQuery(n).MoveValue();
    auto hd = DecomposeAcyclic(qi.query);
    ASSERT_TRUE(hd.ok()) << "n=" << n;
    EXPECT_EQ(hd->Width(), 1u);
    ExpectValidComplete(*hd, qi.query, /*generalized=*/false);
  }
}

TEST(GyoTest, StarAndCaterpillarAreAcyclic) {
  auto star = MakeStarQuery(5).MoveValue();
  auto hd1 = DecomposeAcyclic(star.query);
  ASSERT_TRUE(hd1.ok());
  ExpectValidComplete(*hd1, star.query, false);

  auto cat = MakeCaterpillarQuery(4).MoveValue();
  auto hd2 = DecomposeAcyclic(cat.query);
  ASSERT_TRUE(hd2.ok());
  EXPECT_EQ(hd2->Width(), 1u);
  ExpectValidComplete(*hd2, cat.query, false);
}

TEST(GyoTest, CyclesAreRejected) {
  for (uint32_t n : {3u, 4u, 6u}) {
    auto qi = MakeCycleQuery(n).MoveValue();
    EXPECT_EQ(DecomposeAcyclic(qi.query).status().code(),
              StatusCode::kNotSupported)
        << "n=" << n;
  }
}

TEST(DecomposeTest, CyclesGetWidthTwo) {
  for (uint32_t n : {3u, 4u, 5u, 6u}) {
    auto qi = MakeCycleQuery(n).MoveValue();
    auto hd = Decompose(qi.query, 2);
    ASSERT_TRUE(hd.ok()) << "n=" << n << ": " << hd.status().ToString();
    EXPECT_LE(hd->Width(), 2u);
    ExpectValidComplete(*hd, qi.query, /*generalized=*/true);
  }
}

// Clique queries K_n (one binary atom per variable pair) have generalized
// hypertree width ceil(n/2): K4 fits width 2, K5 needs width 3.
Result<ConjunctiveQuery> MakeCliqueQuery(Schema* schema, uint32_t n) {
  uint32_t rel = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      PQE_RETURN_IF_ERROR(
          schema->AddRelation(StrCat("K", rel++), 2).status());
    }
  }
  ConjunctiveQuery::Builder builder(schema);
  rel = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      PQE_RETURN_IF_ERROR(builder.AddAtom(StrCat("K", rel++),
                                          {StrCat("x", i), StrCat("x", j)}));
    }
  }
  return builder.Build();
}

TEST(DecomposeTest, CliqueWidths) {
  {
    Schema schema;
    auto k4 = MakeCliqueQuery(&schema, 4).MoveValue();
    EXPECT_EQ(Decompose(k4, 1).status().code(), StatusCode::kNotSupported);
    auto hd = Decompose(k4, 2);
    ASSERT_TRUE(hd.ok()) << hd.status().ToString();
    ExpectValidComplete(*hd, k4, /*generalized=*/true);
  }
  {
    Schema schema;
    auto k5 = MakeCliqueQuery(&schema, 5).MoveValue();
    EXPECT_EQ(Decompose(k5, 2).status().code(), StatusCode::kNotSupported);
    auto hd = Decompose(k5, 3);
    ASSERT_TRUE(hd.ok()) << hd.status().ToString();
    EXPECT_LE(hd->Width(), 3u);
    ExpectValidComplete(*hd, k5, /*generalized=*/true);
  }
}

TEST(DecomposeTest, WidthBudgetIsRespected) {
  auto qi = MakeCycleQuery(5).MoveValue();
  EXPECT_EQ(Decompose(qi.query, 1).status().code(),
            StatusCode::kNotSupported);
  EXPECT_FALSE(Decompose(qi.query, 0).ok());
}

TEST(DecomposeTest, HypertreeWidthUpTo) {
  EXPECT_EQ(HypertreeWidthUpTo(MakePathQuery(4)->query, 3).value(), 1u);
  EXPECT_EQ(HypertreeWidthUpTo(MakeCycleQuery(4)->query, 3).value(), 2u);
}

TEST(ValidateTest, DetectsBrokenConditions) {
  auto qi = MakePathQuery(2).MoveValue();
  const ConjunctiveQuery& q = qi.query;
  // Condition 1: an atom whose variables appear in no χ.
  {
    HypertreeDecomposition hd;
    hd.AddNode({q.atom(0).vars[0], q.atom(0).vars[1]}, {0}, -1);
    EXPECT_FALSE(hd.Validate(q).ok());
  }
  // Condition 2: variable occurrences form a disconnected set.
  {
    HypertreeDecomposition hd;
    // Chain p0 - p1 - p2 where x1 appears at p0 and p2 but not p1.
    uint32_t p0 = hd.AddNode({0, 1}, {0}, -1);
    uint32_t p1 = hd.AddNode({1, 2}, {1}, static_cast<int32_t>(p0));
    hd.AddNode({0, 1}, {0}, static_cast<int32_t>(p1));
    EXPECT_FALSE(hd.Validate(q).ok());
  }
  // Condition 3: χ not covered by vars(ξ).
  {
    HypertreeDecomposition hd;
    uint32_t p0 = hd.AddNode({0, 1, 2}, {0}, -1);
    hd.AddNode({1, 2}, {1}, static_cast<int32_t>(p0));
    EXPECT_FALSE(hd.Validate(q).ok());
  }
}

TEST(ValidateTest, Condition4DistinguishesGeneralized) {
  // Construct a decomposition violating only the special condition:
  // root ξ={R1} but χ drops a variable of R1 that reappears below.
  auto qi = MakePathQuery(2).MoveValue();
  const ConjunctiveQuery& q = qi.query;  // R1(x1,x2), R2(x2,x3)
  HypertreeDecomposition hd;
  // Root lists R2 in ξ but drops x3 from χ; x3 reappears in the child's χ:
  // vars(ξ(p0)) ∩ χ(T_p0) ∋ x3 ∉ χ(p0) — only the special condition fails.
  uint32_t p0 = hd.AddNode({0, 1}, {0, 1}, -1);
  hd.AddNode({1, 2}, {1}, static_cast<int32_t>(p0));
  Status generalized = hd.Validate(q, /*generalized=*/true);
  EXPECT_TRUE(generalized.ok()) << generalized.ToString();
  EXPECT_FALSE(hd.Validate(q, /*generalized=*/false).ok());
}

TEST(CompletenessTest, MakeCompleteAddsCoveringVertices) {
  // E(x,y), L(x): a single node covering E satisfies conditions 1-4 (L's
  // variable x sits inside χ) but L has no covering vertex.
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("L", 1).ok());
  auto q = ParseQuery(schema, "E(x,y), L(x)").MoveValue();
  HypertreeDecomposition hd;
  hd.AddNode({0, 1}, {0}, -1);
  ASSERT_TRUE(hd.Validate(q).ok());
  EXPECT_FALSE(hd.IsComplete(q));
  ASSERT_TRUE(hd.MakeComplete(q).ok());
  EXPECT_TRUE(hd.IsComplete(q));
  EXPECT_EQ(hd.NumNodes(), 2u);
  // The paper's transform attaches p_A as a child of a host with
  // vars(A) ⊆ χ(host); the result must still validate.
  Status s = hd.Validate(q);
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto cover = hd.MinimalCoveringVertices(q);
  EXPECT_EQ(cover[0], 0);
  EXPECT_EQ(cover[1], 1);
}

TEST(CoveringTest, MinimalCoveringVerticesFollowDepthOrder) {
  auto qi = MakePathQuery(3).MoveValue();
  auto hd = Decompose(qi.query, 1).MoveValue();
  auto cover = hd.MinimalCoveringVertices(qi.query);
  ASSERT_EQ(cover.size(), 3u);
  for (int32_t c : cover) ASSERT_GE(c, 0);
  // Minimality: no shallower covering vertex exists.
  auto order = hd.DepthOrderedVertices();
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t p : order) {
      if (p == static_cast<uint32_t>(cover[a])) break;
      EXPECT_FALSE(hd.IsCoveringVertex(qi.query, p, a));
    }
  }
}

TEST(ReRootTest, PreservesGeneralizedValidity) {
  auto qi = MakePathQuery(4).MoveValue();
  auto hd = Decompose(qi.query, 1).MoveValue();
  const size_t nodes = hd.NumNodes();
  for (uint32_t p = 0; p < nodes; ++p) {
    HypertreeDecomposition copy = hd;
    copy.ReRoot(p);
    EXPECT_EQ(copy.root(), p);
    EXPECT_EQ(copy.NumNodes(), nodes);
    Status s = copy.Validate(qi.query, /*generalized=*/true);
    EXPECT_TRUE(s.ok()) << "reroot at " << p << ": " << s.ToString();
    EXPECT_TRUE(copy.IsComplete(qi.query));
    EXPECT_EQ(copy.node(p).depth, 0u);
  }
}

TEST(BinarizeTest, CapsFanoutAndPreservesValidity) {
  auto qi = MakeStarQuery(6).MoveValue();
  auto hd = Decompose(qi.query, 1).MoveValue();
  hd.Binarize();
  for (uint32_t p = 0; p < hd.NumNodes(); ++p) {
    EXPECT_LE(hd.node(p).children.size(), 2u);
  }
  Status s = hd.Validate(qi.query, /*generalized=*/true);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(hd.IsComplete(qi.query));
}

TEST(DepthOrderTest, NonDecreasingDepth) {
  auto qi = MakeCaterpillarQuery(4).MoveValue();
  auto hd = Decompose(qi.query, 1).MoveValue();
  auto order = hd.DepthOrderedVertices();
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_LE(hd.node(order[i]).depth, hd.node(order[i + 1]).depth);
  }
}

// ---------------------------------------------------------------------------
// Property sweep: random acyclic-ish queries must decompose and validate.
// ---------------------------------------------------------------------------

class RandomQueryDecomposition : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryDecomposition, DecomposeValidates) {
  Rng rng(GetParam());
  // Build a random connected query of mixed unary/binary atoms over a small
  // variable pool (a random "tree plus extra unary labels" shape).
  const uint32_t num_vars = 2 + static_cast<uint32_t>(rng.NextBounded(5));
  Schema schema;
  ConjunctiveQuery::Builder* builder = nullptr;
  std::vector<std::string> vars;
  for (uint32_t v = 0; v < num_vars; ++v) {
    vars.push_back(StrCat("v", v));
  }
  uint32_t rel = 0;
  std::vector<std::pair<std::string, std::vector<std::string>>> atoms;
  // Spanning chain keeps the query connected.
  for (uint32_t v = 0; v + 1 < num_vars; ++v) {
    atoms.push_back({StrCat("E", rel++), {vars[v], vars[v + 1]}});
  }
  // Extra random atoms.
  const uint32_t extra = static_cast<uint32_t>(rng.NextBounded(3));
  for (uint32_t i = 0; i < extra; ++i) {
    if (rng.NextBernoulli(0.5)) {
      atoms.push_back({StrCat("L", rel++),
                       {vars[rng.NextBounded(num_vars)]}});
    } else {
      atoms.push_back({StrCat("E", rel++),
                       {vars[rng.NextBounded(num_vars)],
                        vars[rng.NextBounded(num_vars)]}});
    }
  }
  for (const auto& [name, args] : atoms) {
    ASSERT_TRUE(
        schema.AddRelation(name, static_cast<uint32_t>(args.size())).ok());
  }
  ConjunctiveQuery::Builder b(&schema);
  builder = &b;
  for (const auto& [name, args] : atoms) {
    ASSERT_TRUE(builder->AddAtom(name, args).ok());
  }
  auto q = builder->Build();
  ASSERT_TRUE(q.ok());

  auto hd = Decompose(*q, 3);
  ASSERT_TRUE(hd.ok()) << hd.status().ToString();
  ExpectValidComplete(*hd, *q, /*generalized=*/true);

  // The automaton pipeline's normalizations keep it valid too.
  hd->Binarize();
  ExpectValidComplete(*hd, *q, /*generalized=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryDecomposition,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace pqe
