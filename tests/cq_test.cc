// Unit tests for the cq module: query construction, parsing, and the
// structural analyses (self-join-freeness, hierarchy, path shape).

#include <gtest/gtest.h>

#include "cq/builders.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "util/str_cat.h"

namespace pqe {
namespace {

Schema PathSchema(int n) {
  Schema schema;
  for (int i = 1; i <= n; ++i) {
    EXPECT_TRUE(schema.AddRelation(StrCat("R", i), 2).ok());
  }
  return schema;
}

TEST(QueryBuilderTest, InternsVariablesAcrossAtoms) {
  Schema schema = PathSchema(2);
  ConjunctiveQuery::Builder builder(&schema);
  ASSERT_TRUE(builder.AddAtom("R1", {"x", "y"}).ok());
  ASSERT_TRUE(builder.AddAtom("R2", {"y", "z"}).ok());
  auto q = builder.Build();
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->NumAtoms(), 2u);
  EXPECT_EQ(q->NumVars(), 3u);
  // y is shared: it occurs in both atoms.
  bool found_shared = false;
  for (VarId v = 0; v < q->NumVars(); ++v) {
    if (q->VarName(v) == "y") {
      EXPECT_EQ(q->AtomsOfVar(v).size(), 2u);
      found_shared = true;
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST(QueryBuilderTest, RejectsBadAtoms) {
  Schema schema = PathSchema(1);
  {
    ConjunctiveQuery::Builder builder(&schema);
    EXPECT_FALSE(builder.AddAtom("NoSuch", {"x", "y"}).ok());
    EXPECT_FALSE(builder.Build().ok());  // failure is sticky
  }
  {
    ConjunctiveQuery::Builder builder(&schema);
    EXPECT_FALSE(builder.AddAtom("R1", {"x"}).ok());  // arity
  }
  {
    ConjunctiveQuery::Builder builder(&schema);
    EXPECT_FALSE(builder.Build().ok());  // no atoms
  }
}

TEST(ParserTest, ParsesWellFormedQueries) {
  Schema schema = PathSchema(2);
  auto q = ParseQuery(schema, " R1( x , y ),R2(y,z) ");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->NumAtoms(), 2u);
  EXPECT_EQ(q->ToString(schema), "R1(x,y), R2(y,z)");
}

TEST(ParserTest, RejectsMalformedQueries) {
  Schema schema = PathSchema(2);
  EXPECT_FALSE(ParseQuery(schema, "").ok());
  EXPECT_FALSE(ParseQuery(schema, "R1(x,y").ok());
  EXPECT_FALSE(ParseQuery(schema, "R1 x,y)").ok());
  EXPECT_FALSE(ParseQuery(schema, "R1(x,y),").ok());
  EXPECT_FALSE(ParseQuery(schema, "R1(x,y) R2(y,z)").ok());
  EXPECT_FALSE(ParseQuery(schema, "R1()").ok());
  EXPECT_FALSE(ParseQuery(schema, "NoSuch(x,y)").ok());
  EXPECT_FALSE(ParseQuery(schema, "R1(x,y,z)").ok());  // arity
}

TEST(ParserTest, ExtendingSchemaInfersArity) {
  Schema schema;
  auto q = ParseQueryExtendingSchema(&schema, "Edge(x,y), Label(x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(schema.Arity(schema.FindRelation("Edge").value()), 2u);
  EXPECT_EQ(schema.Arity(schema.FindRelation("Label").value()), 1u);
  // Later atom with conflicting arity fails.
  Schema schema2;
  EXPECT_FALSE(
      ParseQueryExtendingSchema(&schema2, "E(x,y), E(x)").ok());
}

TEST(StructureTest, SelfJoinFreeness) {
  Schema schema = PathSchema(2);
  EXPECT_TRUE(ParseQuery(schema, "R1(x,y), R2(y,z)")->IsSelfJoinFree());
  EXPECT_FALSE(ParseQuery(schema, "R1(x,y), R1(y,z)")->IsSelfJoinFree());
}

TEST(StructureTest, HierarchyMatchesDalviSuciuExamples) {
  // Star queries are hierarchical (safe), paths of length >= 2 are not.
  EXPECT_TRUE(MakeStarQuery(3)->query.IsHierarchical());
  EXPECT_TRUE(MakePathQuery(1)->query.IsHierarchical());
  // Length-2 paths are still hierarchical; the 3Path class (length >= 3,
  // Section 1.1) is where #P-hardness kicks in.
  EXPECT_TRUE(MakePathQuery(2)->query.IsHierarchical());
  EXPECT_FALSE(MakePathQuery(3)->query.IsHierarchical());
  EXPECT_FALSE(MakePathQuery(5)->query.IsHierarchical());
  EXPECT_FALSE(MakeH0Query()->query.IsHierarchical());
  EXPECT_FALSE(MakeCaterpillarQuery(3)->query.IsHierarchical());
}

TEST(StructureTest, PathDetection) {
  EXPECT_TRUE(MakePathQuery(1)->query.IsPathQuery());
  EXPECT_TRUE(MakePathQuery(4)->query.IsPathQuery());
  EXPECT_FALSE(MakeStarQuery(2)->query.IsPathQuery());
  EXPECT_FALSE(MakeCycleQuery(3)->query.IsPathQuery());
  EXPECT_FALSE(MakeH0Query()->query.IsPathQuery());
  // Self-join path is still shaped like a path.
  EXPECT_TRUE(MakeSelfJoinPathQuery(3)->query.IsPathQuery());
}

TEST(BuildersTest, FamilyShapes) {
  auto path = MakePathQuery(4).MoveValue();
  EXPECT_EQ(path.query.NumAtoms(), 4u);
  EXPECT_EQ(path.query.NumVars(), 5u);
  EXPECT_TRUE(path.query.IsSelfJoinFree());

  auto star = MakeStarQuery(4).MoveValue();
  EXPECT_EQ(star.query.NumAtoms(), 4u);
  EXPECT_EQ(star.query.NumVars(), 5u);

  auto cycle = MakeCycleQuery(4).MoveValue();
  EXPECT_EQ(cycle.query.NumAtoms(), 4u);
  EXPECT_EQ(cycle.query.NumVars(), 4u);

  auto h0 = MakeH0Query().MoveValue();
  EXPECT_EQ(h0.query.NumAtoms(), 3u);
  EXPECT_TRUE(h0.query.IsSelfJoinFree());

  auto cat = MakeCaterpillarQuery(3).MoveValue();
  EXPECT_EQ(cat.query.NumAtoms(), 2u * 3u - 1u);
  EXPECT_TRUE(cat.query.IsSelfJoinFree());

  auto sj = MakeSelfJoinPathQuery(3).MoveValue();
  EXPECT_FALSE(sj.query.IsSelfJoinFree());
}

TEST(BuildersTest, SnowflakeShapes) {
  auto flake = MakeSnowflakeQuery(3, 2).MoveValue();
  EXPECT_EQ(flake.query.NumAtoms(), 6u);
  EXPECT_EQ(flake.query.NumVars(), 1u + 6u);
  EXPECT_TRUE(flake.query.IsSelfJoinFree());
  EXPECT_FALSE(flake.query.IsHierarchical());  // arms>=2, depth>=2
  // Depth-1 snowflake is a star: hierarchical.
  EXPECT_TRUE(MakeSnowflakeQuery(3, 1)->query.IsHierarchical());
  EXPECT_FALSE(MakeSnowflakeQuery(0, 1).ok());
  EXPECT_FALSE(MakeSnowflakeQuery(1, 0).ok());
}

TEST(BuildersTest, RejectDegenerateSizes) {
  EXPECT_FALSE(MakePathQuery(0).ok());
  EXPECT_FALSE(MakeStarQuery(0).ok());
  EXPECT_FALSE(MakeCycleQuery(1).ok());
  EXPECT_FALSE(MakeCaterpillarQuery(1).ok());
  EXPECT_FALSE(MakeSelfJoinPathQuery(1).ok());
}

// Hierarchy check is decided per connected pair of variables; exercise a
// query mixing disjoint and nested variable scopes.
TEST(StructureTest, HierarchyWithDisjointComponents) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("A", 2).ok());
  ASSERT_TRUE(schema.AddRelation("B", 1).ok());
  ASSERT_TRUE(schema.AddRelation("C", 2).ok());
  // A(x,y), B(x) is hierarchical; C(u,v) is a disjoint component.
  auto q = ParseQuery(schema, "A(x,y), B(x), C(u,v)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsHierarchical());
}

}  // namespace
}  // namespace pqe
