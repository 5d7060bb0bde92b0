#include "cq/builders.h"

#include <string>
#include <vector>

#include "util/str_cat.h"

namespace pqe {

namespace {

std::string Var(uint32_t i) { return StrCat("x", i); }

}  // namespace

Result<QueryInstance> MakePathQuery(uint32_t n) {
  if (n < 1) return Status::InvalidArgument("path query needs n >= 1");
  Schema schema;
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        schema.AddRelation(StrCat("R", i), 2).status());
  }
  ConjunctiveQuery::Builder builder(&schema);
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        builder.AddAtom(StrCat("R", i), {Var(i), Var(i + 1)}));
  }
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q, builder.Build());
  return QueryInstance{std::move(schema), std::move(q)};
}

Result<QueryInstance> MakeStarQuery(uint32_t n) {
  if (n < 1) return Status::InvalidArgument("star query needs n >= 1");
  Schema schema;
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        schema.AddRelation(StrCat("R", i), 2).status());
  }
  ConjunctiveQuery::Builder builder(&schema);
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        builder.AddAtom(StrCat("R", i), {Var(0), Var(i)}));
  }
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q, builder.Build());
  return QueryInstance{std::move(schema), std::move(q)};
}

Result<QueryInstance> MakeCycleQuery(uint32_t n) {
  if (n < 2) return Status::InvalidArgument("cycle query needs n >= 2");
  Schema schema;
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        schema.AddRelation(StrCat("R", i), 2).status());
  }
  ConjunctiveQuery::Builder builder(&schema);
  for (uint32_t i = 1; i <= n; ++i) {
    uint32_t next = (i == n) ? 1 : i + 1;
    PQE_RETURN_IF_ERROR(
        builder.AddAtom(StrCat("R", i), {Var(i), Var(next)}));
  }
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q, builder.Build());
  return QueryInstance{std::move(schema), std::move(q)};
}

Result<QueryInstance> MakeH0Query() {
  Schema schema;
  PQE_RETURN_IF_ERROR(schema.AddRelation("R", 1).status());
  PQE_RETURN_IF_ERROR(schema.AddRelation("S", 2).status());
  PQE_RETURN_IF_ERROR(schema.AddRelation("T", 1).status());
  ConjunctiveQuery::Builder builder(&schema);
  PQE_RETURN_IF_ERROR(builder.AddAtom("R", {"x"}));
  PQE_RETURN_IF_ERROR(builder.AddAtom("S", {"x", "y"}));
  PQE_RETURN_IF_ERROR(builder.AddAtom("T", {"y"}));
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q, builder.Build());
  return QueryInstance{std::move(schema), std::move(q)};
}

Result<QueryInstance> MakeSelfJoinPathQuery(uint32_t n) {
  if (n < 2) return Status::InvalidArgument("self-join path needs n >= 2");
  Schema schema;
  PQE_RETURN_IF_ERROR(schema.AddRelation("R", 2).status());
  ConjunctiveQuery::Builder builder(&schema);
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(builder.AddAtom("R", {Var(i), Var(i + 1)}));
  }
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q, builder.Build());
  return QueryInstance{std::move(schema), std::move(q)};
}

Result<QueryInstance> MakeCaterpillarQuery(uint32_t n) {
  if (n < 2) return Status::InvalidArgument("caterpillar query needs n >= 2");
  Schema schema;
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        schema.AddRelation(StrCat("R", i), 2).status());
  }
  for (uint32_t i = 2; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        schema.AddRelation(StrCat("L", i), 1).status());
  }
  ConjunctiveQuery::Builder builder(&schema);
  for (uint32_t i = 1; i <= n; ++i) {
    PQE_RETURN_IF_ERROR(
        builder.AddAtom(StrCat("R", i), {Var(i), Var(i + 1)}));
    if (i >= 2) {
      PQE_RETURN_IF_ERROR(
          builder.AddAtom(StrCat("L", i), {Var(i)}));
    }
  }
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q, builder.Build());
  return QueryInstance{std::move(schema), std::move(q)};
}

Result<QueryInstance> MakeSnowflakeQuery(uint32_t arms, uint32_t depth) {
  if (arms < 1 || depth < 1) {
    return Status::InvalidArgument("snowflake query needs arms, depth >= 1");
  }
  Schema schema;
  for (uint32_t a = 1; a <= arms; ++a) {
    for (uint32_t d = 1; d <= depth; ++d) {
      PQE_RETURN_IF_ERROR(
          schema.AddRelation(StrCat("R", a, "_", d), 2).status());
    }
  }
  ConjunctiveQuery::Builder builder(&schema);
  for (uint32_t a = 1; a <= arms; ++a) {
    std::string prev = "x0";
    for (uint32_t d = 1; d <= depth; ++d) {
      std::string next = StrCat("y", a, "_", d);
      PQE_RETURN_IF_ERROR(
          builder.AddAtom(StrCat("R", a, "_", d), {prev, next}));
      prev = next;
    }
  }
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery q, builder.Build());
  return QueryInstance{std::move(schema), std::move(q)};
}

}  // namespace pqe
