#include "workload/generators.h"

#include <string>
#include <vector>

#include "util/rng.h"
#include "util/str_cat.h"

namespace pqe {

namespace {

std::string LayerNode(uint32_t layer, uint32_t index) {
  return StrCat("n", layer, "_", index);
}

}  // namespace

Result<Database> MakeLayeredPathDatabase(const QueryInstance& path_query,
                                         const LayeredGraphOptions& options) {
  if (!path_query.query.IsPathQuery()) {
    return Status::InvalidArgument(
        "MakeLayeredPathDatabase expects a path query instance");
  }
  if (options.width == 0) {
    return Status::InvalidArgument("layer width must be >= 1");
  }
  const uint32_t n = static_cast<uint32_t>(path_query.query.NumAtoms());
  Database db(path_query.schema);
  Rng rng(options.seed);
  for (uint32_t i = 0; i < n; ++i) {
    const std::string rel =
        path_query.schema.Name(path_query.query.atom(i).relation);
    for (uint32_t a = 0; a < options.width; ++a) {
      for (uint32_t b = 0; b < options.width; ++b) {
        const bool forced =
            options.ensure_path && a == 0 && b == 0;  // spine edge
        if (forced || rng.NextBernoulli(options.density)) {
          PQE_RETURN_IF_ERROR(
              db.AddFactByName(rel, {LayerNode(i, a), LayerNode(i + 1, b)})
                  .status());
        }
      }
    }
  }
  return db;
}

Result<Database> MakeKgReachabilityDatabase(
    const KgReachabilityOptions& options) {
  if (options.layers == 0 || options.width == 0) {
    return Status::InvalidArgument("kg layers and width must be >= 1");
  }
  if (options.labels.empty()) {
    return Status::InvalidArgument("kg needs at least one edge label");
  }
  Schema schema;
  for (const std::string& label : options.labels) {
    PQE_RETURN_IF_ERROR(schema.AddRelation(label, 2).status());
  }
  Database db(schema);
  Rng rng(options.seed);
  const size_t num_labels = options.labels.size();
  for (uint32_t i = 0; i < options.layers; ++i) {
    for (uint32_t a = 0; a < options.width; ++a) {
      for (uint32_t b = 0; b < options.width; ++b) {
        const bool forced =
            options.ensure_chain && a == 0 && b == 0;  // spine edge
        if (forced) {
          // The spine cycles through the labels so every label appears on a
          // guaranteed chain.
          PQE_RETURN_IF_ERROR(
              db.AddFactByName(options.labels[i % num_labels],
                               {LayerNode(i, a), LayerNode(i + 1, b)})
                  .status());
        } else if (rng.NextBernoulli(options.density)) {
          PQE_RETURN_IF_ERROR(
              db.AddFactByName(options.labels[rng.NextBounded(num_labels)],
                               {LayerNode(i, a), LayerNode(i + 1, b)})
                  .status());
        }
      }
    }
  }
  return db;
}

Result<Database> MakeRandomDatabase(const Schema& schema,
                                    const RandomDatabaseOptions& options) {
  if (options.domain_size == 0) {
    return Status::InvalidArgument("domain size must be >= 1");
  }
  Database db(schema);
  Rng rng(options.seed);
  for (RelationId r = 0; r < schema.NumRelations(); ++r) {
    const uint32_t arity = schema.Arity(r);
    for (uint32_t f = 0; f < options.facts_per_relation; ++f) {
      std::vector<std::string> args;
      args.reserve(arity);
      for (uint32_t i = 0; i < arity; ++i) {
        args.push_back(StrCat("c", rng.NextBounded(options.domain_size)));
      }
      PQE_RETURN_IF_ERROR(
          db.AddFactByName(schema.Name(r), args).status());
    }
  }
  return db;
}

Result<Database> MakeStarDatabase(const QueryInstance& star_query,
                                  const StarDataOptions& options) {
  if (options.hubs == 0 || options.spokes_per_hub == 0) {
    return Status::InvalidArgument("hubs and spokes must be >= 1");
  }
  Database db(star_query.schema);
  Rng rng(options.seed);
  for (const Atom& atom : star_query.query.atoms()) {
    if (atom.vars.size() != 2) {
      return Status::InvalidArgument(
          "MakeStarDatabase expects binary star atoms");
    }
    const std::string rel = star_query.schema.Name(atom.relation);
    for (uint32_t h = 0; h < options.hubs; ++h) {
      bool any = false;
      for (uint32_t s = 0; s < options.spokes_per_hub; ++s) {
        if (rng.NextBernoulli(options.density)) {
          any = true;
          PQE_RETURN_IF_ERROR(
              db.AddFactByName(
                    rel, {StrCat("hub", h), StrCat("leaf", h, "_", s, "_", rel)})
                  .status());
        }
      }
      // Keep every hub usable so star benchmarks have non-trivial answers.
      if (!any) {
        PQE_RETURN_IF_ERROR(
            db.AddFactByName(
                  rel, {StrCat("hub", h), StrCat("leaf", h, "_0_", rel)})
                .status());
      }
    }
  }
  return db;
}

ProbabilisticDatabase AttachProbabilities(Database db,
                                          const ProbabilityModel& model) {
  const size_t n = db.NumFacts();
  std::vector<Probability> probs;
  probs.reserve(n);
  Rng rng(model.seed);
  for (size_t i = 0; i < n; ++i) {
    switch (model.kind) {
      case ProbabilityModel::Kind::kUniformHalf:
        probs.push_back(Probability::Half());
        break;
      case ProbabilityModel::Kind::kFixed:
        probs.push_back(model.fixed);
        break;
      case ProbabilityModel::Kind::kSkewed: {
        const uint64_t den = model.max_denominator < 2
                                 ? 2
                                 : model.max_denominator;
        if (rng.NextBernoulli(0.8)) {
          probs.push_back(Probability{den - 1, den});
        } else {
          probs.push_back(Probability{1, den});
        }
        break;
      }
      case ProbabilityModel::Kind::kRandomRational: {
        const uint64_t max_den = model.max_denominator < 2
                                     ? 2
                                     : model.max_denominator;
        const uint64_t den = 2 + rng.NextBounded(max_den - 1);
        const uint64_t num = 1 + rng.NextBounded(den - 1);
        probs.push_back(Probability{num, den});
        break;
      }
    }
  }
  auto result = ProbabilisticDatabase::Make(std::move(db), std::move(probs));
  // Construction cannot fail: probabilities are valid by construction.
  return result.MoveValue();
}

Result<Database> MakeSnowflakeDatabase(const QueryInstance& snowflake_query,
                                       uint32_t arms, uint32_t depth,
                                       const SnowflakeDataOptions& options) {
  if (options.hubs == 0 || options.fanout == 0) {
    return Status::InvalidArgument("hubs and fanout must be >= 1");
  }
  Database db(snowflake_query.schema);
  Rng rng(options.seed);
  for (uint32_t a = 1; a <= arms; ++a) {
    // Entities at level d of arm a: hubs * fanout^d names.
    uint32_t level_size = options.hubs;
    std::vector<std::string> level;
    for (uint32_t h = 0; h < options.hubs; ++h) {
      level.push_back(StrCat("hub", h));
    }
    for (uint32_t d = 1; d <= depth; ++d) {
      const std::string rel = StrCat("R", a, "_", d);
      std::vector<std::string> next;
      for (uint32_t p = 0; p < level.size(); ++p) {
        bool any = false;
        for (uint32_t c = 0; c < options.fanout; ++c) {
          const std::string child =
              StrCat("a", a, "d", d, "n", p * options.fanout + c);
          if (rng.NextBernoulli(options.density) || (!any && c + 1 ==
                                                     options.fanout)) {
            any = true;
            PQE_RETURN_IF_ERROR(
                db.AddFactByName(rel, {level[p], child}).status());
            next.push_back(child);
          }
        }
      }
      level = std::move(next);
      level_size *= options.fanout;
      (void)level_size;
      if (level.empty()) break;
    }
  }
  return db;
}

}  // namespace pqe
