// Sensor network reliability: a multi-hop relay network whose links are
// observed by noisy sensors. Each hop between relay tiers is a fact with an
// estimated reliability; "can a message travel source → sink?" is a path
// query — exactly the 3Path class the paper proves #P-hard to evaluate
// exactly yet easy to approximate (Corollary 1).
//
//   $ ./sensor_network [hops] [relays_per_tier]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/path_pqe.h"
#include "cq/builders.h"
#include "lineage/karp_luby.h"
#include "lineage/lineage.h"
#include "pdb/probabilistic_database.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/str_cat.h"

int main(int argc, char** argv) {
  using namespace pqe;
  const uint32_t hops = argc > 1 ? std::atoi(argv[1]) : 4;
  const uint32_t relays = argc > 2 ? std::atoi(argv[2]) : 2;
  PQE_CHECK(hops >= 1 && relays >= 1);

  // Query: Hop1(x1,x2), ..., Hop_hops(x_hops, x_hops+1).
  auto qi = MakePathQuery(hops).MoveValue();
  std::printf("network: %u hops, %u relays per tier\n", hops, relays);
  std::printf("query:   %s\n\n", qi.query.ToString(qi.schema).c_str());

  // Data: complete links between adjacent tiers, each with a link quality
  // estimated from sensor readings (rational labels with denominator 100).
  Database db(qi.schema);
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  Rng rng(1234);
  for (uint32_t hop = 0; hop < hops; ++hop) {
    const std::string rel = StrCat("R", hop + 1);
    for (uint32_t a = 0; a < relays; ++a) {
      for (uint32_t b = 0; b < relays; ++b) {
        const uint64_t quality = 55 + rng.NextBounded(43);  // 55%..97%
        PQE_CHECK(pdb.AddFact(rel,
                              {StrCat("t", hop, "_", a),
                               StrCat("t", hop + 1, "_", b)},
                              Probability{quality, 100})
                      .ok());
      }
    }
  }
  std::printf("facts:   %zu probabilistic links\n", pdb.NumFacts());

  // The lineage view: how large would the classical intensional DNF be?
  auto lineage = BuildLineage(qi.query, pdb.database(), 2'000'000);
  if (lineage.ok()) {
    std::printf("lineage: %zu clauses (grows as relays^(hops+1))\n",
                lineage->NumClauses());
  } else {
    std::printf("lineage: exceeds 2e6 clauses — intensional approach off "
                "the table\n");
  }

  // The paper's FPRAS, string specialization for path queries (Section 3 +
  // string-side multiplier gadgets): polynomial in hops AND network size.
  EstimatorConfig cfg;
  cfg.epsilon = 0.15;
  cfg.seed = 99;
  cfg.pool_size = 1024;   // practical-quality knob (see README caveats)
  cfg.repetitions = 3;    // median-of-3 amplification
  auto est = PathPqeEstimate(qi.query, pdb, cfg);
  PQE_CHECK(est.ok());
  std::printf("\nPQEEstimate: end-to-end delivery probability ~ %.4f\n",
              est->probability);
  std::printf("  automaton: %zu states, %zu transitions, word length k=%zu\n",
              est->nfa_states, est->nfa_transitions, est->word_length);
  std::printf("  estimator: %s\n", est->stats.ToString().c_str());

  // Cross-check with Karp–Luby when the lineage is still tractable.
  if (lineage.ok() && lineage->NumClauses() < 100'000) {
    KarpLubyConfig klc;
    klc.epsilon = 0.1;
    klc.seed = 7;
    auto kl = KarpLubyEstimate(*lineage, pdb, klc);
    PQE_CHECK(kl.ok());
    std::printf("\nKarp-Luby (lineage baseline): ~ %.4f  (%zu samples over "
                "%zu clauses)\n",
                kl->probability, kl->samples, kl->clauses);
  }
  return 0;
}
