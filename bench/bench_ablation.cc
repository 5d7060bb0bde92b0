// Ablation — design-choice costs called out in DESIGN.md: what do the
// stratum-pruning passes in CountNFTA buy?
//
// Finding (kept honest): on the gadget-expanded PQE automata the *forward*
// feasibility pass already collapses the strata — every state generates
// trees of essentially one size — so disabling the *backward* usefulness
// pass changes nothing there. Backward pruning pays off on automata whose
// states generate trees of many sizes (part 2: general NFTAs), where it
// removes the strata that cannot occur inside any accepted tree of size n.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/path_pqe.h"
#include "core/pqe.h"
#include "counting/count_nfta.h"
#include "cq/builders.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void PqePart() {
  std::printf(
      "Part 1 — PQE pipeline automata (size-determined; expectation: no "
      "change):\n");
  std::printf("%-8s %-10s %-16s %-14s %-12s %-12s\n", "|D|", "bwd-prune",
              "live strata", "pool entries", "time(ms)", "estimate");
  for (uint32_t width : {2u, 3u, 4u}) {
    auto qi = MakePathQuery(3).MoveValue();
    LayeredGraphOptions opt;
    opt.width = width;
    opt.density = 0.7;
    opt.seed = width;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = width;
    ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    for (bool disable : {false, true}) {
      EstimatorConfig cfg;
      cfg.epsilon = 0.25;
      cfg.seed = 3;
      cfg.pool_size = 128;
      cfg.disable_backward_pruning = disable;
      auto t0 = std::chrono::steady_clock::now();
      auto est = PqeEstimate(qi.query, pdb, cfg).MoveValue();
      const double ms = MillisSince(t0);
      std::printf("%-8zu %-10s %-16zu %-14zu %-12.1f %-12.5f\n",
                  pdb.NumFacts(), disable ? "off" : "on",
                  est.stats.strata_live, est.stats.pool_entries, ms,
                  est.probability);
    }
  }
  std::printf(
      "  finding: identical strata/estimates — forward feasibility alone\n"
      "  collapses size-determined automata; backward pruning is free\n"
      "  insurance here.\n\n");
}

// A generic NFTA whose states generate trees of many sizes: leaf and binary
// rules over a few symbols. Here strata abound and usefulness pruning bites.
Nfta ManySizedNfta(uint64_t seed, size_t states) {
  Rng rng(seed);
  Nfta t;
  for (size_t i = 0; i < states; ++i) t.AddState();
  t.EnsureAlphabetSize(3);
  t.SetInitialState(0);
  for (size_t q = 0; q < states; ++q) {
    t.AddTransition(static_cast<StateId>(q),
                    static_cast<SymbolId>(rng.NextBounded(3)), {});
    for (int j = 0; j < 2; ++j) {
      t.AddTransition(
          static_cast<StateId>(q),
          static_cast<SymbolId>(rng.NextBounded(3)),
          {static_cast<StateId>(rng.NextBounded(states)),
           static_cast<StateId>(rng.NextBounded(states))});
    }
  }
  return t;
}

void GenericPart() {
  std::printf(
      "Part 2 — general NFTAs (many tree sizes per state; expectation: "
      "pruning bites):\n");
  std::printf("%-8s %-8s %-10s %-16s %-14s %-12s\n", "states", "n",
              "bwd-prune", "live strata", "pool entries", "time(ms)");
  for (size_t states : {6u, 10u}) {
    Nfta t = ManySizedNfta(17 + states, states);
    const size_t n = 21;
    for (bool disable : {false, true}) {
      EstimatorConfig cfg;
      cfg.epsilon = 0.25;
      cfg.seed = 5;
      cfg.pool_size = 128;
      cfg.disable_backward_pruning = disable;
      auto t0 = std::chrono::steady_clock::now();
      auto est = CountNftaTrees(t, n, cfg).MoveValue();
      const double ms = MillisSince(t0);
      std::printf("%-8zu %-8zu %-10s %-16zu %-14zu %-12.1f\n", states, n,
                  disable ? "off" : "on", est.stats.strata_live,
                  est.stats.pool_entries, ms);
    }
  }
  std::printf(
      "  finding: with odd/even size parities and dead-end states, the\n"
      "  backward pass removes strata that cannot reach an accepted tree of\n"
      "  size n, cutting pool work correspondingly.\n");
}

void PipelinePart() {
  constexpr uint64_t kSeeds = 6;
  std::printf(
      "Part 3 — string vs tree pipeline on path queries (same Theorem 1\n"
      "semantics; the paper's footnote 2 observes the gadget is a string\n"
      "construction). Each pipeline runs seeds 1-%llu at pool 128, eps 0.25;\n"
      "err is the largest |P/exact - 1| over those seeds:\n",
      static_cast<unsigned long long>(kSeeds));
  std::printf("%-4s %-5s %-9s %-7s %-5s %-8s %-6s %s\n", "len", "|D|",
              "pipeline", "states", "k", "ms/run", "err", "P");
  for (uint32_t len : {3u, 4u, 5u}) {
    auto qi = MakePathQuery(len).MoveValue();
    LayeredGraphOptions opt;
    opt.width = 3;
    opt.density = 0.7;
    opt.seed = len;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = len + 9;
    ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    const double exact = PathPqeExact(qi.query, pdb).MoveValue().ToDouble();
    std::printf("%-4u %-5zu %-9s %-7s %-5s %-8s %-6s %.4f\n", len,
                pdb.NumFacts(), "exact", "", "", "", "", exact);
    for (const char* pipeline : {"string", "tree"}) {
      size_t states = 0;
      size_t k = 0;
      double ms = 0.0;
      double err = 0.0;
      std::string estimates;
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        EstimatorConfig cfg;
        cfg.epsilon = 0.25;
        cfg.seed = seed;
        cfg.pool_size = 128;
        const auto t0 = std::chrono::steady_clock::now();
        double p = 0.0;
        if (pipeline[0] == 's') {
          auto est = PathPqeEstimate(qi.query, pdb, cfg).MoveValue();
          p = est.probability;
          states = est.nfa_states;
          k = est.word_length;
        } else {
          auto est = PqeEstimate(qi.query, pdb, cfg, UrConstructionOptions{})
                         .MoveValue();
          p = est.probability;
          states = est.nfta_states;
          k = est.tree_size;
        }
        ms += MillisSince(t0);
        err = std::max(err, std::fabs(p / exact - 1.0));
        char buf[16];
        std::snprintf(buf, sizeof(buf), " %.4f", p);
        estimates += buf;
      }
      std::printf("%-4u %-5zu %-9s %-7zu %-5zu %-8.1f %-6.3f%s\n", len,
                  pdb.NumFacts(), pipeline, states, k, ms / kSeeds, err,
                  estimates.c_str());
    }
  }
  std::printf(
      "  finding: the string route counts on the smaller automaton (about\n"
      "  half the tree's states at the same k) in about the same time per\n"
      "  run. At pool 128 neither route stays inside (1 +- 0.25) on every\n"
      "  seed: the err column reaches 0.46 (string) and 0.36 (tree), and\n"
      "  on len 4 all six tree estimates lie above the exact value. The\n"
      "  two routes' seed spreads overlap, so at this pool size a single\n"
      "  estimate per route can show neither agreement nor a difference;\n"
      "  fpras_coverage_test checks accuracy against exact oracles.\n");
}

}  // namespace
}  // namespace pqe

int main() {
  setvbuf(stdout, nullptr, _IONBF, 0);
  std::printf(
      "Ablation — stratum pruning in CountNFTA\n"
      "=======================================\n\n");
  pqe::PqePart();
  pqe::GenericPart();
  std::printf("\n");
  pqe::PipelinePart();
  return 0;
}
