// Ablation — design-choice costs called out in DESIGN.md: what do the
// stratum-pruning passes in CountNFTA buy?
//
// Finding (kept honest): on the gadget-expanded PQE automata the *forward*
// feasibility pass already collapses the strata — every state generates
// trees of essentially one size — so disabling the *backward* usefulness
// pass changes nothing there. Backward pruning pays off on automata whose
// states generate trees of many sizes (part 2: general NFTAs), where it
// removes the strata that cannot occur inside any accepted tree of size n.

#include <chrono>
#include <cstdio>
#include <cstdlib>

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
  std::printf(
      "Part 3 — string vs tree pipeline on path queries (same Theorem 1\n"
      "semantics; the paper's footnote 2 observes the gadget is a string\n"
      "construction):\n");
  std::printf("%-6s %-8s %-10s %-12s %-12s %-12s %-12s\n", "len", "|D|",
              "pipeline", "states", "k", "time(ms)", "P");
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
    EstimatorConfig cfg;
    cfg.epsilon = 0.25;
    cfg.seed = 7;
    cfg.pool_size = 128;
    {
      auto t0 = std::chrono::steady_clock::now();
      auto est = PathPqeEstimate(qi.query, pdb, cfg).MoveValue();
      std::printf("%-6u %-8zu %-10s %-12zu %-12zu %-12.1f %-12.5f\n", len,
                  pdb.NumFacts(), "string", est.nfa_states, est.word_length,
                  MillisSince(t0), est.probability);
    }
    {
      auto t0 = std::chrono::steady_clock::now();
      auto est =
          PqeEstimate(qi.query, pdb, cfg, UrConstructionOptions{})
              .MoveValue();
      std::printf("%-6u %-8zu %-10s %-12zu %-12zu %-12.1f %-12.5f\n", len,
                  pdb.NumFacts(), "tree", est.nfta_states, est.tree_size,
                  MillisSince(t0), est.probability);
    }
  }
  std::printf(
      "  finding: both pipelines estimate the same probability within the\n"
      "  error of these small pools; both run the one tree counter (strings\n"
      "  as unary trees, whose forest strata are pool-free views), and the\n"
      "  string route counts on the smaller automaton.\n");
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
