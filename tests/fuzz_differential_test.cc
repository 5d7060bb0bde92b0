// Differential fuzzing: random self-join-free queries (random acyclic
// shapes plus occasional cycles) × random databases × random probability
// labels. Two independent exact evaluators must agree bit-for-bit:
//   (a) the Theorem 1 automaton pipeline with exact tree counting, and
//   (b) the lineage + decomposed model counter.
// This exercises interactions no hand-written case covers: re-rooting,
// binarization, λ-elimination, gadget padding, and witness-join indexing.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pqe.h"
#include "cq/query.h"
#include "eval/eval.h"
#include "lineage/compiled_wmc.h"
#include "lineage/lineage.h"
#include "random_instance.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

using test::MakeRandomInstance;
using test::RandomInstance;

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, AutomatonMatchesLineageExactly) {
  auto instance_or = MakeRandomInstance(GetParam());
  ASSERT_TRUE(instance_or.ok()) << instance_or.status().ToString();
  RandomInstance inst = instance_or.MoveValue();

  UrConstructionOptions opts;
  opts.max_width = 3;
  auto via_automaton = PqeExactViaAutomaton(inst.query, inst.pdb, opts);
  if (!via_automaton.ok()) {
    // Width budget or oracle budget exceeded is acceptable for a fuzz case;
    // anything else is a bug.
    ASSERT_TRUE(via_automaton.status().code() ==
                    StatusCode::kResourceExhausted ||
                via_automaton.status().code() == StatusCode::kNotSupported)
        << via_automaton.status().ToString();
    GTEST_SKIP() << via_automaton.status().ToString();
  }

  auto lineage = BuildLineage(inst.query, inst.pdb.database()).MoveValue();
  auto via_lineage =
      ExactDnfProbabilityDecomposed(lineage, inst.pdb).MoveValue();
  EXPECT_EQ(via_automaton->Compare(via_lineage.probability), 0)
      << "seed=" << GetParam() << ": "
      << via_automaton->Normalized().ToString() << " vs "
      << via_lineage.probability.Normalized().ToString() << " for "
      << inst.query.ToString(inst.schema);

  // And against brute force when small enough.
  if (inst.pdb.NumFacts() <= 12) {
    auto truth =
        ExactProbabilityByEnumeration(inst.pdb, inst.query).MoveValue();
    EXPECT_EQ(via_automaton->Compare(truth), 0) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 81));

}  // namespace
}  // namespace pqe
