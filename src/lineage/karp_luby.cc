#include "lineage/karp_luby.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <vector>

#include "counting/weighted_pick.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/extfloat.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pqe {

namespace {

Status ValidateLineage(const DnfLineage& lineage,
                       const ProbabilisticDatabase& pdb) {
  if (lineage.num_facts != pdb.NumFacts()) {
    return Status::InvalidArgument(
        "lineage and probabilistic database disagree on |D|");
  }
  for (const auto& clause : lineage.clauses) {
    for (FactId f : clause) {
      if (f >= pdb.NumFacts()) {
        return Status::InvalidArgument("lineage mentions unknown fact");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<KarpLubyResult> KarpLubyEstimate(const DnfLineage& lineage,
                                        const ProbabilisticDatabase& pdb,
                                        const KarpLubyConfig& config) {
  PQE_RETURN_IF_ERROR(ValidateLineage(lineage, pdb));
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  PQE_TRACE_SPAN_VAR(span, "karp_luby.estimate");
  KarpLubyResult out;
  out.clauses = lineage.NumClauses();
  span.AttrUint("clauses", out.clauses);
  span.AttrUint("facts", pdb.NumFacts());
  if (lineage.clauses.empty()) return out;

  // Clause marginals Pr(C_j) = Π_{i ∈ C_j} p_i, in extended range.
  std::vector<ExtFloat> weights;
  weights.reserve(lineage.clauses.size());
  ExtFloat total;
  for (const auto& clause : lineage.clauses) {
    ExtFloat w = ExtFloat::FromUint64(1);
    for (FactId f : clause) {
      w = w.Scale(pdb.probability(f).ToDouble());
    }
    weights.push_back(w);
    total = total.Add(w);
  }
  if (total.IsZero()) return out;

  size_t samples = config.num_samples;
  if (samples == 0) {
    const double eps = std::max(config.epsilon, 1e-3);
    samples = static_cast<size_t>(
        std::ceil(8.0 * static_cast<double>(lineage.NumClauses()) /
                  (eps * eps)));
    samples = std::max(samples, config.min_samples);
    if (config.max_samples > 0) samples = std::min(samples,
                                                   config.max_samples);
  }
  out.samples = samples;

  // Fact marginals as plain doubles, hoisted out of the sample loop (shared
  // read-only across shards; the per-sample probability(f).ToDouble() calls
  // used to dominate the world draw).
  const size_t num_facts = pdb.NumFacts();
  std::vector<double> marginals(num_facts);
  for (FactId f = 0; f < num_facts; ++f) {
    marginals[f] = pdb.probability(f).ToDouble();
  }

  // Clause picker built once and shared read-only across shards (picks are
  // const).
  AliasPicker clause_picker;
  clause_picker.Build(weights, "karp_luby clause table");
  obs::MetricRegistry::Global().GetCounter("counting.alias_builds")
      .Increment();

  // The i.i.d. sample loop, sharded. Shard boundaries are fixed by the
  // config alone (never by thread count or scheduling): shard i covers
  // samples [i·N/S, (i+1)·N/S) with its own Rng seeded from (seed, i) and
  // its own scratch world bitmap; hits — an order-independent integer sum —
  // are merged in shard order. Bit-identical for every num_threads.
  const size_t threads = ThreadPool::ResolveNumThreads(config.num_threads);
  const size_t shards = std::min(
      config.num_shards > 0 ? config.num_shards : size_t{64}, samples);
  std::vector<uint64_t> shard_hits(shards, 0);
  std::vector<uint64_t> shard_batches(shards, 0);
  auto& shard_hist =
      obs::MetricRegistry::Global().GetHistogram("pqe.karp_luby.shard_ns");
  auto& batch_hist =
      obs::MetricRegistry::Global().GetHistogram("counting.batch_size_hist");
  ParallelFor(threads, shards, [&](size_t shard) {
    const auto start = std::chrono::steady_clock::now();
    Rng rng(Rng::DeriveSeed(config.seed, shard));
    uint64_t hits = 0;
    const size_t begin = shard * samples / shards;
    const size_t end = (shard + 1) * samples / shards;
    // Batched SoA kernel: each trial consumes one clause-pick word plus
    // one word per fact, generated block-at-a-time; several trials share
    // one contiguous block so the RNG stays out of the inner loop. The
    // world is a byte arena filled by a branchless compare the compiler
    // can vectorize (NextBernoulli's p<=0 / p>=1 clamps fall out of
    // `u < p` for u in [0,1)).
    const size_t words_per_trial = num_facts + 1;
    const size_t trials_per_block =
        std::max<size_t>(1, 4096 / words_per_trial);
    std::vector<uint64_t> words;
    std::vector<uint8_t> world(num_facts, 0);
    uint64_t batches = 0;
    size_t s = begin;
    while (s < end) {
      if (config.cancel != nullptr) {
        if (config.cancel->Expired()) break;
        if (s > begin) config.cancel->AddProgress(trials_per_block);
      }
      const size_t trials = std::min(trials_per_block, end - s);
      words.resize(trials * words_per_trial);
      rng.FillBlock(words.data(), words.size());
      ++batches;
      batch_hist.Observe(trials);
      for (size_t t = 0; t < trials; ++t) {
        const uint64_t* w = words.data() + t * words_per_trial;
        const size_t j =
            clause_picker.PickFromDouble(Rng::DoubleFromWord(w[0]));
        for (FactId f = 0; f < num_facts; ++f) {
          world[f] = Rng::DoubleFromWord(w[f + 1]) < marginals[f] ? 1 : 0;
        }
        for (FactId f : lineage.clauses[j]) world[f] = 1;
        bool canonical = true;
        for (size_t k = 0; k < j && canonical; ++k) {
          bool sat = true;
          for (FactId f : lineage.clauses[k]) sat = sat && world[f] != 0;
          if (sat) canonical = false;
        }
        if (canonical) ++hits;
      }
      s += trials;
    }
    shard_batches[shard] = batches;
    shard_hits[shard] = hits;
    shard_hist.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  });
  if (config.cancel != nullptr && config.cancel->Expired()) {
    return Status::DeadlineExceeded(
        "karp_luby: cancelled after " +
        std::to_string(config.cancel->progress()) + " recorded samples of " +
        std::to_string(samples));
  }
  size_t hits = 0;
  for (uint64_t h : shard_hits) hits += h;
  uint64_t batches = 0;
  for (uint64_t b : shard_batches) batches += b;
  if (batches > 0) {
    obs::MetricRegistry::Global().GetCounter("counting.batch_draws")
        .Add(batches);
  }
  out.hits = hits;
  out.probability = total.Scale(static_cast<double>(hits) /
                                static_cast<double>(samples))
                        .ToDouble();
  span.AttrUint("samples", out.samples);
  span.AttrUint("hits", out.hits);
  span.AttrUint("threads", threads);
  span.AttrUint("shards", shards);
  {
    auto& metrics = obs::MetricRegistry::Global();
    metrics.GetCounter("pqe.karp_luby.runs").Increment();
    metrics.GetCounter("pqe.karp_luby.samples").Add(out.samples);
    metrics.GetCounter("pqe.karp_luby.hits").Add(out.hits);
    metrics.GetHistogram("pqe.karp_luby.clauses").Observe(out.clauses);
    metrics.GetGauge("pqe.karp_luby.threads").Set(
        static_cast<double>(threads));
  }
  return out;
}

Result<BigRational> ExactDnfProbability(const DnfLineage& lineage,
                                        const ProbabilisticDatabase& pdb,
                                        size_t max_memo_entries) {
  PQE_RETURN_IF_ERROR(ValidateLineage(lineage, pdb));
  if (lineage.clauses.empty()) return BigRational::Zero();

  using ClauseSet = std::vector<std::vector<FactId>>;
  std::map<ClauseSet, BigRational> memo;

  // Shannon expansion, always splitting on the smallest fact mentioned:
  // the residual probability then depends on the residual clause set alone.
  std::function<Result<BigRational>(const ClauseSet&)> eval =
      [&](const ClauseSet& clauses) -> Result<BigRational> {
    if (clauses.empty()) return BigRational::Zero();
    for (const auto& c : clauses) {
      if (c.empty()) return BigRational::One();
    }
    auto it = memo.find(clauses);
    if (it != memo.end()) return it->second;
    if (memo.size() > max_memo_entries) {
      return Status::ResourceExhausted(
          "Shannon expansion exceeded memo budget");
    }
    FactId v = clauses[0][0];
    for (const auto& c : clauses) v = std::min(v, c[0]);
    // v := true — drop v from clauses (clauses without v keep all literals).
    ClauseSet on_true;
    for (const auto& c : clauses) {
      std::vector<FactId> reduced;
      for (FactId f : c) {
        if (f != v) reduced.push_back(f);
      }
      on_true.push_back(std::move(reduced));
    }
    std::sort(on_true.begin(), on_true.end());
    on_true.erase(std::unique(on_true.begin(), on_true.end()),
                  on_true.end());
    // Absorption: a clause that became empty makes the branch certain.
    // v := false — delete clauses containing v.
    ClauseSet on_false;
    for (const auto& c : clauses) {
      if (!std::binary_search(c.begin(), c.end(), v)) on_false.push_back(c);
    }
    PQE_ASSIGN_OR_RETURN(BigRational pt, eval(on_true));
    PQE_ASSIGN_OR_RETURN(BigRational pf, eval(on_false));
    const Probability pv = pdb.probability(v);
    BigRational p(pv.num, pv.den);
    BigRational q(pv.den - pv.num, pv.den);
    BigRational value = p.Mul(pt).Add(q.Mul(pf)).Normalized();
    memo.emplace(clauses, value);
    return value;
  };

  ClauseSet normalized = lineage.clauses;
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());
  return eval(normalized);
}

}  // namespace pqe
