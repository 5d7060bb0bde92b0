#include "lineage/monte_carlo.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "eval/eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pqe {

Result<MonteCarloResult> MonteCarloPqe(const ConjunctiveQuery& query,
                                       const ProbabilisticDatabase& pdb,
                                       const MonteCarloConfig& config) {
  if (config.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  const Database& db = pdb.database();
  // Validate once; SatisfiesSubinstance would re-validate per sample.
  PQE_RETURN_IF_ERROR(Satisfies(db, query).status());
  PQE_TRACE_SPAN_VAR(span, "monte_carlo.estimate");
  span.AttrUint("facts", pdb.NumFacts());
  span.AttrUint("samples", config.num_samples);

  const size_t num_facts = pdb.NumFacts();
  std::vector<double> marginals(num_facts);
  for (FactId f = 0; f < num_facts; ++f) {
    marginals[f] = pdb.probability(f).ToDouble();
  }
  MonteCarloResult out;
  out.samples = config.num_samples;

  // Sharded i.i.d. world draws; same determinism scheme as Karp–Luby:
  // fixed shard boundaries, per-shard Rng seeded from (seed, shard), hits
  // summed in shard order — bit-identical for every num_threads.
  const size_t samples = config.num_samples;
  const size_t threads = ThreadPool::ResolveNumThreads(config.num_threads);
  const size_t shards = std::min(
      config.num_shards > 0 ? config.num_shards : size_t{64}, samples);
  span.AttrUint("threads", threads);
  span.AttrUint("shards", shards);
  std::vector<uint64_t> shard_hits(shards, 0);
  std::vector<Status> shard_status(shards, Status::OK());
  auto& shard_hist =
      obs::MetricRegistry::Global().GetHistogram("pqe.monte_carlo.shard_ns");
  ParallelFor(threads, shards, [&](size_t shard) {
    const auto start = std::chrono::steady_clock::now();
    Rng rng(Rng::DeriveSeed(config.seed, shard));
    std::vector<bool> world(num_facts, false);
    // One raw word per fact, generated block-at-a-time; the world stays a
    // vector<bool> (SatisfiesSubinstance's interface), only the randomness
    // is batched.
    std::vector<uint64_t> words(num_facts);
    uint64_t hits = 0;
    const size_t begin = shard * samples / shards;
    const size_t end = (shard + 1) * samples / shards;
    for (size_t s = begin; s < end; ++s) {
      rng.FillBlock(words.data(), num_facts);
      for (FactId f = 0; f < num_facts; ++f) {
        world[f] = Rng::DoubleFromWord(words[f]) < marginals[f];
      }
      Result<bool> sat = SatisfiesSubinstance(db, query, world);
      if (!sat.ok()) {
        shard_status[shard] = sat.status();
        return;
      }
      if (*sat) ++hits;
    }
    shard_hits[shard] = hits;
    shard_hist.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  });
  for (const Status& st : shard_status) PQE_RETURN_IF_ERROR(st);
  for (uint64_t h : shard_hits) out.hits += h;
  out.probability = static_cast<double>(out.hits) /
                    static_cast<double>(out.samples);
  return out;
}

}  // namespace pqe
