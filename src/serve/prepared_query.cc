#include "serve/prepared_query.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "core/projection.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/eval.h"

namespace pqe {
namespace serve {

namespace {

// FNV-1a over the probability labels; the bind cache only needs to tell
// labellings apart.
uint64_t HashProbabilities(const std::vector<Probability>& probs) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(probs.size());
  for (const Probability& p : probs) {
    mix(p.num);
    mix(p.den);
  }
  return h;
}

// Answer-memo key: FNV-1a over every EstimatorConfig field that steers the
// random draws. num_threads is deliberately excluded (estimates are
// bit-identical at every thread count — the determinism contract) and so is
// the cancel token (it can abort a run but never changes a completed one).
uint64_t HashEstimatorConfig(const EstimatorConfig& config) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix_double(config.epsilon);
  mix(config.seed);
  mix(config.pool_size);
  mix(config.max_pool_size);
  mix(config.repetitions);
  mix(config.disable_backward_pruning ? 1 : 0);
  return h;
}

// Bound answer memos beyond this many distinct configs reset (a serving
// workload repeats a handful of configs; unbounded growth is the bug).
constexpr size_t kAnswerMemoCapacity = 64;

}  // namespace

Result<std::shared_ptr<const PreparedQuery>> PreparedQuery::Prepare(
    const ConjunctiveQuery& query, const Database& db,
    const UrConstructionOptions& options, size_t bind_cache_capacity) {
  PQE_TRACE_SPAN_VAR(span, "serve.prepare");
  span.AttrUint("facts", db.NumFacts());
  auto prepared = std::shared_ptr<PreparedQuery>(new PreparedQuery());
  prepared->bind_cache_capacity_ =
      bind_cache_capacity < 1 ? 1 : bind_cache_capacity;
  if (TakesStringRoute(query)) {
    PQE_ASSIGN_OR_RETURN(PathPqeSkeleton s, BuildPathPqeSkeleton(query, db));
    prepared->path_.emplace(std::move(s));
  } else {
    PQE_ASSIGN_OR_RETURN(PqeSkeleton s, BuildPqeSkeleton(query, db, options));
    prepared->decomposition_width_ = s.ur.hd.Width();
    prepared->tree_.emplace(std::move(s));
  }
  return std::shared_ptr<const PreparedQuery>(std::move(prepared));
}

Result<std::shared_ptr<const PreparedQuery>> PreparedQuery::PrepareRpq(
    const rpq::RpqQuery& query, const Database& db,
    size_t bind_cache_capacity) {
  PQE_TRACE_SPAN_VAR(span, "serve.prepare_rpq");
  span.AttrUint("facts", db.NumFacts());
  auto prepared = std::shared_ptr<PreparedQuery>(new PreparedQuery());
  prepared->bind_cache_capacity_ =
      bind_cache_capacity < 1 ? 1 : bind_cache_capacity;
  // Always the string route: CompileRpqSkeleton produces the same skeleton
  // the engine's kFpras RPQ branch evaluates over, so prepared answers match
  // cold engine answers bit for bit.
  PQE_ASSIGN_OR_RETURN(PathPqeSkeleton s, rpq::CompileRpqSkeleton(query, db));
  prepared->path_.emplace(std::move(s));
  return std::shared_ptr<const PreparedQuery>(std::move(prepared));
}

void PreparedQuery::BuildBound(const std::vector<Probability>& probs,
                               BindSlot* slot) const {
  auto bound = std::make_shared<Bound>();
  bound->probs_hash = slot->probs_hash;
  bound->probs = probs;
  const Bound* seed = slot->seed.get();
  // One seed-patch → full-bind-fallback sequence for both routes: patch the
  // seed's bind in place when its layout can reach `probs`; otherwise
  // (denominator drift, or no seed yet) run the full gadget expansion.
  auto patch_or_bind = [&](auto& route, const auto* seed_route, auto rebind,
                           auto full_bind) -> Status {
    if (seed_route != nullptr && seed_route->has_value()) {
      auto delta =
          rebind(**seed_route, seed->probs, probs, &bound->patched_slots);
      if (delta.ok()) {
        route.emplace(std::move(*delta));
        bound->delta_patched = true;
        return Status::OK();
      }
    }
    PQE_ASSIGN_OR_RETURN(auto full, full_bind());
    route.emplace(std::move(full));
    return Status::OK();
  };
  const Status status =
      path_.has_value()
          ? patch_or_bind(bound->path, seed ? &seed->path : nullptr,
                          RebindPathPqeNfa,
                          [&] { return BindPathPqeNfa(*path_, probs); })
          : patch_or_bind(bound->tree, seed ? &seed->tree : nullptr,
                          RebindPqeAutomaton,
                          [&] { return BindPqeAutomaton(*tree_, probs); });
  // Warm the lazily built indexes before the artifact is shared: const
  // traversals from concurrent requests must not race on them. A delta
  // patch carried the (from, symbol)-keyed half over from its seed, so this
  // rebuilds only the target-keyed half.
  if (bound->path.has_value()) {
    const BoundPathNfa& m = *bound->path;
    m.nfa.WarmAdjacency();
    bound->automaton = PqeAnswer::AutomatonStats{
        m.nfa.NumStates(), m.nfa.NumTransitions(), m.word_length,
        /*decomposition_width=*/0};
  } else if (bound->tree.has_value()) {
    const BoundPqeAutomaton& m = *bound->tree;
    m.weighted.WarmRunIndex();
    bound->automaton = PqeAnswer::AutomatonStats{
        m.weighted.NumStates(), m.weighted.NumTransitions(), m.tree_size,
        decomposition_width_};
  }
  slot->seed.reset();
  if (status.ok()) {
    auto& counter = bound->delta_patched ? delta_rebinds_ : rebinds_;
    counter.fetch_add(1, std::memory_order_relaxed);
    obs::MetricRegistry::Global()
        .GetCounter(bound->delta_patched ? "serve.delta_rebinds"
                                         : "serve.full_rebinds")
        .Increment();
    slot->bound = std::move(bound);
  } else {
    slot->status = status;
  }
  slot->done.store(true, std::memory_order_release);
}

Result<std::shared_ptr<const PreparedQuery::Bound>> PreparedQuery::GetBound(
    const std::vector<Probability>& probs, BindOutcome* outcome) const {
  const uint64_t h = HashProbabilities(probs);
  std::shared_ptr<BindSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < bind_lru_.size(); ++i) {
      if (bind_lru_[i]->probs_hash == h) {
        slot = bind_lru_[i];
        // Touch: move to the MRU front.
        bind_lru_.erase(bind_lru_.begin() + i);
        bind_lru_.insert(bind_lru_.begin(), slot);
        break;
      }
    }
    if (slot != nullptr) {
      // A completed slot is an outright hit; an in-flight one means we join
      // another thread's build instead of duplicating it (single flight).
      auto& counter = slot->done.load(std::memory_order_acquire)
                          ? bind_hits_
                          : avoided_rebinds_;
      counter.fetch_add(1, std::memory_order_relaxed);
    } else {
      slot = std::make_shared<BindSlot>();
      slot->probs_hash = h;
      // Seed the delta patch from the most recently completed bind.
      for (const auto& s : bind_lru_) {
        if (s->done.load(std::memory_order_acquire) && s->status.ok()) {
          slot->seed = s->bound;
          break;
        }
      }
      bind_lru_.insert(bind_lru_.begin(), slot);
      while (bind_lru_.size() > bind_cache_capacity_) {
        bind_lru_.pop_back();
        bind_evictions_.fetch_add(1, std::memory_order_relaxed);
        obs::MetricRegistry::Global()
            .GetCounter("serve.bind_evictions")
            .Increment();
      }
    }
  }
  // Build outside the lock; every caller for this labelling blocks here and
  // shares the one build.
  bool built_here = false;
  std::call_once(slot->once, [&]() {
    built_here = true;
    BuildBound(probs, slot.get());
  });
  if (!slot->status.ok()) {
    if (built_here) {
      // Don't retain failures: drop the slot (if it's still ours) so a
      // later request retries instead of replaying a stale error forever.
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < bind_lru_.size(); ++i) {
        if (bind_lru_[i] == slot) {
          bind_lru_.erase(bind_lru_.begin() + i);
          break;
        }
      }
    }
    return slot->status;
  }
  if (outcome != nullptr) {
    outcome->reused = !built_here;
    outcome->delta = built_here && slot->bound->delta_patched;
    outcome->patched_slots = built_here ? slot->bound->patched_slots : 0;
  }
  return slot->bound;
}

Result<PreparedQuery::RebindStats> PreparedQuery::Rebind(
    const LabelDelta& delta) const {
  if (delta.facts.size() != delta.new_probs.size()) {
    return Status::InvalidArgument(
        "LabelDelta: facts and new_probs must be parallel (" +
        std::to_string(delta.facts.size()) + " vs " +
        std::to_string(delta.new_probs.size()) + ")");
  }
  // The delta applies on top of the most recently bound labelling.
  std::optional<std::vector<Probability>> probs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : bind_lru_) {
      if (s->done.load(std::memory_order_acquire) && s->status.ok()) {
        probs = s->bound->probs;
        break;
      }
    }
  }
  if (!probs.has_value()) {
    return Status::NotFound(
        "PreparedQuery::Rebind: no bound labelling to update (evaluate once "
        "before applying deltas)");
  }
  const std::vector<FactId>& of = original_fact();
  RebindStats stats;
  for (size_t i = 0; i < delta.facts.size(); ++i) {
    bool touched = false;
    for (size_t j = 0; j < of.size(); ++j) {
      if (of[j] == delta.facts[i]) {
        (*probs)[j] = delta.new_probs[i];
        touched = true;
      }
    }
    if (!touched) ++stats.untouched;
  }
  BindOutcome outcome;
  PQE_ASSIGN_OR_RETURN(std::shared_ptr<const Bound> bound,
                       GetBound(*probs, &outcome));
  (void)bound;
  stats.reused = outcome.reused;
  stats.delta = outcome.delta;
  stats.patched_slots = outcome.patched_slots;
  return stats;
}

Result<PqeAnswer> PreparedQuery::EvaluateFpras(
    const ProbabilisticDatabase& pdb, const EstimatorConfig& config,
    EvalBreakdown* breakdown) const {
  PQE_TRACE_SPAN_VAR(span, "serve.evaluate_prepared");
  PQE_ASSIGN_OR_RETURN(std::vector<Probability> probs,
                       ProjectedFactProbabilities(original_fact(), pdb));
  BindOutcome bind_outcome;
  const auto bind_start = std::chrono::steady_clock::now();
  PQE_ASSIGN_OR_RETURN(std::shared_ptr<const Bound> bound,
                       GetBound(probs, &bind_outcome));
  if (breakdown != nullptr) {
    breakdown->bind_reused = bind_outcome.reused;
    breakdown->bind_delta = bind_outcome.delta;
    breakdown->bind_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - bind_start)
            .count());
  }

  // Identical request replay: same bind + same draw-steering config means
  // the counters would reproduce the previous run draw for draw, so the
  // memoized answer IS the re-run's answer.
  const uint64_t config_key = HashEstimatorConfig(config);
  {
    std::lock_guard<std::mutex> lock(bound->memo_mu);
    auto it = bound->memo.find(config_key);
    if (it != bound->memo.end()) {
      answer_hits_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricRegistry::Global()
          .GetCounter("serve.answer_memo_hits")
          .Increment();
      if (breakdown != nullptr) {
        breakdown->answer_memo_hit = true;
        if (it->second.count_stats.has_value()) {
          breakdown->samples = it->second.count_stats->attempts;
        }
      }
      return it->second;
    }
  }

  PqeAnswer out;
  out.method_used = PqeMethod::kFpras;
  const auto estimate_start = std::chrono::steady_clock::now();
  PQE_ASSIGN_OR_RETURN(
      const CountEstimate count,
      bound->path.has_value()
          ? CountNfaStrings(bound->path->nfa, bound->path->word_length, config)
          : CountNftaTrees(bound->tree->weighted, bound->tree->tree_size,
                           config));
  if (breakdown != nullptr) {
    breakdown->estimate_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - estimate_start)
            .count());
    breakdown->samples = count.stats.attempts;
  }
  out.count_stats = count.stats;
  out.automaton = bound->automaton;
  // Pr_H(Q) = d⁻¹ · |L_k|, projected into [0, 1] — the same arithmetic as
  // PqeEstimate / PathPqeEstimate, so answers stay bit-identical.
  out.probability = ClampProbability(Log2Probability(
      count.value, bound->path.has_value() ? bound->path->denominator
                                           : bound->tree->denominator));
  {
    // Only completed runs reach this point (aborted ones returned above via
    // PQE_ASSIGN_OR_RETURN), so the memo never holds partial answers.
    std::lock_guard<std::mutex> lock(bound->memo_mu);
    if (bound->memo.size() >= kAnswerMemoCapacity) bound->memo.clear();
    bound->memo.emplace(config_key, out);
  }
  return out;
}

uint64_t PreparedQuery::bind_hits() const {
  return bind_hits_.load(std::memory_order_relaxed);
}

uint64_t PreparedQuery::rebinds() const {
  return rebinds_.load(std::memory_order_relaxed);
}

uint64_t PreparedQuery::delta_rebinds() const {
  return delta_rebinds_.load(std::memory_order_relaxed);
}

uint64_t PreparedQuery::avoided_rebinds() const {
  return avoided_rebinds_.load(std::memory_order_relaxed);
}

uint64_t PreparedQuery::bind_evictions() const {
  return bind_evictions_.load(std::memory_order_relaxed);
}

uint64_t PreparedQuery::answer_hits() const {
  return answer_hits_.load(std::memory_order_relaxed);
}

}  // namespace serve
}  // namespace pqe
