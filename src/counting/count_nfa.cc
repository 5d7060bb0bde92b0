#include "counting/count_nfa.h"

#include <algorithm>
#include <map>
#include <vector>

#include "counting/median_of_r.h"
#include "counting/weighted_pick.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace pqe {

namespace {

// Attempts drawn per block-RNG batch: 2 raw words per attempt (one for the
// weighted pick, one for the prefix index), so a batch is a 4 KiB buffer —
// resident in L1 while the acceptance pass runs.
constexpr size_t kDrawBatch = 256;

// A pooled sample of A(q, l), stored as a derivation reference: the incoming
// transition taken and the index of the prefix sample in the predecessor
// stratum's pool. Strings are never materialized, so pools cost O(1) memory
// per sample.
struct SampleRef {
  uint32_t transition = 0;  // index into nfa.transitions()
  uint32_t prefix = 0;      // index into pool[from][l-1]
};

class NfaCounter {
 public:
  NfaCounter(const Nfa& nfa, size_t n, const EstimatorConfig& config)
      : nfa_(nfa),
        n_(n),
        config_(config),
        rng_(config.seed),
        cancel_(config.cancel) {}

  Result<CountEstimate> Run() {
    const size_t S = nfa_.NumStates();
    if (nfa_.initial_states().empty()) {
      return CountEstimate{ExtFloat(), stats_};
    }
    if (Cancelled()) return DeadlineError(0);
    pool_target_ = config_.ResolvePoolSize(n_);
    reach_memo_.assign(n_ + 1, MemoLevel(S));

    ComputeFeasibility();

    est_.assign(n_ + 1, std::vector<ExtFloat>(S));
    pools_.assign(n_ + 1, std::vector<std::vector<SampleRef>>(S));
    // Level 0: A(q, 0) = {λ} iff q is initial.
    for (StateId q = 0; q < S; ++q) {
      if (nfa_.IsInitial(q) && live_[0][q]) {
        est_[0][q] = ExtFloat::FromUint64(1);
        pools_[0][q].push_back(SampleRef{});  // the empty string
      }
    }
    for (size_t l = 1; l <= n_; ++l) {
      // One cancellation poll per length stratum, plus finer-grained polls
      // in the rejection loops (an attempt budget can dominate a stratum).
      if (Cancelled()) return DeadlineError(l);
      for (StateId q = 0; q < S; ++q) {
        if (live_[l][q]) ProcessStratum(q, l);
      }
      if (cancel_ != nullptr) cancel_->AddProgress(1);
    }
    // A rejection loop may have bailed out mid-stratum on an expired token;
    // the partial tables must not be read as an estimate.
    if (Cancelled()) return DeadlineError(n_);
    return Finalize();
  }

 private:
  // live_[l][q]: A(q, l) is non-empty AND the stratum can still contribute to
  // an accepting state at length n (forward-feasible ∧ backward-useful).
  void ComputeFeasibility() {
    const size_t S = nfa_.NumStates();
    std::vector<std::vector<bool>> fwd(n_ + 1, std::vector<bool>(S, false));
    for (StateId q : nfa_.initial_states()) fwd[0][q] = true;
    for (size_t l = 1; l <= n_; ++l) {
      for (const Nfa::Transition& t : nfa_.transitions()) {
        if (fwd[l - 1][t.from]) fwd[l][t.to] = true;
      }
    }
    std::vector<std::vector<bool>> bwd(n_ + 1, std::vector<bool>(S, false));
    if (config_.disable_backward_pruning) {
      bwd = fwd;  // ablation mode: no usefulness pruning
    } else {
      for (StateId q = 0; q < S; ++q) {
        if (nfa_.IsAccepting(q)) bwd[n_][q] = true;
      }
      for (size_t l = n_; l-- > 0;) {
        for (const Nfa::Transition& t : nfa_.transitions()) {
          if (bwd[l + 1][t.to]) bwd[l][t.from] = true;
        }
      }
    }
    live_.assign(n_ + 1, std::vector<bool>(S, false));
    for (size_t l = 0; l <= n_; ++l) {
      for (StateId q = 0; q < S; ++q) {
        live_[l][q] = fwd[l][q] && bwd[l][q];
        ++stats_.strata_total;
        if (live_[l][q]) ++stats_.strata_live;
      }
    }
  }

  // Memoized membership oracle: the sorted set of states the automaton can
  // be in after reading the string of pools_[l][q][idx], keyed by the
  // derivation reference itself — pools are append-only and only finalized
  // strata are referenced, so entries never invalidate within a run. Shared
  // prefixes across draws (and across strata: every ref chain ends in the
  // same low strata) are simulated once instead of per check. Every reach
  // set contains q, so an empty vector doubles as the "uncomputed" sentinel.
  const std::vector<StateId>& ReachStates(StateId q, size_t l, uint32_t idx) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    // Walk the ref chain down to the first memoized suffix (or level 0),
    // recording the uncomputed links.
    chain_.clear();
    size_t cur_l = l;
    StateId cur_q = q;
    uint32_t cur_idx = idx;
    while (true) {
      std::vector<std::vector<StateId>>& slots = reach_memo_[cur_l][cur_q];
      if (slots.size() < pools_[cur_l][cur_q].size()) {
        slots.resize(pools_[cur_l][cur_q].size());
      }
      if (cur_l == 0) {
        if (slots[cur_idx].empty()) {
          ++stats_.runstates_memo_misses;
          std::vector<StateId> base = nfa_.initial_states();
          std::sort(base.begin(), base.end());
          slots[cur_idx] = std::move(base);
        } else {
          ++stats_.runstates_memo_hits;
        }
        break;
      }
      if (!slots[cur_idx].empty()) {
        ++stats_.runstates_memo_hits;
        break;
      }
      ++stats_.runstates_memo_misses;
      chain_.push_back(ChainLink{cur_l, cur_q, cur_idx});
      const SampleRef& ref = pools_[cur_l][cur_q][cur_idx];
      const Nfa::Transition& t = trans[ref.transition];
      cur_q = t.from;
      cur_idx = ref.prefix;
      --cur_l;
    }
    // Replay upward: one subset-simulation step per uncomputed link.
    for (size_t i = chain_.size(); i-- > 0;) {
      const ChainLink& link = chain_[i];
      const SampleRef& ref = pools_[link.l][link.q][link.idx];
      const Nfa::Transition& t = trans[ref.transition];
      const std::vector<StateId>& prev =
          reach_memo_[link.l - 1][t.from][ref.prefix];
      nfa_.ActiveStep(prev, t.symbol, &step_scratch_);
      reach_memo_[link.l][link.q][link.idx] = step_scratch_;
    }
    return reach_memo_[l][q][idx];
  }

  // A same-symbol group of incoming transitions (see ProcessStratum).
  struct Group {
    std::vector<uint32_t> transitions;
    std::vector<ExtFloat> weights;
    ExtFloat weight_sum;
    ExtFloat estimate;
    std::vector<SampleRef> accepted;
  };

  // Builds the alias table the next draw loop picks from, reusing capacity.
  void BuildPicker(const std::vector<ExtFloat>& weights) {
    picker_.Build(weights);
    ++stats_.alias_builds;
  }

  // Canonical check: the chosen transition must be the first (by transition
  // index) in the group whose predecessor state can be reached on the
  // sampled prefix — decided exactly by simulation, memoized over the
  // derivation ref.
  bool IsCanonical(const Group& g, const SampleRef& candidate, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    const Nfa::Transition& t = trans[candidate.transition];
    ++stats_.membership_checks;
    const std::vector<StateId>& reach =
        ReachStates(t.from, l - 1, candidate.prefix);
    uint32_t canonical = candidate.transition;
    for (uint32_t other_idx : g.transitions) {
      const Nfa::Transition& o = trans[other_idx];
      if (std::binary_search(reach.begin(), reach.end(), o.from)) {
        canonical = other_idx;
        break;
      }
    }
    return canonical == candidate.transition;
  }

  // Batched draw: fills the SoA candidate arenas with `batch` draws —
  // one alias pick plus one multiply-shift prefix index each — from a single
  // contiguous block of raw RNG words. cand_valid_[i] is 0 when the picked
  // transition's predecessor pool is empty (still counted as an attempt).
  void DrawCandidateBatch(const std::vector<uint32_t>& transitions,
                          size_t batch, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    words_.resize(2 * batch);
    rng_.FillBlock(words_.data(), 2 * batch);
    ++stats_.batch_draws;
    BatchSizeHist().Observe(batch);
    cand_trans_.resize(batch);
    cand_prefix_.resize(batch);
    cand_valid_.assign(batch, 0);
    for (size_t i = 0; i < batch; ++i) {
      const size_t pick =
          picker_.PickFromDouble(Rng::DoubleFromWord(words_[2 * i]));
      const uint32_t trans_idx = transitions[pick];
      const auto& prev_pool = pools_[l - 1][trans[trans_idx].from];
      if (prev_pool.empty()) continue;
      cand_trans_[i] = trans_idx;
      cand_prefix_[i] = static_cast<uint32_t>(
          Rng::BoundedFromWord(words_[2 * i + 1], prev_pool.size()));
      cand_valid_[i] = 1;
    }
  }

  obs::Histogram& BatchSizeHist() {
    if (batch_hist_ == nullptr) {
      batch_hist_ = &obs::MetricRegistry::Global().GetHistogram(
          "counting.batch_size_hist");
    }
    return *batch_hist_;
  }

  // Stratum estimate for A(q, l) = ∪_t A(from(t), l−1)·symbol(t).
  // Transitions with distinct symbols append distinct last characters, so
  // the union decomposes into an exact sum over symbol groups; only within
  // a group of same-symbol incoming transitions is the Karp–Luby canonical-
  // witness estimator (with its exact prefix-membership oracle) needed.
  void ProcessStratum(StateId q, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    std::map<SymbolId, Group> groups;
    for (uint32_t idx : nfa_.InTransitions(q)) {
      const Nfa::Transition& t = trans[idx];
      if (!live_[l - 1][t.from]) continue;
      const ExtFloat& w = est_[l - 1][t.from];
      if (w.IsZero()) continue;
      Group& g = groups[t.symbol];
      g.transitions.push_back(idx);
      g.weights.push_back(w);
      g.weight_sum = g.weight_sum.Add(w);
    }
    if (groups.empty()) return;  // estimate stays 0

    // Draws one candidate for the forced-sample fallback; false when the
    // predecessor pool is empty.
    auto DrawRef = [&](uint32_t trans_idx, SampleRef* out) {
      const Nfa::Transition& t = trans[trans_idx];
      const auto& prev_pool = pools_[l - 1][t.from];
      if (prev_pool.empty()) return false;
      out->transition = trans_idx;
      out->prefix =
          static_cast<uint32_t>(rng_.NextBounded(prev_pool.size()));
      return true;
    };

    ExtFloat total_estimate;
    for (auto& [symbol, g] : groups) {
      (void)symbol;
      if (g.transitions.size() == 1) {
        g.estimate = g.weight_sum;  // no overlap possible
        total_estimate = total_estimate.Add(g.estimate);
        continue;
      }
      // One picker build per group, reused across the whole rejection loop.
      BuildPicker(g.weights);
      const size_t max_attempts = config_.attempt_factor * pool_target_ + 64;
      size_t attempts = 0;
      // Batched SoA kernel: draw a block of candidates at once, then run
      // the acceptance pass over the contiguous arenas. The whole batch
      // counts as attempts even when the pool target is crossed mid-batch
      // — the extra canonical hits just enrich the resample pool, and
      // accepted/attempts stays a per-attempt acceptance-rate estimate.
      while (g.accepted.size() < pool_target_ && attempts < max_attempts) {
        if (Cancelled()) break;
        const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
        DrawCandidateBatch(g.transitions, batch, l);
        for (size_t i = 0; i < batch; ++i) {
          if (cand_valid_[i] == 0) continue;
          const SampleRef candidate{cand_trans_[i], cand_prefix_[i]};
          if (IsCanonical(g, candidate, l)) g.accepted.push_back(candidate);
        }
        attempts += batch;
      }
      stats_.attempts += attempts;
      stats_.accepted += g.accepted.size();
      if (g.accepted.empty()) {
        // Statistically negligible when attempts >> group size (acceptance
        // is >= 1/|group|); force one biased sample so a live stratum never
        // reports a false zero.
        ++stats_.forced_samples;
        const size_t pick = picker_.Pick(&rng_);
        SampleRef forced;
        if (DrawRef(g.transitions[pick], &forced)) {
          g.accepted.push_back(forced);
          g.estimate = g.weight_sum.Scale(
              1.0 / static_cast<double>(attempts + 1));
        }
      } else {
        g.estimate = g.weight_sum.Scale(
            static_cast<double>(g.accepted.size()) /
            static_cast<double>(attempts));
      }
      total_estimate = total_estimate.Add(g.estimate);
    }
    est_[l][q] = total_estimate;
    if (total_estimate.IsZero()) return;

    // Pool: mixture over groups proportional to their estimates; singleton
    // groups draw fresh, overlapping groups resample their canonical hits.
    std::vector<const Group*> group_list;
    std::vector<ExtFloat> group_weights;
    for (const auto& [symbol, g] : groups) {
      (void)symbol;
      if (g.estimate.IsZero()) continue;
      group_list.push_back(&g);
      group_weights.push_back(g.estimate);
    }
    if (group_list.size() > 1) BuildPicker(group_weights);
    auto& pool = pools_[l][q];
    pool.reserve(pool_target_);
    // Batched mixture: one word for the group pick, one for the index
    // within the group (fresh prefix for singleton groups, canonical-hit
    // resample otherwise), drawn block-at-a-time.
    for (size_t done = 0; done < pool_target_;) {
      const size_t batch = std::min(kDrawBatch, pool_target_ - done);
      words_.resize(2 * batch);
      rng_.FillBlock(words_.data(), 2 * batch);
      ++stats_.batch_draws;
      BatchSizeHist().Observe(batch);
      for (size_t i = 0; i < batch; ++i) {
        const Group& g =
            group_list.size() == 1
                ? *group_list[0]
                : *group_list[picker_.PickFromDouble(
                      Rng::DoubleFromWord(words_[2 * i]))];
        const uint64_t word = words_[2 * i + 1];
        if (g.transitions.size() == 1) {
          const auto& prev_pool =
              pools_[l - 1][trans[g.transitions[0]].from];
          if (prev_pool.empty()) continue;
          pool.push_back(SampleRef{
              g.transitions[0],
              static_cast<uint32_t>(
                  Rng::BoundedFromWord(word, prev_pool.size()))});
        } else if (!g.accepted.empty()) {
          pool.push_back(g.accepted[Rng::BoundedFromWord(
              word, g.accepted.size())]);
        }
      }
      done += batch;
    }
    stats_.pool_entries += pool.size();
  }

  // |L_n| = |∪_{q ∈ F} A(q, n)| via the same canonical-witness estimator
  // (canonical = smallest accepting state reachable on the string).
  Result<CountEstimate> Finalize() {
    std::vector<StateId> finals;
    std::vector<ExtFloat> weights;
    for (StateId q = 0; q < nfa_.NumStates(); ++q) {
      if (!nfa_.IsAccepting(q) || !live_[n_][q]) continue;
      if (est_[n_][q].IsZero()) continue;
      finals.push_back(q);
      weights.push_back(est_[n_][q]);
    }
    if (finals.empty()) {
      return CountEstimate{ExtFloat(), stats_};
    }
    const ExtFloat total = SumExtFloats(weights);
    if (finals.size() == 1) {
      return CountEstimate{total, stats_};
    }
    const size_t target = pool_target_;
    const size_t max_attempts = config_.attempt_factor * target + 64;
    size_t attempts = 0;
    size_t accepted = 0;
    BuildPicker(weights);
    // Canonical check for one (accepting state, pool index) draw: q must be
    // the smallest accepting state reachable on the sampled string.
    auto AcceptsCanonically = [&](StateId q, uint32_t idx) {
      ++stats_.membership_checks;
      const std::vector<StateId>& reach = ReachStates(q, n_, idx);
      StateId canonical = q;
      for (StateId other : finals) {
        if (std::binary_search(reach.begin(), reach.end(), other)) {
          canonical = other;
          break;
        }
      }
      return canonical == q;
    };
    while (attempts < max_attempts && accepted < target) {
      if (Cancelled()) break;
      const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
      words_.resize(2 * batch);
      rng_.FillBlock(words_.data(), 2 * batch);
      ++stats_.batch_draws;
      BatchSizeHist().Observe(batch);
      for (size_t i = 0; i < batch; ++i) {
        const size_t pick =
            picker_.PickFromDouble(Rng::DoubleFromWord(words_[2 * i]));
        const StateId q = finals[pick];
        const auto& pool = pools_[n_][q];
        if (pool.empty()) continue;
        const uint32_t idx = static_cast<uint32_t>(
            Rng::BoundedFromWord(words_[2 * i + 1], pool.size()));
        if (AcceptsCanonically(q, idx)) ++accepted;
      }
      attempts += batch;
    }
    stats_.attempts += attempts;
    stats_.accepted += accepted;
    if (Cancelled()) return DeadlineError(n_);
    if (accepted == 0) {
      ++stats_.forced_samples;
      accepted = 1;
    }
    ExtFloat value = total.Scale(static_cast<double>(accepted) /
                                 static_cast<double>(attempts));
    return CountEstimate{value, stats_};
  }

  // --- Cancellation -------------------------------------------------------

  bool Cancelled() const { return cancel_ != nullptr && cancel_->Expired(); }

  Status DeadlineError(size_t l) const {
    return Status::DeadlineExceeded(
        "count_nfa: cancelled at length stratum " + std::to_string(l) + "/" +
        std::to_string(n_));
  }

  const Nfa& nfa_;
  const size_t n_;
  const EstimatorConfig& config_;
  Rng rng_;
  const CancelToken* cancel_;
  size_t pool_target_ = 0;
  CountStats stats_;
  std::vector<std::vector<bool>> live_;                       // [l][q]
  std::vector<std::vector<ExtFloat>> est_;                    // [l][q]
  std::vector<std::vector<std::vector<SampleRef>>> pools_;    // [l][q]

  // Hot-path scratch, reused across draws and strata.
  using MemoLevel = std::vector<std::vector<std::vector<StateId>>>;
  struct ChainLink {
    size_t l;
    StateId q;
    uint32_t idx;
  };
  AliasPicker picker_;
  std::vector<MemoLevel> reach_memo_;  // [l][q][pool idx] -> sorted states
  std::vector<ChainLink> chain_;
  std::vector<StateId> step_scratch_;
  // SoA arenas, sized to one batch and reused across batches.
  std::vector<uint64_t> words_;       // raw block-RNG output
  std::vector<uint32_t> cand_trans_;  // candidate transition per attempt
  std::vector<uint32_t> cand_prefix_; // candidate prefix index per attempt
  std::vector<uint8_t> cand_valid_;   // 0 = predecessor pool was empty
  obs::Histogram* batch_hist_ = nullptr;  // lazy counting.batch_size_hist
};

}  // namespace

Result<CountEstimate> CountNfaStrings(const Nfa& nfa, size_t n,
                                      const EstimatorConfig& config) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  PQE_TRACE_SPAN_VAR(span, "count.nfa");
  span.AttrUint("states", nfa.NumStates());
  span.AttrUint("transitions", nfa.transitions().size());
  span.AttrUint("word_length", n);
  return CountMedianOfR(
      config, CounterNames{"count.nfa.rep", "pqe.count_nfa"}, &span,
      // The CSR adjacency is a lazily-built mutable index; build it before
      // the reps share the const Nfa across workers (docs/parallelism.md).
      [&nfa] { nfa.WarmAdjacency(); },
      [&](const EstimatorConfig& rep_config) {
        return NfaCounter(nfa, n, rep_config).Run();
      });
}

}  // namespace pqe
