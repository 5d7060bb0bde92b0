#include "counting/count_nfa.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "counting/median_of_r.h"
#include "counting/union_estimator.h"
#include "obs/trace.h"

namespace pqe {

namespace {

// Stratum id of a (length, state) pair that is not live.
constexpr uint32_t kDead = UINT32_MAX;

// A live stratum A(q, l), keyed by its state q. Its pooled samples are
// derivation references: `ref` is the incoming transition taken, `index`
// the prefix sample in the predecessor stratum's pool, and `memo` the
// sample's reach set (see ReachStates).
using NfaStratum = Stratum<StateId>;

// One outgoing transition as the subset step reads it.
struct OutEdge {
  SymbolId symbol;
  StateId to;
};

class NfaCounter {
 public:
  NfaCounter(const Nfa& nfa, size_t n, const EstimatorConfig& config)
      : nfa_(nfa),
        n_(n),
        config_(config),
        est_(config, n, "count_nfa", "length"),
        arena_(nfa.NumStates(), est_.blocks()) {}

  Result<CountEstimate> Run() {
    if (nfa_.initial_states().empty()) {
      return CountEstimate{ExtFloat(), est_.stats()};
    }
    if (est_.Cancelled()) return est_.DeadlineError(0);
    BuildStrata();
    BuildStepIndex();
    // Level 0: A(q, 0) = {λ} iff q is initial, and only initial states are
    // live at level 0.
    for (uint32_t id = level_begin_[0]; id < level_begin_[1]; ++id) {
      strata_[id].estimate = ExtFloat::FromUint64(1);
      strata_[id].pool = est_.CarvePool<PooledSample>(1);
      strata_[id].pool.push_back(PooledSample{});  // the empty string
    }
    for (size_t l = 1; l <= n_; ++l) {
      if (est_.Cancelled()) return est_.DeadlineError(l);
      for (uint32_t id = level_begin_[l]; id < level_begin_[l + 1]; ++id) {
        ProcessStratum(id, l);
      }
      est_.FinishLevel();
    }
    // A rejection loop may have bailed out mid-stratum on an expired token;
    // the partial tables must not be read as an estimate.
    if (est_.Cancelled()) return est_.DeadlineError(n_);
    return Finalize();
  }

 private:
  // The stratum index. A(q, l) is live when it is non-empty AND can still
  // contribute to an accepting state at length n (forward-feasible ∧
  // backward-useful). Live strata get ids in (l, q) order, so level l's
  // strata are the id range [level_begin_[l], level_begin_[l + 1]) in
  // ascending state order; stratum_of_[l][q] maps back (kDead if not live).
  void BuildStrata() {
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
    stratum_of_.assign(n_ + 1, std::vector<uint32_t>(S, kDead));
    level_begin_.assign(n_ + 2, 0);
    for (size_t l = 0; l <= n_; ++l) {
      level_begin_[l] = static_cast<uint32_t>(strata_.size());
      for (StateId q = 0; q < S; ++q) {
        if (!fwd[l][q] || !bwd[l][q]) continue;
        stratum_of_[l][q] = static_cast<uint32_t>(strata_.size());
        strata_.push_back(NfaStratum{q, ExtFloat(), {}});
      }
    }
    level_begin_[n_ + 1] = static_cast<uint32_t>(strata_.size());
    est_.stats().strata_total = (n_ + 1) * S;
    est_.stats().strata_live = strata_.size();
  }

  // The subset step's input: a CSR of (symbol, to) by source state.
  void BuildStepIndex() {
    const size_t S = nfa_.NumStates();
    const Nfa::Transition* trans = nfa_.transitions().data();
    out_begin_.assign(S + 1, 0);
    out_edges_.reserve(nfa_.NumTransitions());
    for (StateId s = 0; s < S; ++s) {
      out_begin_[s] = static_cast<uint32_t>(out_edges_.size());
      for (uint32_t idx : nfa_.OutTransitions(s)) {
        out_edges_.push_back(OutEdge{trans[idx].symbol, trans[idx].to});
      }
    }
    out_begin_[S] = static_cast<uint32_t>(out_edges_.size());
    step_.reserve(S);
  }

  // Memoized membership oracle: the sorted set of states the automaton can
  // be in after reading the string of pool sample `idx` of stratum `id` (at
  // length l), kept in the sample itself — pools are append-only and only
  // finished strata are referenced, so memos never invalidate within a run.
  // Shared prefixes across draws (and across strata: every ref chain ends in
  // the same low strata) are simulated once instead of per check.
  Span<StateId> ReachStates(uint32_t id, size_t l, uint32_t idx) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    CountStats& stats = est_.stats();
    // Walk the ref chain down to the first memoized suffix (or level 0),
    // recording the uncomputed links.
    chain_.clear();
    PooledSample* sample = &strata_[id].pool[idx];
    while (true) {
      if (sample->memo != SetArena::kNoSet) {
        ++stats.runstates_memo_hits;
        break;
      }
      ++stats.runstates_memo_misses;
      if (l == 0) {
        sample->memo = InitialReach();
        break;
      }
      chain_.push_back(sample);
      const Nfa::Transition& t = trans[sample->ref];
      sample = &strata_[stratum_of_[l - 1][t.from]].pool[sample->index];
      --l;
    }
    // Replay upward: one subset-simulation step per uncomputed link.
    for (size_t i = chain_.size(); i-- > 0;) {
      chain_[i]->memo = Step(sample->memo, trans[chain_[i]->ref].symbol);
      sample = chain_[i];
    }
    return arena_.Get(sample->memo);
  }

  // The reach set of the empty string: the initial states, stored once and
  // shared by every level-0 sample.
  uint32_t InitialReach() {
    if (initial_reach_ == SetArena::kNoSet) {
      step_.assign(nfa_.initial_states().begin(),
                   nfa_.initial_states().end());
      std::sort(step_.begin(), step_.end());
      initial_reach_ = arena_.Store(step_);
    }
    return initial_reach_;
  }

  // One step of the sparse subset simulation: the successors of the reach
  // set `prev` under `symbol`, sorted, stored in the arena.
  uint32_t Step(uint32_t prev, SymbolId symbol) {
    step_.clear();
    for (const StateId s : arena_.Get(prev)) {
      for (uint32_t k = out_begin_[s]; k < out_begin_[s + 1]; ++k) {
        const OutEdge& o = out_edges_[k];
        if (o.symbol == symbol) step_.push_back(o.to);
      }
    }
    std::sort(step_.begin(), step_.end());
    step_.erase(std::unique(step_.begin(), step_.end()), step_.end());
    return arena_.Store(step_);
  }

  // A(q, l) = ∪_t A(from(t), l−1)·symbol(t) over the in-transitions t of q
  // whose predecessor stratum is live with a non-zero estimate. Transitions
  // with distinct symbols append distinct last characters, so only a group
  // of same-symbol in-transitions needs the Karp–Luby estimator; its
  // canonical member is the first whose source state can be reached on the
  // sampled prefix, decided exactly by simulation (ReachStates).
  void ProcessStratum(uint32_t id, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    const std::vector<uint32_t>& prev_row = stratum_of_[l - 1];
    members_.clear();
    for (uint32_t idx : nfa_.InTransitions(strata_[id].key)) {
      const Nfa::Transition& t = trans[idx];
      const uint32_t pred = prev_row[t.from];
      if (pred == kDead) continue;
      const NfaStratum& p = strata_[pred];
      if (p.estimate.IsZero()) continue;
      members_.push_back(
          UnionMember{t.symbol, idx, idx, p.pool.size(), p.estimate});
    }
    auto canonical = [&](const UnionMember* begin, const UnionMember* end,
                         const UnionMember& chosen,
                         const PooledSample& sample) {
      const Span<StateId> reach = ReachStates(
          prev_row[trans[chosen.transition].from], l - 1, sample.index);
      for (const UnionMember* m = begin; m != end; ++m) {
        if (std::binary_search(reach.begin(), reach.end(),
                               trans[m->transition].from)) {
          return m == &chosen;
        }
      }
      return true;
    };
    NfaStratum& stratum = strata_[id];
    stratum.estimate =
        est_.EstimateUnion(&members_, canonical, &stratum.pool);
  }

  // |L_n| = |∪_{q ∈ F} A(q, n)| via the same rejection loop (canonical =
  // smallest accepting state reachable on the string).
  Result<CountEstimate> Finalize() {
    members_.clear();  // one per accepting stratum, ascending state order
    ExtFloat total;
    for (uint32_t id = level_begin_[n_]; id < level_begin_[n_ + 1]; ++id) {
      const NfaStratum& stratum = strata_[id];
      if (!nfa_.IsAccepting(stratum.key)) continue;
      if (stratum.estimate.IsZero()) continue;
      members_.push_back(
          UnionMember{0, 0, id, stratum.pool.size(), stratum.estimate});
      total = total.Add(stratum.estimate);
    }
    if (members_.size() <= 1) return CountEstimate{total, est_.stats()};
    auto canonical = [&](const UnionMember* begin, const UnionMember* end,
                         const UnionMember& chosen,
                         const PooledSample& sample) {
      const Span<StateId> reach = ReachStates(sample.ref, n_, sample.index);
      for (const UnionMember* m = begin; m != end; ++m) {
        if (std::binary_search(reach.begin(), reach.end(),
                               strata_[m->ref].key)) {
          return m == &chosen;
        }
      }
      return true;
    };
    const UnionEstimator::Rejection r = est_.Reject(
        members_.data(), members_.data() + members_.size(), canonical);
    if (est_.Cancelled()) return est_.DeadlineError(n_);
    size_t accepted = r.hits;
    if (accepted == 0) {
      ++est_.stats().forced_samples;
      accepted = 1;
    }
    ExtFloat value = total.Scale(static_cast<double>(accepted) /
                                 static_cast<double>(r.attempts));
    return CountEstimate{value, est_.stats()};
  }

  const Nfa& nfa_;
  const size_t n_;
  const EstimatorConfig& config_;
  UnionEstimator est_;

  // Stratum index (BuildStrata).
  std::vector<NfaStratum> strata_;                 // by stratum id
  std::vector<uint32_t> level_begin_;              // [l] -> first id
  std::vector<std::vector<uint32_t>> stratum_of_;  // [l][q] -> id or kDead

  // Reach-set arena and the subset step's index (BuildStepIndex).
  SetArena arena_;
  uint32_t initial_reach_ = SetArena::kNoSet;  // the empty string's set
  std::vector<uint32_t> out_begin_;  // [s] -> first out-edge of s
  std::vector<OutEdge> out_edges_;
  std::vector<StateId> step_;  // the set being built, before Store
  std::vector<PooledSample*> chain_;

  std::vector<UnionMember> members_;  // per-stratum scratch
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
