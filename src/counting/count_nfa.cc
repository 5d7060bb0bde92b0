#include "counting/count_nfa.h"

#include <algorithm>
#include <cstdint>
#include <memory>
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

// Stratum id of a (length, state) pair that is not live.
constexpr uint32_t kDead = UINT32_MAX;

// Reach sets are stored back to back in blocks of this many states (64 KB),
// or of the next power of two >= |S| when that is larger, so a set never
// spans two blocks. Fixed-size blocks, not one growing buffer: a multi-MB
// buffer cannot reuse the holes a long-lived process leaves in its heap.
constexpr size_t kArenaBlockStates = size_t{1} << 14;

// A pooled sample of A(q, l), stored as a derivation reference: the incoming
// transition taken and the index of the prefix sample in the predecessor
// stratum's pool. Strings are never materialized, so pools cost O(1) memory
// per sample. The entry also carries its memoized reach set (see
// ReachStates): an (offset, length) slice of the reach-set arena. Every
// reach set contains q, so length 0 doubles as the "uncomputed" sentinel.
struct PoolEntry {
  uint32_t transition = 0;  // index into nfa.transitions()
  uint32_t prefix = 0;      // index into the predecessor stratum's pool
  uint32_t memo_off = 0;
  uint32_t memo_len = 0;
};

// A live stratum (q, l): its estimate of |A(q, l)| and its sample pool,
// reserved at the pool target in one block.
struct Stratum {
  StateId state = 0;
  ExtFloat estimate;
  std::vector<PoolEntry> pool;
};

// An incoming transition of the stratum being processed whose predecessor
// stratum is live with a non-zero estimate.
struct InEdge {
  SymbolId symbol;
  uint32_t transition;
  StateId from;
  uint32_t pred;  // predecessor stratum id
  ExtFloat weight;
};

// A same-symbol group of in-edges: a contiguous run of the sorted edges,
// with its accepted canonical hits as a run of the accepted-sample scratch.
struct Group {
  uint32_t begin = 0;
  uint32_t end = 0;
  ExtFloat weight_sum;
  ExtFloat estimate;
  uint32_t accepted_begin = 0;
  uint32_t accepted_end = 0;

  bool singleton() const { return end - begin == 1; }
  uint32_t accepted() const { return accepted_end - accepted_begin; }
};

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
        rng_(config.seed),
        cancel_(config.cancel) {}

  Result<CountEstimate> Run() {
    if (nfa_.initial_states().empty()) {
      return CountEstimate{ExtFloat(), stats_};
    }
    if (Cancelled()) return DeadlineError(0);
    pool_target_ = config_.ResolvePoolSize(n_);
    BuildStrata();
    BuildStepIndex();
    // Level 0: A(q, 0) = {λ} iff q is initial, and only initial states are
    // live at level 0.
    for (uint32_t id = level_begin_[0]; id < level_begin_[1]; ++id) {
      strata_[id].estimate = ExtFloat::FromUint64(1);
      strata_[id].pool.push_back(PoolEntry{});  // the empty string
    }
    for (size_t l = 1; l <= n_; ++l) {
      // One cancellation poll per length stratum, plus finer-grained polls
      // in the rejection loops (an attempt budget can dominate a stratum).
      if (Cancelled()) return DeadlineError(l);
      for (uint32_t id = level_begin_[l]; id < level_begin_[l + 1]; ++id) {
        ProcessStratum(id, l);
      }
      if (cancel_ != nullptr) cancel_->AddProgress(1);
    }
    // A rejection loop may have bailed out mid-stratum on an expired token;
    // the partial tables must not be read as an estimate.
    if (Cancelled()) return DeadlineError(n_);
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
        strata_.push_back(Stratum{q, ExtFloat(), {}});
      }
    }
    level_begin_[n_ + 1] = static_cast<uint32_t>(strata_.size());
    stats_.strata_total = (n_ + 1) * S;
    stats_.strata_live = strata_.size();
  }

  // The subset step's inputs: a CSR of (symbol, to) by source state, and
  // the arena's block size.
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
    while ((size_t{1} << block_shift_) < std::max(kArenaBlockStates, S)) {
      ++block_shift_;
    }
  }

  // Memoized membership oracle: the sorted set of states the automaton can
  // be in after reading the string of pool entry `idx` of stratum `id` (at
  // length l), keyed by the pool slot itself — pools are append-only and
  // only finalized strata are referenced, so entries never invalidate within
  // a run. Shared prefixes across draws (and across strata: every ref chain
  // ends in the same low strata) are simulated once instead of per check.
  Span<StateId> ReachStates(uint32_t id, size_t l, uint32_t idx) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    // Walk the ref chain down to the first memoized suffix (or level 0),
    // recording the uncomputed links.
    chain_.clear();
    PoolEntry* entry = &strata_[id].pool[idx];
    while (true) {
      if (entry->memo_len != 0) {
        ++stats_.runstates_memo_hits;
        break;
      }
      ++stats_.runstates_memo_misses;
      if (l == 0) {
        SetInitialReach(entry);
        break;
      }
      chain_.push_back(entry);
      const Nfa::Transition& t = trans[entry->transition];
      entry = &strata_[stratum_of_[l - 1][t.from]].pool[entry->prefix];
      --l;
    }
    // Replay upward: one subset-simulation step per uncomputed link.
    for (size_t i = chain_.size(); i-- > 0;) {
      Step(*entry, trans[chain_[i]->transition].symbol, chain_[i]);
      entry = chain_[i];
    }
    return Span<StateId>(ArenaAt(entry->memo_off), entry->memo_len);
  }

  // The reach set of the empty string: the initial states, stored once and
  // shared by every level-0 pool entry.
  void SetInitialReach(PoolEntry* entry) {
    if (initial_reach_.memo_len == 0) {
      step_.assign(nfa_.initial_states().begin(),
                   nfa_.initial_states().end());
      std::sort(step_.begin(), step_.end());
      Store(&initial_reach_);
    }
    entry->memo_off = initial_reach_.memo_off;
    entry->memo_len = initial_reach_.memo_len;
  }

  // One step of the sparse subset simulation: the successors of `prev`'s
  // reach set under `symbol`, sorted, stored as `next`'s reach set.
  void Step(const PoolEntry& prev, SymbolId symbol, PoolEntry* next) {
    step_.clear();
    const StateId* set = ArenaAt(prev.memo_off);
    for (uint32_t i = 0; i < prev.memo_len; ++i) {
      const StateId s = set[i];
      for (uint32_t k = out_begin_[s]; k < out_begin_[s + 1]; ++k) {
        const OutEdge& o = out_edges_[k];
        if (o.symbol == symbol) step_.push_back(o.to);
      }
    }
    std::sort(step_.begin(), step_.end());
    step_.erase(std::unique(step_.begin(), step_.end()), step_.end());
    Store(next);
  }

  // Appends step_ to the arena as `entry`'s reach set.
  void Store(PoolEntry* entry) {
    const size_t block_states = size_t{1} << block_shift_;
    const size_t len = step_.size();
    if (blocks_.empty() || block_fill_ + len > block_states) {
      PQE_CHECK((blocks_.size() + 1) * block_states <= (size_t{1} << 32));
      blocks_.push_back(
          std::make_unique_for_overwrite<StateId[]>(block_states));
      block_fill_ = 0;
    }
    std::copy(step_.begin(), step_.end(), blocks_.back().get() + block_fill_);
    entry->memo_off = static_cast<uint32_t>(
        (blocks_.size() - 1) * block_states + block_fill_);
    entry->memo_len = static_cast<uint32_t>(len);
    block_fill_ += len;
  }

  const StateId* ArenaAt(uint32_t off) const {
    return blocks_[off >> block_shift_].get() +
           (off & ((uint32_t{1} << block_shift_) - 1));
  }

  // Builds the alias table the next draw loop picks from, reusing capacity.
  void BuildPicker(const std::vector<ExtFloat>& weights) {
    picker_.Build(weights);
    ++stats_.alias_builds;
  }

  // Canonical check: the chosen in-edge must be the first in its group whose
  // predecessor state can be reached on the sampled prefix — decided exactly
  // by simulation, memoized over the derivation ref.
  bool IsCanonical(const Group& g, uint32_t edge, uint32_t prefix, size_t l) {
    ++stats_.membership_checks;
    const Span<StateId> reach = ReachStates(edges_[edge].pred, l - 1, prefix);
    for (uint32_t k = g.begin; k < g.end; ++k) {
      if (std::binary_search(reach.begin(), reach.end(), edges_[k].from)) {
        return k == edge;
      }
    }
    return true;
  }

  // Batched draw: fills the SoA candidate arenas with `batch` draws —
  // one alias pick plus one multiply-shift prefix index each — from a single
  // contiguous block of raw RNG words. cand_valid_[i] is 0 when the picked
  // edge's predecessor pool is empty (still counted as an attempt).
  void DrawCandidateBatch(const Group& g, size_t batch) {
    words_.resize(2 * batch);
    rng_.FillBlock(words_.data(), 2 * batch);
    ++stats_.batch_draws;
    BatchSizeHist().Observe(batch);
    cand_edge_.resize(batch);
    cand_prefix_.resize(batch);
    cand_valid_.assign(batch, 0);
    for (size_t i = 0; i < batch; ++i) {
      const uint32_t edge = g.begin + static_cast<uint32_t>(
          picker_.PickFromDouble(Rng::DoubleFromWord(words_[2 * i])));
      const std::vector<PoolEntry>& prev_pool = strata_[edges_[edge].pred].pool;
      if (prev_pool.empty()) continue;
      cand_edge_[i] = edge;
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

  // Collects stratum `id`'s in-edges and splits them into same-symbol
  // groups, in symbol order; within a group the edges keep in-transition
  // order, which fixes both the weight-sum order and the canonical order.
  void BuildGroups(uint32_t id, size_t l) {
    const Nfa::Transition* trans = nfa_.transitions().data();
    const std::vector<uint32_t>& prev_row = stratum_of_[l - 1];
    edges_.clear();
    for (uint32_t idx : nfa_.InTransitions(strata_[id].state)) {
      const Nfa::Transition& t = trans[idx];
      const uint32_t pred = prev_row[t.from];
      if (pred == kDead) continue;
      const ExtFloat& w = strata_[pred].estimate;
      if (w.IsZero()) continue;
      edges_.push_back(InEdge{t.symbol, idx, t.from, pred, w});
    }
    // In-transitions come in ascending transition index, so sorting by
    // (symbol, transition) is a stable sort by symbol, without
    // std::stable_sort's buffer allocation.
    std::sort(edges_.begin(), edges_.end(),
              [](const InEdge& a, const InEdge& b) {
                return a.symbol != b.symbol ? a.symbol < b.symbol
                                            : a.transition < b.transition;
              });
    groups_.clear();
    for (uint32_t begin = 0; begin < edges_.size();) {
      Group g;
      g.begin = begin;
      g.end = begin;
      while (g.end < edges_.size() &&
             edges_[g.end].symbol == edges_[begin].symbol) {
        g.weight_sum = g.weight_sum.Add(edges_[g.end].weight);
        ++g.end;
      }
      groups_.push_back(g);
      begin = g.end;
    }
  }

  // Stratum estimate for A(q, l) = ∪_t A(from(t), l−1)·symbol(t).
  // Transitions with distinct symbols append distinct last characters, so
  // the union decomposes into an exact sum over symbol groups; only within
  // a group of same-symbol incoming transitions is the Karp–Luby canonical-
  // witness estimator (with its exact prefix-membership oracle) needed.
  void ProcessStratum(uint32_t id, size_t l) {
    BuildGroups(id, l);
    if (groups_.empty()) return;  // estimate stays 0

    accepted_.clear();
    ExtFloat total_estimate;
    for (Group& g : groups_) {
      g.accepted_begin = static_cast<uint32_t>(accepted_.size());
      g.accepted_end = g.accepted_begin;
      if (g.singleton()) {
        g.estimate = g.weight_sum;  // no overlap possible
        total_estimate = total_estimate.Add(g.estimate);
        continue;
      }
      // One picker build per group, reused across the whole rejection loop.
      weights_.clear();
      for (uint32_t k = g.begin; k < g.end; ++k) {
        weights_.push_back(edges_[k].weight);
      }
      BuildPicker(weights_);
      const size_t max_attempts = config_.attempt_factor * pool_target_ + 64;
      size_t attempts = 0;
      // Batched SoA kernel: draw a block of candidates at once, then run
      // the acceptance pass over the contiguous arenas. The whole batch
      // counts as attempts even when the pool target is crossed mid-batch
      // — the extra canonical hits just enrich the resample pool, and
      // accepted/attempts stays a per-attempt acceptance-rate estimate.
      while (accepted_.size() - g.accepted_begin < pool_target_ &&
             attempts < max_attempts) {
        if (Cancelled()) break;
        const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
        DrawCandidateBatch(g, batch);
        for (size_t i = 0; i < batch; ++i) {
          if (cand_valid_[i] == 0) continue;
          if (IsCanonical(g, cand_edge_[i], cand_prefix_[i], l)) {
            accepted_.push_back(
                PoolEntry{edges_[cand_edge_[i]].transition, cand_prefix_[i]});
          }
        }
        attempts += batch;
      }
      g.accepted_end = static_cast<uint32_t>(accepted_.size());
      stats_.attempts += attempts;
      stats_.accepted += g.accepted();
      if (g.accepted() == 0) {
        // Statistically negligible when attempts >> group size (acceptance
        // is >= 1/|group|); force one biased sample so a live stratum never
        // reports a false zero.
        ++stats_.forced_samples;
        const InEdge& e = edges_[g.begin + picker_.Pick(&rng_)];
        const std::vector<PoolEntry>& prev_pool = strata_[e.pred].pool;
        if (!prev_pool.empty()) {
          accepted_.push_back(PoolEntry{
              e.transition,
              static_cast<uint32_t>(rng_.NextBounded(prev_pool.size()))});
          g.accepted_end = static_cast<uint32_t>(accepted_.size());
          g.estimate = g.weight_sum.Scale(
              1.0 / static_cast<double>(attempts + 1));
        }
      } else {
        g.estimate = g.weight_sum.Scale(static_cast<double>(g.accepted()) /
                                        static_cast<double>(attempts));
      }
      total_estimate = total_estimate.Add(g.estimate);
    }
    Stratum& stratum = strata_[id];
    stratum.estimate = total_estimate;
    if (total_estimate.IsZero()) return;

    // Pool: mixture over groups proportional to their estimates; singleton
    // groups draw fresh, overlapping groups resample their canonical hits.
    group_list_.clear();
    weights_.clear();
    for (uint32_t gi = 0; gi < groups_.size(); ++gi) {
      if (groups_[gi].estimate.IsZero()) continue;
      group_list_.push_back(gi);
      weights_.push_back(groups_[gi].estimate);
    }
    if (group_list_.size() > 1) BuildPicker(weights_);
    std::vector<PoolEntry>& pool = stratum.pool;
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
            groups_[group_list_.size() == 1
                        ? group_list_[0]
                        : group_list_[picker_.PickFromDouble(
                              Rng::DoubleFromWord(words_[2 * i]))]];
        const uint64_t word = words_[2 * i + 1];
        if (g.singleton()) {
          const InEdge& e = edges_[g.begin];
          const std::vector<PoolEntry>& prev_pool = strata_[e.pred].pool;
          if (prev_pool.empty()) continue;
          pool.push_back(PoolEntry{
              e.transition, static_cast<uint32_t>(Rng::BoundedFromWord(
                                word, prev_pool.size()))});
        } else if (g.accepted() != 0) {
          pool.push_back(accepted_[g.accepted_begin +
                                   Rng::BoundedFromWord(word, g.accepted())]);
        }
      }
      done += batch;
    }
    stats_.pool_entries += pool.size();
  }

  // |L_n| = |∪_{q ∈ F} A(q, n)| via the same canonical-witness estimator
  // (canonical = smallest accepting state reachable on the string).
  Result<CountEstimate> Finalize() {
    std::vector<uint32_t> finals;  // stratum ids, ascending state order
    std::vector<ExtFloat> weights;
    for (uint32_t id = level_begin_[n_]; id < level_begin_[n_ + 1]; ++id) {
      const Stratum& stratum = strata_[id];
      if (!nfa_.IsAccepting(stratum.state)) continue;
      if (stratum.estimate.IsZero()) continue;
      finals.push_back(id);
      weights.push_back(stratum.estimate);
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
    // Canonical check for one (accepting stratum, pool index) draw: its
    // state must be the smallest accepting state reachable on the string.
    auto AcceptsCanonically = [&](uint32_t id, uint32_t idx) {
      ++stats_.membership_checks;
      const Span<StateId> reach = ReachStates(id, n_, idx);
      for (uint32_t other : finals) {
        if (std::binary_search(reach.begin(), reach.end(),
                               strata_[other].state)) {
          return other == id;
        }
      }
      return true;
    };
    while (attempts < max_attempts && accepted < target) {
      if (Cancelled()) break;
      const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
      words_.resize(2 * batch);
      rng_.FillBlock(words_.data(), 2 * batch);
      ++stats_.batch_draws;
      BatchSizeHist().Observe(batch);
      for (size_t i = 0; i < batch; ++i) {
        const uint32_t id = finals[picker_.PickFromDouble(
            Rng::DoubleFromWord(words_[2 * i]))];
        const std::vector<PoolEntry>& pool = strata_[id].pool;
        if (pool.empty()) continue;
        const uint32_t idx = static_cast<uint32_t>(
            Rng::BoundedFromWord(words_[2 * i + 1], pool.size()));
        if (AcceptsCanonically(id, idx)) ++accepted;
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

  // Stratum index (BuildStrata).
  std::vector<Stratum> strata_;                    // by stratum id
  std::vector<uint32_t> level_begin_;              // [l] -> first id
  std::vector<std::vector<uint32_t>> stratum_of_;  // [l][q] -> id or kDead

  // Reach-set arena and the subset step's index (BuildStepIndex).
  std::vector<std::unique_ptr<StateId[]>> blocks_;
  size_t block_shift_ = 0;  // log2 of the block size in states
  size_t block_fill_ = 0;   // states used in the last block
  PoolEntry initial_reach_;  // the empty string's reach set
  std::vector<uint32_t> out_begin_;  // [s] -> first out-edge of s
  std::vector<OutEdge> out_edges_;
  std::vector<StateId> step_;  // the set being built, before Store
  std::vector<PoolEntry*> chain_;

  // Per-stratum scratch, reused across strata.
  AliasPicker picker_;
  std::vector<InEdge> edges_;
  std::vector<Group> groups_;
  std::vector<PoolEntry> accepted_;  // canonical hits, one run per group
  std::vector<uint32_t> group_list_;  // groups with a non-zero estimate
  std::vector<ExtFloat> weights_;
  // SoA arenas, sized to one batch and reused across batches.
  std::vector<uint64_t> words_;        // raw block-RNG output
  std::vector<uint32_t> cand_edge_;    // candidate in-edge per attempt
  std::vector<uint32_t> cand_prefix_;  // candidate prefix index per attempt
  std::vector<uint8_t> cand_valid_;    // 0 = predecessor pool was empty
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
