#include "counting/count_nfta.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/tree.h"
#include "counting/median_of_r.h"
#include "counting/weighted_pick.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace pqe {

namespace {

// Attempts drawn per block-RNG batch (as in count_nfa.cc): 2–3 raw words per
// attempt, so a batch stays L1-resident while the acceptance pass runs over
// it.
constexpr size_t kDrawBatch = 256;

// Derivation reference for a pooled tree sample of A(q, s): the transition
// taken at the root and the forest sample index in F(τ, arity, s−1).
struct TreeSample {
  uint32_t transition = 0;
  uint32_t forest = 0;
};

// Derivation reference for a pooled forest sample of F(τ, j, s): the prefix
// forest sample in F(τ, j−1, s − split) and the tree sample in
// A(child_j(τ), split).
struct ForestSample {
  uint32_t prefix = 0;
  uint32_t tree = 0;
  uint32_t split = 0;  // size of the j-th child tree
};

class NftaCounter {
 public:
  NftaCounter(const Nfta& nfta, size_t n, const EstimatorConfig& config)
      : nfta_(nfta),
        n_(n),
        config_(config),
        rng_(config.seed),
        cancel_(config.cancel) {}

  Result<CountEstimate> Run() {
    if (nfta_.HasLambdaTransitions()) {
      return Status::InvalidArgument(
          "CountNftaTrees requires a λ-free NFTA (run EliminateLambda)");
    }
    if (n_ == 0) return CountEstimate{ExtFloat(), stats_};
    if (Cancelled()) return DeadlineError(0);
    pool_target_ = config_.ResolvePoolSize(n_);

    ComputeForwardFeasibility();
    ComputeBackwardUsefulness();
    BuildLiveLists();

    // Strata accounting, folded into the processing sweep below (the sweep
    // already visits every stratum to test liveness; a dedicated counting
    // pass would re-walk O(|Q|·n + |Δ|·a·n) entries). strata_total is a
    // closed form: A-strata are |Q|·n (sizes 1..n), F-strata arity·(n+1)
    // per transition (sizes 0..n). The sweep skips forest size 0, which is
    // never live (a child tree has size >= 1), so the live count matches.
    stats_.strata_total = nfta_.NumStates() * n_;
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      stats_.strata_total += nfta_.transition(tau).children.size() * (n_ + 1);
    }

    AllocateTables();
    for (size_t s = 1; s <= n_; ++s) {
      // One cancellation poll per size stratum, plus finer-grained polls in
      // the rejection loops (a single stratum's attempt budget can be large).
      if (Cancelled()) return DeadlineError(s);
      // The live lists replay the dense scan's visit order exactly (states
      // ascending, then transitions ascending with positions ascending), so
      // the processing — and with it every RNG draw — is unchanged.
      for (StateId q : live_a_by_s_[s]) {
        ++stats_.strata_live;
        ProcessTreeStratum(q, s);
      }
      for (const auto& [tau, j] : live_f_by_s_[s]) {
        ++stats_.strata_live;
        ProcessForestStratum(tau, j, s);
      }
      if (cancel_ != nullptr) cancel_->AddProgress(1);
    }
    // A rejection loop may have bailed out mid-stratum on an expired token;
    // the partial tables must not be read as an estimate.
    if (Cancelled()) return DeadlineError(n_);
    CountEstimate out;
    out.value = EstA(nfta_.initial_state(), n_);
    out.stats = stats_;
    return out;
  }

  // Materializes `count` (near-uniform) accepted trees of size n_ from the
  // root stratum's sample pool. Must be called after Run(); returns fewer
  // trees (possibly none) when the language is empty.
  std::vector<LabeledTree> SampleAccepted(size_t count) {
    std::vector<LabeledTree> out;
    const auto& pool = TreePool(pool_a_[nfta_.initial_state()], n_);
    if (pool.empty()) return out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t idx =
          static_cast<uint32_t>(rng_.NextBounded(pool.size()));
      out.push_back(MaterializeTree(nfta_.initial_state(), n_, idx));
    }
    return out;
  }

 private:
  // --- Feasibility -----------------------------------------------------

  // Feasibility-propagation events, packed into one word so the per-size
  // buckets are flat u64 vectors: tree strata carry the state, forest
  // strata the transition and prefix length (positions fit 24 bits — an
  // arity cannot exceed the tree size bound).
  static constexpr uint64_t kTreeEvent = uint64_t{1} << 63;
  static uint64_t EncodeForest(uint32_t tau, size_t j) {
    return (static_cast<uint64_t>(tau) << 24) | static_cast<uint64_t>(j);
  }
  static uint32_t ForestEventTau(uint64_t e) {
    return static_cast<uint32_t>(e >> 24);
  }
  static uint32_t ForestEventJ(uint64_t e) {
    return static_cast<uint32_t>(e & 0xffffff);
  }

  // fwd_a_[q][s]: A(q, s) non-empty; fwd_f_[τ][j][s]: F(τ, j, s) non-empty.
  // Alongside the bitvectors, sparse sorted lists of feasible sizes are kept
  // per stratum: gadget-expanded automata are size-determined (one or two
  // live sizes per stratum), and the naive split loops would cost
  // O(n²·|Δ|).
  //
  // The closure is computed semi-naively: instead of re-scanning every
  // transition at every size (O(n·|Δ|·a) bit probes, which dwarfs the
  // handful of live strata on gadget-expanded automata), newly feasible
  // strata are queued into per-size buckets and each one cascades once —
  // a new tree size pairs against the recorded prefix-forest sizes, a new
  // forest size pairs against the recorded child-tree sizes. Every
  // (prefix, child) pair is seen by whichever side is processed later, so
  // the fixed point — and with it every downstream table — is identical to
  // the dense scan's; buckets drain in ascending size order, which keeps
  // the recorded size lists sorted exactly as before.
  void ComputeForwardFeasibility() {
    const size_t S = nfta_.NumStates();
    fwd_a_.assign(S, std::vector<bool>(n_ + 1, false));
    fwd_a_sizes_.assign(S, {});
    fwd_f_.resize(nfta_.NumTransitions());
    fwd_f_sizes_.resize(nfta_.NumTransitions());
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      const size_t arity = nfta_.transition(tau).children.size();
      fwd_f_[tau].assign(arity + 1, std::vector<bool>(n_ + 1, false));
      fwd_f_sizes_[tau].assign(arity + 1, {});
      fwd_f_[tau][0][0] = true;
      fwd_f_sizes_[tau][0].push_back(0);
    }

    // Reverse child index (CSR): state q -> occurrences (τ, j) with
    // child_j(τ) == q, the pairs a new tree size of q can extend.
    std::vector<uint32_t> rev_offsets(S + 1, 0);
    size_t total_arity = 0;
    for (const Nfta::Transition& t : nfta_.transitions()) {
      for (StateId c : t.children) ++rev_offsets[c + 1];
      total_arity += t.children.size();
    }
    for (size_t i = 0; i < S; ++i) rev_offsets[i + 1] += rev_offsets[i];
    std::vector<uint64_t> rev_pairs(total_arity);
    {
      std::vector<uint32_t> cursor(rev_offsets.begin(), rev_offsets.end() - 1);
      for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
        const Nfta::Transition& t = nfta_.transition(tau);
        for (size_t j = 1; j <= t.children.size(); ++j) {
          rev_pairs[cursor[t.children[j - 1]]++] = EncodeForest(tau, j);
        }
      }
    }

    std::vector<std::vector<uint64_t>> buckets(n_ + 1);
    // Seeds: an arity-0 transition's (empty) full forest makes a size-1
    // tree; arity-≥1 transitions wait for their first child sizes.
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      if (nfta_.transition(tau).children.empty() && n_ >= 1) {
        buckets[1].push_back(kTreeEvent | nfta_.transition(tau).from);
      }
    }
    for (size_t s = 1; s <= n_; ++s) {
      // Index drain: processing can append same-size events (a tree of
      // size s extends an empty prefix forest to a forest of size s).
      for (size_t i = 0; i < buckets[s].size(); ++i) {
        const uint64_t e = buckets[s][i];
        if (e & kTreeEvent) {
          const StateId q = static_cast<StateId>(e & ~kTreeEvent);
          if (fwd_a_[q][s]) continue;
          fwd_a_[q][s] = true;
          fwd_a_sizes_[q].push_back(static_cast<uint32_t>(s));
          for (uint32_t r = rev_offsets[q]; r < rev_offsets[q + 1]; ++r) {
            const uint32_t tau = ForestEventTau(rev_pairs[r]);
            const uint32_t j = ForestEventJ(rev_pairs[r]);
            for (uint32_t prev : fwd_f_sizes_[tau][j - 1]) {
              if (prev + s > n_) break;
              buckets[prev + s].push_back(EncodeForest(tau, j));
            }
          }
        } else {
          const uint32_t tau = ForestEventTau(e);
          const uint32_t j = ForestEventJ(e);
          if (fwd_f_[tau][j][s]) continue;
          fwd_f_[tau][j][s] = true;
          fwd_f_sizes_[tau][j].push_back(static_cast<uint32_t>(s));
          const Nfta::Transition& t = nfta_.transition(tau);
          if (j == t.children.size()) {
            if (s + 1 <= n_) buckets[s + 1].push_back(kTreeEvent | t.from);
          } else {
            for (uint32_t split : fwd_a_sizes_[t.children[j]]) {
              if (s + split > n_) break;
              buckets[s + split].push_back(EncodeForest(tau, j + 1));
            }
          }
        }
      }
      buckets[s].clear();
      buckets[s].shrink_to_fit();
    }
  }

  // bwd_a_/bwd_f_: the stratum can occur inside some accepted tree of total
  // size n. Seeded at (initial, n) and propagated down through transitions
  // and feasible splits.
  void ComputeBackwardUsefulness() {
    const size_t S = nfta_.NumStates();
    bwd_a_.assign(S, std::vector<bool>(n_ + 1, false));
    bwd_f_.resize(nfta_.NumTransitions());
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      const size_t arity = nfta_.transition(tau).children.size();
      bwd_f_[tau].assign(arity + 1, std::vector<bool>(n_ + 1, false));
    }
    if (config_.disable_backward_pruning) {
      // Ablation mode: everything forward-feasible counts as useful.
      bwd_a_ = fwd_a_;
      bwd_f_ = fwd_f_;
      return;
    }
    // Semi-naive marking, mirroring the forward pass: a seed at
    // (initial, n) cascades down, each marked stratum processed once.
    // A(q, s) marks the full forests F(τ, m, s−1); F(τ, j, s) marks its
    // feasible splits F(τ, j−1, prev) and A(child_j, s−prev). Marks only
    // ever target strictly smaller (size, position), so draining buckets
    // from large sizes down — re-scanning a bucket for the same-size marks
    // a forest stratum makes on its shorter prefixes — reaches the same
    // fixed point as the dense descending scan.
    std::vector<std::vector<uint64_t>> buckets(n_ + 1);
    buckets[n_].push_back(kTreeEvent | nfta_.initial_state());
    for (size_t s = n_ + 1; s-- > 1;) {
      for (size_t i = 0; i < buckets[s].size(); ++i) {
        const uint64_t e = buckets[s][i];
        if (e & kTreeEvent) {
          const StateId q = static_cast<StateId>(e & ~kTreeEvent);
          if (bwd_a_[q][s]) continue;
          bwd_a_[q][s] = true;
          if (!fwd_a_[q][s]) continue;  // The seed may be infeasible.
          for (uint32_t tau_idx : nfta_.OutTransitions(q)) {
            const size_t m = nfta_.transition(tau_idx).children.size();
            if (fwd_f_[tau_idx][m][s - 1]) {
              buckets[s - 1].push_back(EncodeForest(tau_idx, m));
            }
          }
        } else {
          const uint32_t tau = ForestEventTau(e);
          const uint32_t j = ForestEventJ(e);
          if (bwd_f_[tau][j][s]) continue;
          bwd_f_[tau][j][s] = true;
          if (j == 0) continue;
          const Nfta::Transition& t = nfta_.transition(tau);
          for (uint32_t prev : fwd_f_sizes_[tau][j - 1]) {
            if (prev > s) break;
            const size_t split = s - prev;
            if (split >= 1 && fwd_a_[t.children[j - 1]][split]) {
              buckets[prev].push_back(EncodeForest(tau, j - 1));
              buckets[split].push_back(kTreeEvent | t.children[j - 1]);
            }
          }
        }
      }
      buckets[s].clear();
      buckets[s].shrink_to_fit();
    }
    // Size-0 forest events (empty prefixes of useful forests) land in
    // bucket 0; they carry no further cascade, just the mark.
    for (const uint64_t e : buckets[0]) {
      bwd_f_[ForestEventTau(e)][ForestEventJ(e)][0] = true;
    }
  }

  bool LiveA(StateId q, size_t s) const {
    return fwd_a_[q][s] && bwd_a_[q][s];
  }
  bool LiveF(uint32_t tau, size_t j, size_t s) const {
    return fwd_f_[tau][j][s] && bwd_f_[tau][j][s];
  }

  // Per-size lists of live strata, distilled from the sparse forward size
  // lists once both pruning passes are done. The main sweep then visits
  // exactly the live strata instead of re-testing every (state, size) and
  // (transition, position, size) combination per size — the dense scan is
  // O(n·(|Q| + |Δ|·a)) of bit probes, which on gadget-expanded automata
  // (tens of thousands of states, a handful of live sizes each) costs more
  // than all the liveness hits it finds. Build order replays the dense
  // scan's visit order, so processing order is unchanged.
  void BuildLiveLists() {
    live_a_by_s_.assign(n_ + 1, {});
    live_f_by_s_.assign(n_ + 1, {});
    for (StateId q = 0; q < nfta_.NumStates(); ++q) {
      for (uint32_t s : fwd_a_sizes_[q]) {
        if (bwd_a_[q][s]) live_a_by_s_[s].push_back(q);
      }
    }
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      const size_t arity = nfta_.transition(tau).children.size();
      for (size_t j = 1; j <= arity; ++j) {
        for (uint32_t s : fwd_f_sizes_[tau][j]) {
          if (bwd_f_[tau][j][s]) {
            live_f_by_s_[s].push_back({tau, static_cast<uint32_t>(j)});
          }
        }
      }
    }
  }

  // --- Tables -----------------------------------------------------------

  // Tables are sparse: gadget-expanded automata are size-determined, so only
  // a handful of sizes per stratum are live; dense (state x size) tables
  // would dominate memory.
  void AllocateTables() {
    est_a_.resize(nfta_.NumStates());
    pool_a_.resize(nfta_.NumStates());
    root_memo_.resize(nfta_.NumStates());
    child0_index_.resize(nfta_.AlphabetSize());
    // One scratch row per possible recursion depth (a child stratum is
    // strictly smaller, so depth < n); sized up front because the recursion
    // holds references into these rows while it descends.
    out_scratch_.resize(n_ + 1);
    kids_scratch_.resize(n_ + 1);
    sets_scratch_.resize(n_ + 1);
    est_f_.resize(nfta_.NumTransitions());
    pool_f_.resize(nfta_.NumTransitions());
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      const size_t arity = nfta_.transition(tau).children.size();
      est_f_[tau].resize(arity + 1);
      pool_f_[tau].resize(arity + 1);
      est_f_[tau][0].emplace(0, ExtFloat::FromUint64(1));
    }
  }

  ExtFloat EstA(StateId q, size_t s) const {
    auto it = est_a_[q].find(static_cast<uint32_t>(s));
    return it == est_a_[q].end() ? ExtFloat() : it->second;
  }
  ExtFloat EstF(uint32_t tau, size_t j, size_t s) const {
    auto it = est_f_[tau][j].find(static_cast<uint32_t>(s));
    return it == est_f_[tau][j].end() ? ExtFloat() : it->second;
  }
  static const std::vector<TreeSample>& TreePool(
      const std::unordered_map<uint32_t, std::vector<TreeSample>>& m,
      size_t s) {
    static const std::vector<TreeSample> kEmptyTrees;
    auto it = m.find(static_cast<uint32_t>(s));
    return it == m.end() ? kEmptyTrees : it->second;
  }
  static const std::vector<ForestSample>& ForestPool(
      const std::unordered_map<uint32_t, std::vector<ForestSample>>& m,
      size_t s) {
    static const std::vector<ForestSample> kEmptyForests;
    auto it = m.find(static_cast<uint32_t>(s));
    return it == m.end() ? kEmptyForests : it->second;
  }

  // --- Materialization ---------------------------------------------------

  // Appends the forest sample pool_f_[tau][j][s][idx] as children of
  // `parent` in `out` (left to right).
  void MaterializeForest(uint32_t tau, size_t j, size_t s, uint32_t idx,
                         LabeledTree* out, uint32_t parent) const {
    if (j == 0) return;  // empty forest
    const ForestSample& ref = ForestPool(pool_f_[tau][j], s)[idx];
    MaterializeForest(tau, j - 1, s - ref.split, ref.prefix, out, parent);
    const Nfta::Transition& t = nfta_.transition(tau);
    MaterializeTreeInto(t.children[j - 1], ref.split, ref.tree, out, parent);
  }

  // Appends the tree sample pool_a_[q][s][idx] as a child of `parent`
  // (or as the root when parent == kNoParent).
  static constexpr uint32_t kNoParent = 0xffffffffu;
  void MaterializeTreeInto(StateId q, size_t s, uint32_t idx,
                           LabeledTree* out, uint32_t parent) const {
    const TreeSample& ref = TreePool(pool_a_[q], s)[idx];
    const Nfta::Transition& t = nfta_.transition(ref.transition);
    uint32_t node;
    if (parent == kNoParent) {
      node = out->root();
    } else {
      node = out->AddChild(parent, t.symbol);
    }
    MaterializeForest(ref.transition, t.children.size(), s - 1, ref.forest,
                      out, node);
  }

  LabeledTree MaterializeTree(StateId q, size_t s, uint32_t idx) const {
    const TreeSample& ref = TreePool(pool_a_[q], s)[idx];
    const Nfta::Transition& t = nfta_.transition(ref.transition);
    LabeledTree out(t.symbol);
    MaterializeForest(ref.transition, t.children.size(), s - 1, ref.forest,
                      &out, out.root());
    return out;
  }

  // --- Strata processing --------------------------------------------------

  // A same-symbol group of candidate transitions (see ProcessTreeStratum).
  struct Group {
    std::vector<uint32_t> taus;
    std::vector<ExtFloat> weights;
    ExtFloat weight_sum;
    ExtFloat estimate;
    std::vector<TreeSample> accepted;  // only for multi-τ groups
  };

  // Builds the alias table the next draw loop picks from, reusing capacity.
  void BuildPicker(const std::vector<ExtFloat>& weights) {
    picker_.Build(weights);
    ++stats_.alias_builds;
  }

  obs::Histogram& BatchSizeHist() {
    if (batch_hist_ == nullptr) {
      batch_hist_ = &obs::MetricRegistry::Global().GetHistogram(
          "counting.batch_size_hist");
    }
    return *batch_hist_;
  }

  // Sentinel in a hoisted forest-pool size list: the transition is a leaf,
  // so no forest index is drawn (as opposed to 0, an empty pool).
  static constexpr size_t kLeafPool = static_cast<size_t>(-1);

  // Batched draw for the tree-stratum rejection loop: fills the SoA
  // candidate arenas with `batch` draws — one alias pick over the group's
  // transitions plus one multiply-shift forest index each — from a single
  // contiguous block of raw RNG words. cand_valid_[i] is 0 when the picked
  // transition's forest pool is empty (still counted as an attempt).
  // `fpool_sizes` is the hoisted per-transition forest-pool size (the pools
  // live in smaller, finalized strata, so one lookup per group replaces one
  // per trial).
  void DrawTreeBatch(const Group& g, const std::vector<size_t>& fpool_sizes,
                     size_t batch) {
    words_.resize(2 * batch);
    rng_.FillBlock(words_.data(), 2 * batch);
    ++stats_.batch_draws;
    BatchSizeHist().Observe(batch);
    cand_tau_.resize(batch);
    cand_forest_.resize(batch);
    cand_valid_.assign(batch, 0);
    for (size_t i = 0; i < batch; ++i) {
      const size_t pick =
          picker_.PickFromDouble(Rng::DoubleFromWord(words_[2 * i]));
      const size_t fpool_size = fpool_sizes[pick];
      uint32_t forest = 0;
      if (fpool_size != kLeafPool) {
        if (fpool_size == 0) continue;
        forest = static_cast<uint32_t>(
            Rng::BoundedFromWord(words_[2 * i + 1], fpool_size));
      }
      cand_tau_[i] = g.taus[pick];
      cand_forest_[i] = forest;
      cand_valid_[i] = 1;
    }
  }

  // A(q, s) = ∪_{τ ∈ out(q)} { α_τ-rooted trees with child forest in
  // F(τ, m_τ, s−1) }. Transitions with distinct symbols generate disjoint
  // tree sets, so the union decomposes into an exact sum over symbol groups;
  // the Karp–Luby canonical-witness estimator is only needed *within* a
  // group of same-symbol transitions (rare outside witness-choice states).
  void ProcessTreeStratum(StateId q, size_t s) {
    std::map<SymbolId, Group> groups;
    for (uint32_t tau_idx : nfta_.OutTransitions(q)) {
      const Nfta::Transition& t = nfta_.transition(tau_idx);
      const ExtFloat w = EstF(tau_idx, t.children.size(), s - 1);
      if (w.IsZero()) continue;
      Group& g = groups[t.symbol];
      g.taus.push_back(tau_idx);
      g.weights.push_back(w);
      g.weight_sum = g.weight_sum.Add(w);
    }
    if (groups.empty()) return;

    // Draws one candidate for transition tau (random forest ref) for the
    // forced-sample fallback; false if the forest pool is empty.
    auto DrawCandidate = [&](uint32_t tau_idx, TreeSample* out) {
      const Nfta::Transition& t = nfta_.transition(tau_idx);
      out->transition = tau_idx;
      out->forest = 0;
      if (!t.children.empty()) {
        const auto& fpool =
            ForestPool(pool_f_[tau_idx][t.children.size()], s - 1);
        if (fpool.empty()) return false;
        out->forest = static_cast<uint32_t>(rng_.NextBounded(fpool.size()));
      }
      return true;
    };

    // Per-group estimates: exact for singleton groups, Karp–Luby within
    // overlapping (same-symbol) groups.
    ExtFloat total_estimate;
    for (auto& [symbol, g] : groups) {
      (void)symbol;
      if (g.taus.size() == 1) {
        g.estimate = g.weight_sum;
        total_estimate = total_estimate.Add(g.estimate);
        continue;
      }
      // One picker build per group, reused across the whole rejection loop.
      BuildPicker(g.weights);
      const size_t target = pool_target_;
      const size_t max_attempts = config_.attempt_factor * target + 64;
      size_t attempts = 0;
      // Batched SoA kernel (as in count_nfa.cc): the whole batch counts as
      // attempts even when the target is crossed mid-batch — extra
      // canonical hits just enrich the resample pool.
      fpool_sizes_.resize(g.taus.size());
      for (size_t k = 0; k < g.taus.size(); ++k) {
        const Nfta::Transition& t = nfta_.transition(g.taus[k]);
        fpool_sizes_[k] =
            t.children.empty()
                ? kLeafPool
                : ForestPool(pool_f_[g.taus[k]][t.children.size()], s - 1)
                      .size();
      }
      while (g.accepted.size() < target && attempts < max_attempts) {
        if (Cancelled()) break;
        const size_t batch = std::min(kDrawBatch, max_attempts - attempts);
        DrawTreeBatch(g, fpool_sizes_, batch);
        for (size_t i = 0; i < batch; ++i) {
          if (cand_valid_[i] == 0) continue;
          const TreeSample candidate{cand_tau_[i], cand_forest_[i]};
          if (CanonicalTransition(q, s, candidate) ==
              candidate.transition) {
            g.accepted.push_back(candidate);
          }
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
        TreeSample forced;
        if (DrawCandidate(g.taus[pick], &forced)) {
          g.accepted.push_back(forced);
          g.estimate = g.weight_sum.Scale(
              1.0 / static_cast<double>(attempts + 1));
        }
      } else {
        g.estimate = g.weight_sum.Scale(static_cast<double>(g.accepted.size()) /
                                        static_cast<double>(attempts));
      }
      total_estimate = total_estimate.Add(g.estimate);
    }
    est_a_[q].emplace(static_cast<uint32_t>(s), total_estimate);
    if (total_estimate.IsZero()) return;

    // Pool: a mixture over groups proportional to their estimates. Samples
    // from singleton groups are drawn fresh; overlapping groups resample
    // their accepted (canonical) candidates.
    std::vector<const Group*> group_list;
    std::vector<ExtFloat> group_weights;
    for (const auto& [symbol, g] : groups) {
      (void)symbol;
      if (g.estimate.IsZero()) continue;
      group_list.push_back(&g);
      group_weights.push_back(g.estimate);
    }
    if (group_list.size() > 1) BuildPicker(group_weights);
    auto& pool = pool_a_[q][static_cast<uint32_t>(s)];
    pool.reserve(pool_target_);
    // Hoisted per-group draw bound: fresh-draw forest-pool size for
    // singleton groups (kLeafPool when no forest is drawn), accepted-pool
    // size otherwise — one lookup per group instead of one per entry.
    fpool_sizes_.resize(group_list.size());
    for (size_t k = 0; k < group_list.size(); ++k) {
      const Group& g = *group_list[k];
      if (g.taus.size() == 1) {
        const Nfta::Transition& t = nfta_.transition(g.taus[0]);
        fpool_sizes_[k] =
            t.children.empty()
                ? kLeafPool
                : ForestPool(pool_f_[g.taus[0]][t.children.size()], s - 1)
                      .size();
      } else {
        fpool_sizes_[k] = g.accepted.size();
      }
    }
    // Batched mixture: one word for the group pick, one for the index
    // within the group (fresh forest ref for singleton groups,
    // canonical-hit resample otherwise), drawn block-at-a-time.
    for (size_t done = 0; done < pool_target_;) {
      const size_t batch = std::min(kDrawBatch, pool_target_ - done);
      words_.resize(2 * batch);
      rng_.FillBlock(words_.data(), 2 * batch);
      ++stats_.batch_draws;
      BatchSizeHist().Observe(batch);
      for (size_t i = 0; i < batch; ++i) {
        const size_t gpick =
            group_list.size() == 1
                ? 0
                : picker_.PickFromDouble(Rng::DoubleFromWord(words_[2 * i]));
        const Group& g = *group_list[gpick];
        const size_t bound = fpool_sizes_[gpick];
        const uint64_t word = words_[2 * i + 1];
        if (g.taus.size() == 1) {
          uint32_t forest = 0;
          if (bound != kLeafPool) {
            if (bound == 0) continue;
            forest = static_cast<uint32_t>(Rng::BoundedFromWord(word, bound));
          }
          pool.push_back(TreeSample{g.taus[0], forest});
        } else if (bound != 0) {
          pool.push_back(g.accepted[Rng::BoundedFromWord(word, bound)]);
        }
      }
      done += batch;
    }
    stats_.pool_entries += pool.size();
  }

  // A pooled subtree reference: the tree sample pool_a_[state][split][tree].
  struct ChildRef {
    StateId state;
    uint32_t split;
    uint32_t tree;
  };

  // Resolves the forest sample pool_f_[tau][j][s][idx] into its j child
  // subtree references, left to right, without materializing anything.
  void ResolveForest(uint32_t tau, size_t j, size_t s, uint32_t idx,
                     std::vector<ChildRef>* out) const {
    const Nfta::Transition& t = nfta_.transitions()[tau];
    out->resize(j);
    uint32_t cur_idx = idx;
    size_t cur_s = s;
    while (j > 0) {
      const ForestSample& ref = ForestPool(pool_f_[tau][j], cur_s)[cur_idx];
      (*out)[j - 1] = ChildRef{t.children[j - 1], ref.split, ref.tree};
      cur_s -= ref.split;
      cur_idx = ref.prefix;
      --j;
    }
  }

  // Arity-≥1 transitions carrying one symbol, CSR-grouped by first child
  // state (counting sort, so taus stay ascending within a child0 bucket).
  struct Child0Index {
    std::vector<uint32_t> offsets;  // NumStates() + 1 entries
    std::vector<uint32_t> taus;
  };

  const Child0Index& EnsureChild0Index(SymbolId symbol) {
    std::unique_ptr<Child0Index>& slot = child0_index_[symbol];
    if (slot != nullptr) return *slot;
    slot = std::make_unique<Child0Index>();
    const size_t S = nfta_.NumStates();
    const Nfta::Transition* trans = nfta_.transitions().data();
    slot->offsets.assign(S + 1, 0);
    size_t total = 0;
    for (uint32_t tau : nfta_.TransitionsWithSymbol(symbol)) {
      if (trans[tau].children.empty()) continue;
      ++slot->offsets[trans[tau].children[0] + 1];
      ++total;
    }
    for (size_t i = 0; i < S; ++i) slot->offsets[i + 1] += slot->offsets[i];
    slot->taus.resize(total);
    std::vector<uint32_t> cursor(slot->offsets.begin(),
                                 slot->offsets.end() - 1);
    for (uint32_t tau : nfta_.TransitionsWithSymbol(symbol)) {
      if (trans[tau].children.empty()) continue;
      slot->taus[cursor[trans[tau].children[0]]++] = tau;
    }
    return *slot;
  }

  // A memoized set is (offset, length) into memo_arena_; appends never move
  // earlier entries' offsets, so views taken after a recursive call stay
  // valid. kUnsetOff marks an uncomputed slot (a computed-but-empty set
  // stores a real offset with length 0).
  static constexpr uint32_t kUnsetOff = 0xffffffffu;
  using SetRef = std::pair<uint32_t, uint32_t>;

  // Memoized run-state oracle: the sorted set of states from which the
  // pooled tree pool_a_[q][s][idx] can be generated, computed recursively
  // from the derivation references, so shared subtrees are simulated once
  // and no tree is materialized. Pools referenced by a sample live in
  // strictly smaller, already finalized strata, so memo entries never
  // invalidate within a run. The sets live back to back in one contiguous
  // StateId arena (per-slot offset/length, not one heap vector per pooled
  // sample), and each node's candidate transitions come from an O(1)
  // per-symbol child0 CSR index built lazily on first use. The result is
  // the set Nfta::RunStates computes for the materialized tree. `depth`
  // indexes reusable scratch rows so the recursion allocates nothing in
  // steady state.
  SetRef RootStates(StateId q, size_t s, uint32_t idx, size_t depth) {
    auto& level = root_memo_[q][static_cast<uint32_t>(s)];
    const auto& pool = TreePool(pool_a_[q], s);
    if (level.off.size() < pool.size()) {
      level.off.resize(pool.size(), kUnsetOff);
      level.len.resize(pool.size(), 0);
    }
    if (level.off[idx] != kUnsetOff) {
      ++stats_.runstates_memo_hits;
      return {level.off[idx], level.len[idx]};
    }
    ++stats_.runstates_memo_misses;
    const Nfta::Transition* trans = nfta_.transitions().data();
    const TreeSample& ref = pool[idx];
    const Nfta::Transition& t = trans[ref.transition];
    const size_t m = t.children.size();
    std::vector<StateId>& out = out_scratch_[depth];
    out.clear();
    if (m == 0) {
      for (uint32_t tau2 : nfta_.LeafTransitions(t.symbol)) {
        out.push_back(trans[tau2].from);
      }
    } else {
      std::vector<ChildRef>& kids = kids_scratch_[depth];
      ResolveForest(ref.transition, m, s - 1, ref.forest, &kids);
      std::vector<SetRef>& sets = sets_scratch_[depth];
      sets.resize(m);
      for (size_t i = 0; i < m; ++i) {
        sets[i] = RootStates(kids[i].state, kids[i].split, kids[i].tree,
                             depth + 1);
      }
      const Child0Index& index = EnsureChild0Index(t.symbol);
      // Arena pointer taken after all recursion: appends are done.
      const StateId* arena = memo_arena_.data();
      const StateId* child0 = arena + sets[0].first;
      for (uint32_t k = 0; k < sets[0].second; ++k) {
        const StateId first_child_state = child0[k];
        const uint32_t begin = index.offsets[first_child_state];
        const uint32_t end = index.offsets[first_child_state + 1];
        for (uint32_t o = begin; o < end; ++o) {
          const Nfta::Transition& cand = trans[index.taus[o]];
          if (cand.children.size() != m) continue;
          bool ok = true;
          for (size_t i = 1; i < m && ok; ++i) {
            const StateId* b = arena + sets[i].first;
            ok = std::binary_search(b, b + sets[i].second, cand.children[i]);
          }
          if (ok) out.push_back(cand.from);
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    const uint32_t off = static_cast<uint32_t>(memo_arena_.size());
    memo_arena_.insert(memo_arena_.end(), out.begin(), out.end());
    // `level` references the unordered_map's mapped node: stable under the
    // insertions the recursion performed (and same-(q, s) re-entry cannot
    // have resized the slot vectors — child strata are strictly smaller).
    level.off[idx] = off;
    level.len[idx] = static_cast<uint32_t>(out.size());
    return {off, level.len[idx]};
  }

  // The canonical generating transition for the tree denoted by `candidate`
  // at stratum (q, s): the smallest-index τ' ∈ out(q) whose symbol and arity
  // match and whose child states accept the respective subtrees (decided
  // exactly by bottom-up simulation, memoized over the candidate's pooled
  // child subtrees).
  uint32_t CanonicalTransition(StateId q, size_t s,
                               const TreeSample& candidate) {
    ++stats_.membership_checks;
    const Nfta::Transition* trans = nfta_.transitions().data();
    const Nfta::Transition& t = trans[candidate.transition];
    const size_t m = t.children.size();
    ResolveForest(candidate.transition, m, s - 1, candidate.forest,
                  &child_scratch_);
    top_sets_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      top_sets_[i] = RootStates(child_scratch_[i].state,
                                child_scratch_[i].split,
                                child_scratch_[i].tree, 0);
    }
    const StateId* arena = memo_arena_.data();
    for (uint32_t tau_idx : nfta_.OutTransitions(q)) {
      const Nfta::Transition& cand = trans[tau_idx];
      if (cand.symbol != t.symbol || cand.children.size() != m) continue;
      bool ok = true;
      for (size_t i = 0; i < m && ok; ++i) {
        const StateId* b = arena + top_sets_[i].first;
        ok = std::binary_search(b, b + top_sets_[i].second, cand.children[i]);
      }
      if (ok) return tau_idx;
    }
    // The candidate itself always matches; unreachable.
    PQE_CHECK(false);
    return candidate.transition;
  }

  // F(τ, j, s) = ⊎_split F(τ, j−1, s−split) × A(child_j, split): exact
  // disjoint sum of products; samples compose without rejection.
  void ProcessForestStratum(uint32_t tau, size_t j, size_t s) {
    const Nfta::Transition& t = nfta_.transition(tau);
    const StateId child = t.children[j - 1];
    std::vector<uint32_t> splits;
    std::vector<ExtFloat> weights;
    ExtFloat total;
    for (size_t split = 1; split <= s; ++split) {
      const ExtFloat prev = EstF(tau, j - 1, s - split);
      const ExtFloat sub = EstA(child, split);
      if (prev.IsZero() || sub.IsZero()) continue;
      ExtFloat w = prev.Mul(sub);
      splits.push_back(static_cast<uint32_t>(split));
      weights.push_back(w);
      total = total.Add(w);
    }
    est_f_[tau][j].emplace(static_cast<uint32_t>(s), total);
    if (splits.empty()) return;

    if (splits.size() > 1) BuildPicker(weights);
    auto& pool = pool_f_[tau][j][static_cast<uint32_t>(s)];
    pool.reserve(pool_target_);
    // The pools a draw composes from are per-split invariants of the
    // stratum (they belong to strictly smaller strata, complete by now),
    // and only their sizes are read — hoist them out of the batch loop
    // instead of re-doing two hash lookups per trial.
    prev_sizes_.resize(splits.size());
    tree_sizes_.resize(splits.size());
    for (size_t k = 0; k < splits.size(); ++k) {
      prev_sizes_[k] =
          j - 1 > 0 ? ForestPool(pool_f_[tau][j - 1], s - splits[k]).size()
                    : 0;
      tree_sizes_[k] = TreePool(pool_a_[child], splits[k]).size();
    }
    // Batched composition: one word for the split pick, one for the
    // prefix-forest index, one for the child-tree index.
    for (size_t done = 0; done < pool_target_;) {
      const size_t batch = std::min(kDrawBatch, pool_target_ - done);
      words_.resize(3 * batch);
      rng_.FillBlock(words_.data(), 3 * batch);
      ++stats_.batch_draws;
      BatchSizeHist().Observe(batch);
      for (size_t i = 0; i < batch; ++i) {
        const size_t pick =
            splits.size() == 1
                ? 0
                : picker_.PickFromDouble(Rng::DoubleFromWord(words_[3 * i]));
        uint32_t prefix_idx = 0;
        if (j - 1 > 0) {
          if (prev_sizes_[pick] == 0) continue;
          prefix_idx = static_cast<uint32_t>(Rng::BoundedFromWord(
              words_[3 * i + 1], prev_sizes_[pick]));
        }
        if (tree_sizes_[pick] == 0) continue;
        const uint32_t tree_idx = static_cast<uint32_t>(
            Rng::BoundedFromWord(words_[3 * i + 2], tree_sizes_[pick]));
        pool.push_back(ForestSample{prefix_idx, tree_idx, splits[pick]});
      }
      done += batch;
    }
    stats_.pool_entries += pool.size();
  }

  // --- Cancellation -------------------------------------------------------

  bool Cancelled() const { return cancel_ != nullptr && cancel_->Expired(); }

  Status DeadlineError(size_t s) const {
    return Status::DeadlineExceeded(
        "count_nfta: cancelled at size stratum " + std::to_string(s) + "/" +
        std::to_string(n_));
  }

  const Nfta& nfta_;
  const size_t n_;
  const EstimatorConfig& config_;
  Rng rng_;
  const CancelToken* cancel_;
  size_t pool_target_ = 0;
  CountStats stats_;

  // Hot-path scratch, reused across draws and strata.
  AliasPicker picker_;
  std::vector<ChildRef> child_scratch_;
  // SoA arenas, sized to one batch and reused across batches.
  std::vector<uint64_t> words_;        // raw block-RNG output
  std::vector<uint32_t> cand_tau_;     // candidate transition per attempt
  std::vector<uint32_t> cand_forest_;  // candidate forest index per attempt
  std::vector<uint8_t> cand_valid_;    // 0 = the forest pool was empty
  obs::Histogram* batch_hist_ = nullptr;  // lazy counting.batch_size_hist
  // Membership oracle state (see RootStates): root_memo_[q]{s} holds per
  // pool slot (offset, length) views into one shared arena; plus the lazy
  // per-symbol candidate indexes and the per-depth recursion scratch rows.
  struct MemoLevel {
    std::vector<uint32_t> off;  // kUnsetOff = uncomputed
    std::vector<uint32_t> len;
  };
  std::vector<std::unordered_map<uint32_t, MemoLevel>> root_memo_;
  std::vector<StateId> memo_arena_;
  std::vector<std::unique_ptr<Child0Index>> child0_index_;  // [symbol]
  std::vector<std::vector<StateId>> out_scratch_;           // [depth]
  std::vector<std::vector<ChildRef>> kids_scratch_;         // [depth]
  std::vector<std::vector<SetRef>> sets_scratch_;           // [depth]
  std::vector<SetRef> top_sets_;
  // Hoisted per-stratum pool sizes for the batched trial loops (see
  // kLeafPool); scratch reused across strata.
  std::vector<size_t> fpool_sizes_;
  std::vector<size_t> prev_sizes_;
  std::vector<size_t> tree_sizes_;

  std::vector<std::vector<bool>> fwd_a_;                // [q][s]
  std::vector<std::vector<uint32_t>> fwd_a_sizes_;      // sparse live sizes
  std::vector<std::vector<std::vector<bool>>> fwd_f_;   // [τ][j][s]
  std::vector<std::vector<std::vector<uint32_t>>> fwd_f_sizes_;
  std::vector<std::vector<bool>> bwd_a_;
  std::vector<std::vector<std::vector<bool>>> bwd_f_;
  // Live strata per size, in the dense scan's visit order (BuildLiveLists).
  std::vector<std::vector<StateId>> live_a_by_s_;
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> live_f_by_s_;
  // Sparse per-stratum tables, keyed by size.
  std::vector<std::unordered_map<uint32_t, ExtFloat>> est_a_;  // [q]{s}
  std::vector<std::unordered_map<uint32_t, std::vector<TreeSample>>> pool_a_;
  std::vector<std::vector<std::unordered_map<uint32_t, ExtFloat>>>
      est_f_;  // [τ][j]{s}
  std::vector<std::vector<
      std::unordered_map<uint32_t, std::vector<ForestSample>>>>
      pool_f_;
};

}  // namespace

Result<NftaSampleResult> CountAndSampleNftaTrees(
    const Nfta& nfta, size_t n, const EstimatorConfig& config,
    size_t num_samples) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  PQE_TRACE_SPAN_VAR(span, "count.nfta");
  span.AttrUint("states", nfta.NumStates());
  span.AttrUint("transitions", nfta.NumTransitions());
  span.AttrUint("tree_size", n);
  span.AttrUint("samples_requested", num_samples);
  NftaCounter counter(nfta, n, config);
  NftaSampleResult out;
  PQE_ASSIGN_OR_RETURN(out.estimate, counter.Run());
  out.samples = counter.SampleAccepted(num_samples);
  RecordCountRun("pqe.count_nfta", out.estimate.stats, &span);
  return out;
}

Result<CountEstimate> CountNftaTrees(const Nfta& nfta, size_t n,
                                     const EstimatorConfig& config) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  PQE_TRACE_SPAN_VAR(span, "count.nfta");
  span.AttrUint("states", nfta.NumStates());
  span.AttrUint("transitions", nfta.NumTransitions());
  span.AttrUint("tree_size", n);
  return CountMedianOfR(
      config, CounterNames{"count.nfta.rep", "pqe.count_nfta"}, &span,
      // The membership oracle's lazy index must exist before the const
      // automaton is shared across workers (building it mutates `mutable`
      // members).
      [&nfta] { nfta.WarmRunIndex(); },
      [&](const EstimatorConfig& rep_config) {
        return NftaCounter(nfta, n, rep_config).Run();
      });
}

}  // namespace pqe
