#include "counting/count_nfta.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "automata/tree.h"
#include "counting/median_of_r.h"
#include "counting/union_estimator.h"
#include "obs/trace.h"

namespace pqe {

namespace {

constexpr uint32_t kNone = UINT32_MAX;

// A tree stratum A(q, s): trees of size s generable from state q.
struct TreeKey {
  StateId state;
  uint32_t size;
};

// A forest stratum F(τ, j, s): ordered forests for the first j children of
// transition τ, of total size s. F(τ, 1, s) has at most one split, the
// child stratum A(child₁(τ), s) itself, and no pool of its own: `split`
// names that split once the stratum is processed (kNone if it has none),
// and its sample i is the child's tree sample i (ForestAt).
struct ForestKey {
  uint32_t tau;
  uint32_t j;
  uint32_t size;
  uint32_t split = kNone;
};

// A split of F(τ, j, s) at `size`: the prefix forest stratum
// F(τ, j−1, s − size) (kNone for the empty forest, when j = 1) and the tree
// stratum A(child_j(τ), size) of the j-th child.
struct Split {
  uint32_t prefix;
  uint32_t child;
};

// A pooled forest sample of F(τ, j, s): entry `split` of the run's split
// table, sample `prefix` of that split's prefix forest stratum and, as the
// j-th child, sample `tree` of its child tree stratum. Naming the split
// instead of its two strata keeps the sample at 12 bytes, the size of a
// tree sample, so both pack 7 pools to a 64 KB block.
struct ForestSample {
  uint32_t split;
  uint32_t prefix;
  uint32_t tree;
};

// Tree samples are PooledSamples. A tree of size 1 is a leaf, so in A(q, 1)
// `ref` is the leaf's transition; in A(q, s ≥ 2) `ref` is the stratum id of
// the root's child forest F(τ, m, s−1) (τ is that stratum's transition)
// and `index` the forest sample. `memo` is the tree's root-state set.
using TreeStratum = Stratum<TreeKey>;
using ForestStratum = Stratum<ForestKey, ForestSample>;

class NftaCounter {
 public:
  NftaCounter(const Nfta& nfta, size_t n, const EstimatorConfig& config,
              const CounterNames& names)
      : nfta_(nfta),
        n_(n),
        config_(config),
        est_(config, n, names.counter, names.unit),
        arena_(nfta.NumStates(), est_.blocks()) {}

  Result<CountEstimate> Run() {
    if (nfta_.HasLambdaTransitions()) {
      return Status::InvalidArgument(
          "CountNftaTrees requires a λ-free NFTA (run EliminateLambda)");
    }
    if (n_ == 0) return CountEstimate{ExtFloat(), est_.stats()};
    if (est_.Cancelled()) return est_.DeadlineError(0);

    ComputeForwardFeasibility();
    ComputeBackwardUsefulness();
    BuildStrata();
    child0_index_.resize(nfta_.AlphabetSize());

    for (size_t s = 1; s <= n_; ++s) {
      if (est_.Cancelled()) return est_.DeadlineError(s);
      for (uint32_t id = tree_begin_[s]; id < tree_begin_[s + 1]; ++id) {
        ProcessTreeStratum(id);
      }
      for (uint32_t id = forest_begin_[s]; id < forest_begin_[s + 1]; ++id) {
        ProcessForestStratum(id);
      }
      est_.FinishLevel();
    }
    // A rejection loop may have bailed out mid-stratum on an expired token;
    // the partial tables must not be read as an estimate.
    if (est_.Cancelled()) return est_.DeadlineError(n_);
    root_ = FindTree(nfta_.initial_state(), n_);
    const ExtFloat value =
        root_ == kNone ? ExtFloat() : trees_[root_].estimate;
    return CountEstimate{value, est_.stats()};
  }

  // Materializes `count` (near-uniform) accepted trees of size n_ from the
  // root stratum's sample pool. Must be called after Run(); returns fewer
  // trees (possibly none) when the language is empty.
  std::vector<LabeledTree> SampleAccepted(size_t count) {
    std::vector<LabeledTree> out;
    if (root_ == kNone || trees_[root_].pool.empty()) return out;
    const size_t pool_size = trees_[root_].pool.size();
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t idx =
          static_cast<uint32_t>(est_.rng().NextBounded(pool_size));
      LabeledTree tree(RootSymbol(root_, idx));
      MaterializeChildren(root_, idx, tree.root(), &tree);
      out.push_back(std::move(tree));
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

  // The feasible sizes of every stratum family — A(q, ·) under list key q,
  // F(τ, j, ·) under list key |Q| + forest_base_[τ] + j — as ascending
  // singly linked lists in one node array. Gadget-expanded automata are
  // size-determined (one or two feasible sizes per family), so a lookup is
  // a short walk.
  struct Feasible {
    uint32_t size;
    uint32_t next;         // next node of the same family, or kNone
    uint32_t id = kNone;   // live stratum id (BuildStrata), or kNone
    bool useful = false;   // backward-useful (ComputeBackwardUsefulness)
  };

  uint32_t ForestList(uint32_t tau, size_t j) const {
    return static_cast<uint32_t>(nfta_.NumStates() + forest_base_[tau] + j);
  }

  // Appends `size` to `list`; sizes arrive in ascending order.
  void AddFeasible(uint32_t list, uint32_t size) {
    const uint32_t node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(Feasible{size, kNone});
    if (last_[list] == kNone) {
      first_[list] = node;
    } else {
      nodes_[last_[list]].next = node;
    }
    last_[list] = node;
  }

  // Whether `size` is the largest size recorded in `list` so far.
  bool EndsAt(uint32_t list, size_t size) const {
    return last_[list] != kNone && nodes_[last_[list]].size == size;
  }

  // The node of `size` in `list`, or kNone if that stratum is infeasible.
  uint32_t FindNode(uint32_t list, size_t size) const {
    for (uint32_t node = first_[list];
         node != kNone && nodes_[node].size <= size;
         node = nodes_[node].next) {
      if (nodes_[node].size == size) return node;
    }
    return kNone;
  }

  // Live stratum ids by key (kNone if not live); used only while expanding
  // a stratum — samples name their strata by id.
  uint32_t FindTree(StateId q, size_t s) const {
    const uint32_t node = FindNode(q, s);
    return node == kNone ? kNone : nodes_[node].id;
  }
  uint32_t FindForest(uint32_t tau, size_t j, size_t s) const {
    const uint32_t node = FindNode(ForestList(tau, j), s);
    return node == kNone ? kNone : nodes_[node].id;
  }

  // Forward feasibility: A(q, s) / F(τ, j, s) is non-empty. The closure is
  // computed semi-naively: instead of re-scanning every transition at every
  // size (O(n·|Δ|·a) probes, which dwarfs the handful of live strata on
  // gadget-expanded automata), newly feasible strata are queued into
  // per-size buckets and each one cascades once — a new tree size pairs
  // against the recorded prefix-forest sizes, a new forest size pairs
  // against the recorded child-tree sizes. Every (prefix, child) pair is
  // seen by whichever side is processed later, so the fixed point is the
  // dense scan's; buckets drain in ascending size order, which keeps every
  // size list sorted.
  void ComputeForwardFeasibility() {
    const size_t S = nfta_.NumStates();
    const size_t T = nfta_.NumTransitions();
    forest_base_.assign(T + 1, 0);
    for (uint32_t tau = 0; tau < T; ++tau) {
      forest_base_[tau + 1] = forest_base_[tau] +
                              static_cast<uint32_t>(
                                  nfta_.transition(tau).children.size() + 1);
    }
    first_.assign(S + forest_base_[T], kNone);
    last_.assign(S + forest_base_[T], kNone);
    for (uint32_t tau = 0; tau < T; ++tau) {
      AddFeasible(ForestList(tau, 0), 0);  // the empty forest
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
      for (uint32_t tau = 0; tau < T; ++tau) {
        const Nfta::Transition& t = nfta_.transition(tau);
        for (size_t j = 1; j <= t.children.size(); ++j) {
          rev_pairs[cursor[t.children[j - 1]]++] = EncodeForest(tau, j);
        }
      }
    }

    std::vector<std::vector<uint64_t>> buckets(n_ + 1);
    // Seeds: an arity-0 transition's (empty) full forest makes a size-1
    // tree; arity-≥1 transitions wait for their first child sizes.
    for (uint32_t tau = 0; tau < T; ++tau) {
      if (nfta_.transition(tau).children.empty()) {
        buckets[1].push_back(kTreeEvent | nfta_.transition(tau).from);
      }
    }
    for (size_t s = 1; s <= n_; ++s) {
      // Index drain: processing can append same-size events (a tree of
      // size s extends an empty prefix forest to a forest of size s). An
      // event repeats a recorded stratum iff its list already ends at s.
      for (size_t i = 0; i < buckets[s].size(); ++i) {
        const uint64_t e = buckets[s][i];
        if (e & kTreeEvent) {
          const StateId q = static_cast<StateId>(e & ~kTreeEvent);
          if (EndsAt(q, s)) continue;
          AddFeasible(q, static_cast<uint32_t>(s));
          for (uint32_t r = rev_offsets[q]; r < rev_offsets[q + 1]; ++r) {
            const uint32_t tau = ForestEventTau(rev_pairs[r]);
            const uint32_t j = ForestEventJ(rev_pairs[r]);
            for (uint32_t node = first_[ForestList(tau, j - 1)];
                 node != kNone; node = nodes_[node].next) {
              const size_t prev = nodes_[node].size;
              if (prev + s > n_) break;
              buckets[prev + s].push_back(EncodeForest(tau, j));
            }
          }
        } else {
          const uint32_t tau = ForestEventTau(e);
          const uint32_t j = ForestEventJ(e);
          const uint32_t list = ForestList(tau, j);
          if (EndsAt(list, s)) continue;
          AddFeasible(list, static_cast<uint32_t>(s));
          const Nfta::Transition& t = nfta_.transition(tau);
          if (j == t.children.size()) {
            if (s + 1 <= n_) buckets[s + 1].push_back(kTreeEvent | t.from);
          } else {
            for (uint32_t node = first_[t.children[j]]; node != kNone;
                 node = nodes_[node].next) {
              const size_t split = nodes_[node].size;
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

  // Backward usefulness: the stratum can occur inside some accepted tree of
  // total size n. Semi-naive marking, mirroring the forward pass: a seed at
  // (initial, n) cascades down, each marked stratum processed once. A(q, s)
  // marks the full forests F(τ, m, s−1); F(τ, j, s) marks its feasible
  // splits F(τ, j−1, prev) and A(child_j, s−prev). Marks only ever target
  // strictly smaller (size, position), so draining buckets from large sizes
  // down — re-scanning a bucket for the same-size marks a forest stratum
  // makes on its shorter prefixes — reaches the dense descending scan's
  // fixed point. Empty forests (j = 0) are never strata, so they are not
  // marked.
  void ComputeBackwardUsefulness() {
    if (config_.disable_backward_pruning) {
      // Ablation mode: everything forward-feasible counts as useful.
      for (Feasible& node : nodes_) node.useful = true;
      return;
    }
    std::vector<std::vector<uint64_t>> buckets(n_ + 1);
    buckets[n_].push_back(kTreeEvent | nfta_.initial_state());
    for (size_t s = n_; s >= 1; --s) {
      for (size_t i = 0; i < buckets[s].size(); ++i) {
        const uint64_t e = buckets[s][i];
        if (e & kTreeEvent) {
          const StateId q = static_cast<StateId>(e & ~kTreeEvent);
          const uint32_t node = FindNode(q, s);
          // The seed may be infeasible.
          if (node == kNone || nodes_[node].useful) continue;
          nodes_[node].useful = true;
          for (uint32_t tau : nfta_.OutTransitions(q)) {
            const size_t m = nfta_.transition(tau).children.size();
            if (m > 0 && FindNode(ForestList(tau, m), s - 1) != kNone) {
              buckets[s - 1].push_back(EncodeForest(tau, m));
            }
          }
        } else {
          const uint32_t tau = ForestEventTau(e);
          const uint32_t j = ForestEventJ(e);
          const uint32_t node = FindNode(ForestList(tau, j), s);
          if (nodes_[node].useful) continue;
          nodes_[node].useful = true;
          const StateId child = nfta_.transition(tau).children[j - 1];
          for (uint32_t p = first_[ForestList(tau, j - 1)]; p != kNone;
               p = nodes_[p].next) {
            const size_t prev = nodes_[p].size;
            if (prev >= s) break;
            if (FindNode(child, s - prev) == kNone) continue;
            if (prev > 0) buckets[prev].push_back(EncodeForest(tau, j - 1));
            buckets[s - prev].push_back(kTreeEvent | child);
          }
        }
      }
      buckets[s].clear();
      buckets[s].shrink_to_fit();
    }
  }

  // Numbers the live (feasible and useful) strata: per size, tree strata in
  // ascending state order, then forest strata in ascending (τ, j) order —
  // the order the sweep processes them in — so each size is one id range
  // of trees_ and one of forests_.
  void BuildStrata() {
    tree_begin_.assign(n_ + 2, 0);
    forest_begin_.assign(n_ + 2, 0);
    const uint32_t S = static_cast<uint32_t>(nfta_.NumStates());
    const uint32_t lists = static_cast<uint32_t>(first_.size());
    for (uint32_t list = 0; list < lists; ++list) {
      std::vector<uint32_t>& begin = list < S ? tree_begin_ : forest_begin_;
      for (uint32_t node = first_[list]; node != kNone;
           node = nodes_[node].next) {
        // Empty forests (size 0) are not strata.
        if (nodes_[node].useful && nodes_[node].size > 0) {
          ++begin[nodes_[node].size + 1];
        }
      }
    }
    for (size_t s = 0; s <= n_; ++s) {
      tree_begin_[s + 1] += tree_begin_[s];
      forest_begin_[s + 1] += forest_begin_[s];
    }
    trees_.resize(tree_begin_[n_ + 1]);
    forests_.resize(forest_begin_[n_ + 1]);
    std::vector<uint32_t> next_tree(tree_begin_.begin(), tree_begin_.end());
    std::vector<uint32_t> next_forest(forest_begin_.begin(),
                                      forest_begin_.end());
    for (StateId q = 0; q < S; ++q) {
      for (uint32_t node = first_[q]; node != kNone;
           node = nodes_[node].next) {
        if (!nodes_[node].useful) continue;
        const uint32_t size = nodes_[node].size;
        nodes_[node].id = next_tree[size]++;
        trees_[nodes_[node].id].key = TreeKey{q, size};
      }
    }
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      const size_t arity = nfta_.transition(tau).children.size();
      for (size_t j = 1; j <= arity; ++j) {
        for (uint32_t node = first_[ForestList(tau, j)]; node != kNone;
             node = nodes_[node].next) {
          if (!nodes_[node].useful) continue;
          const uint32_t size = nodes_[node].size;
          nodes_[node].id = next_forest[size]++;
          forests_[nodes_[node].id].key =
              ForestKey{tau, static_cast<uint32_t>(j), size};
        }
      }
    }
    // strata_total is a closed form: A-strata are |Q|·n (sizes 1..n),
    // F-strata arity·(n+1) per transition (sizes 0..n).
    CountStats& stats = est_.stats();
    stats.strata_total = nfta_.NumStates() * n_;
    for (uint32_t tau = 0; tau < nfta_.NumTransitions(); ++tau) {
      stats.strata_total += nfta_.transition(tau).children.size() * (n_ + 1);
    }
    stats.strata_live = trees_.size() + forests_.size();
  }

  // --- Forest pools --------------------------------------------------------

  // The number of samples of forest stratum `id`, and its sample `idx`. An
  // arity-1 prefix F(τ, 1, s) reads the pool of its one child stratum.
  size_t ForestPoolSize(uint32_t id) const {
    const ForestStratum& f = forests_[id];
    if (f.key.j != 1) return f.pool.size();
    if (f.key.split == kNone) return 0;
    return trees_[splits_[f.key.split].child].pool.size();
  }
  ForestSample ForestAt(uint32_t id, uint32_t idx) const {
    const ForestStratum& f = forests_[id];
    if (f.key.j != 1) return f.pool[idx];
    return ForestSample{f.key.split, 0, idx};
  }

  // --- Materialization ---------------------------------------------------

  // The symbol at the root of tree sample `idx` of tree stratum `id`.
  SymbolId RootSymbol(uint32_t id, uint32_t idx) const {
    const PooledSample& sample = trees_[id].pool[idx];
    const uint32_t tau = trees_[id].key.size == 1
                             ? sample.ref
                             : forests_[sample.ref].key.tau;
    return nfta_.transition(tau).symbol;
  }

  // Appends the children of tree sample `idx` of tree stratum `id` under
  // `node` of `out`, left to right.
  void MaterializeChildren(uint32_t id, uint32_t idx, uint32_t node,
                           LabeledTree* out) const {
    if (trees_[id].key.size == 1) return;  // a leaf
    const PooledSample& sample = trees_[id].pool[idx];
    MaterializeForest(sample.ref, sample.index, node, out);
  }

  void MaterializeForest(uint32_t id, uint32_t idx, uint32_t parent,
                         LabeledTree* out) const {
    const ForestSample f = ForestAt(id, idx);
    const Split& split = splits_[f.split];
    if (split.prefix != kNone) {
      MaterializeForest(split.prefix, f.prefix, parent, out);
    }
    const uint32_t node =
        out->AddChild(parent, RootSymbol(split.child, f.tree));
    MaterializeChildren(split.child, f.tree, node, out);
  }

  // --- Strata processing --------------------------------------------------

  // A(q, s) = ∪_{τ ∈ out(q)} { α_τ-rooted trees with child forest in
  // F(τ, m_τ, s−1) }. Transitions with distinct symbols generate disjoint
  // tree sets, so only a group of same-symbol transitions (rare outside
  // witness-choice states) needs the Karp–Luby estimator; its canonical
  // member is the first group member, in the estimator's (symbol,
  // transition) order, whose child states accept the sample's subtrees. A
  // leaf transition is a member of A(q, 1) only, with weight 1, and draws no
  // forest; at size 1 a group is all leaves, so its first member is
  // canonical.
  void ProcessTreeStratum(uint32_t id) {
    const TreeKey key = trees_[id].key;
    members_.clear();
    for (uint32_t tau : nfta_.OutTransitions(key.state)) {
      const Nfta::Transition& t = nfta_.transition(tau);
      const size_t m = t.children.size();
      if (m == 0) {
        if (key.size == 1) {
          members_.push_back(UnionMember{t.symbol, tau, tau, kNoDraw,
                                         ExtFloat::FromUint64(1)});
        }
        continue;
      }
      const uint32_t forest = FindForest(tau, m, key.size - 1);
      if (forest == kNone || forests_[forest].estimate.IsZero()) continue;
      members_.push_back(UnionMember{t.symbol, tau, forest,
                                     ForestPoolSize(forest),
                                     forests_[forest].estimate});
    }
    const Nfta::Transition* trans = nfta_.transitions().data();
    auto canonical = [&](const UnionMember* begin, const UnionMember*,
                         const UnionMember& chosen,
                         const PooledSample& sample) {
      const size_t m = trans[chosen.transition].children.size();
      const size_t base = m == 0 ? sets_.size()
                                 : PushChildSets(sample.ref, sample.index);
      const UnionMember* first = begin;
      while (first != &chosen) {
        const Nfta::Transition& c = trans[first->transition];
        if (c.children.size() == m && ChildrenAccept(c, base, 0)) break;
        ++first;
      }
      sets_.resize(base);
      return first == &chosen;
    };
    TreeStratum& stratum = trees_[id];
    stratum.estimate =
        est_.EstimateUnion(&members_, canonical, &stratum.pool);
  }

  // F(τ, j, s) = ⊎_split F(τ, j−1, s−split) × A(child_j, split): exact
  // disjoint sum of products; samples compose without rejection. F(τ, 1, s)
  // is its one split's child stratum, so it records the split and no pool.
  void ProcessForestStratum(uint32_t id) {
    const ForestKey key = forests_[id].key;
    const StateId child = nfta_.transition(key.tau).children[key.j - 1];
    // This stratum's splits are appended to the run's split table as
    // [first, splits_.size()).
    const uint32_t first = static_cast<uint32_t>(splits_.size());
    weights_.clear();
    ExtFloat total;
    for (uint32_t node = first_[child];
         node != kNone && nodes_[node].size <= key.size;
         node = nodes_[node].next) {
      const uint32_t split = nodes_[node].size;
      const uint32_t sub = nodes_[node].id;
      if (sub == kNone) continue;
      // The empty forest F(τ, 0, 0) is the only prefix of the first child.
      ExtFloat prev = ExtFloat::FromUint64(1);
      uint32_t prefix = kNone;
      if (key.j == 1) {
        if (split != key.size) continue;
      } else {
        prefix = FindForest(key.tau, key.j - 1, key.size - split);
        if (prefix == kNone) continue;
        prev = forests_[prefix].estimate;
      }
      if (prev.IsZero() || trees_[sub].estimate.IsZero()) continue;
      const ExtFloat w = prev.Mul(trees_[sub].estimate);
      splits_.push_back(Split{prefix, sub});
      weights_.push_back(w);
      total = total.Add(w);
    }
    ForestStratum& stratum = forests_[id];
    stratum.estimate = total;
    const size_t num_splits = splits_.size() - first;
    if (num_splits == 0) return;
    if (key.j == 1) {
      stratum.key.split = first;
      return;
    }

    if (num_splits > 1) est_.BuildPicker(weights_);
    const size_t target = est_.pool_target();
    stratum.pool = est_.CarvePool<ForestSample>(target);
    PoolSlice<ForestSample>& pool = stratum.pool;
    // Batched composition: one word for the split pick, one for the
    // prefix-forest index, one for the child-tree index.
    for (size_t done = 0; done < target;) {
      const size_t batch = std::min(kDrawBatch, target - done);
      const uint64_t* words = est_.DrawBatch(batch, 3);
      for (size_t i = 0; i < batch; ++i) {
        const uint32_t pick =
            first + (num_splits == 1
                         ? 0
                         : static_cast<uint32_t>(est_.picker().PickFromDouble(
                               Rng::DoubleFromWord(words[3 * i]))));
        const Split& split = splits_[pick];
        uint32_t prefix_idx = 0;
        if (split.prefix != kNone) {
          const size_t bound = ForestPoolSize(split.prefix);
          if (bound == 0) continue;
          prefix_idx = static_cast<uint32_t>(
              Rng::BoundedFromWord(words[3 * i + 1], bound));
        }
        const size_t bound = trees_[split.child].pool.size();
        if (bound == 0) continue;
        const uint32_t tree_idx = static_cast<uint32_t>(
            Rng::BoundedFromWord(words[3 * i + 2], bound));
        pool.push_back(ForestSample{pick, prefix_idx, tree_idx});
      }
      done += batch;
    }
    est_.stats().pool_entries += pool.size();
  }

  // --- Membership oracle --------------------------------------------------

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

  // Pushes the root-state sets of the child trees of forest sample `idx` of
  // forest stratum `id` onto sets_ (left to right) and returns the position
  // of the first; the caller pops them.
  size_t PushChildSets(uint32_t id, uint32_t idx) {
    const size_t base = sets_.size();
    sets_.resize(base + forests_[id].key.j);
    for (size_t j = forests_[id].key.j; j > 0; --j) {
      const ForestSample f = ForestAt(id, idx);
      const Split split = splits_[f.split];
      const uint32_t set = RootStates(split.child, f.tree);
      sets_[base + j - 1] = set;
      id = split.prefix;
      idx = f.prefix;
    }
    return base;
  }

  // Whether `cand`'s children from position `first` on accept the subtrees
  // whose root-state sets are sets_[base + first ..].
  bool ChildrenAccept(const Nfta::Transition& cand, size_t base,
                      size_t first) const {
    for (size_t i = first; i < cand.children.size(); ++i) {
      const Span<StateId> set = arena_.Get(sets_[base + i]);
      if (!std::binary_search(set.begin(), set.end(), cand.children[i])) {
        return false;
      }
    }
    return true;
  }

  // Memoized run-state oracle: the sorted set of states from which tree
  // sample `idx` of tree stratum `id` can be generated — the set
  // Nfta::RunStates computes for the materialized tree — computed
  // recursively from the derivation references, so shared subtrees are
  // simulated once and no tree is materialized. The set is kept in the
  // sample itself; it always contains the stratum's state, so it is never
  // empty. Each node's candidate transitions come from an O(1) per-symbol
  // child0 CSR index built lazily on first use.
  uint32_t RootStates(uint32_t id, uint32_t idx) {
    CountStats& stats = est_.stats();
    PooledSample& sample = trees_[id].pool[idx];
    if (sample.memo != SetArena::kNoSet) {
      ++stats.runstates_memo_hits;
      return sample.memo;
    }
    ++stats.runstates_memo_misses;
    const Nfta::Transition* trans = nfta_.transitions().data();
    if (trees_[id].key.size == 1) {
      step_.clear();
      for (uint32_t leaf : nfta_.LeafTransitions(trans[sample.ref].symbol)) {
        step_.push_back(trans[leaf].from);
      }
    } else {
      const Nfta::Transition& t = trans[forests_[sample.ref].key.tau];
      const size_t m = t.children.size();
      const size_t base = PushChildSets(sample.ref, sample.index);
      const Child0Index& index = EnsureChild0Index(t.symbol);
      step_.clear();
      for (const StateId first_child : arena_.Get(sets_[base])) {
        for (uint32_t o = index.offsets[first_child];
             o < index.offsets[first_child + 1]; ++o) {
          const Nfta::Transition& cand = trans[index.taus[o]];
          if (cand.children.size() == m && ChildrenAccept(cand, base, 1)) {
            step_.push_back(cand.from);
          }
        }
      }
      sets_.resize(base);
    }
    std::sort(step_.begin(), step_.end());
    step_.erase(std::unique(step_.begin(), step_.end()), step_.end());
    sample.memo = arena_.Store(step_);
    return sample.memo;
  }

  const Nfta& nfta_;
  const size_t n_;
  const EstimatorConfig& config_;
  UnionEstimator est_;

  // Feasibility lists (see Feasible).
  std::vector<uint32_t> forest_base_;  // [τ] -> first forest list of τ − |Q|
  std::vector<uint32_t> first_;        // [list] -> first node, or kNone
  std::vector<uint32_t> last_;         // [list] -> last node, or kNone
  std::vector<Feasible> nodes_;

  // Live strata by id (BuildStrata); size s is the id range
  // [tree_begin_[s], tree_begin_[s + 1]) of trees_, and likewise of
  // forests_.
  std::vector<TreeStratum> trees_;
  std::vector<ForestStratum> forests_;
  std::vector<Split> splits_;  // every forest stratum's splits, by stratum
  std::vector<uint32_t> tree_begin_;
  std::vector<uint32_t> forest_begin_;
  uint32_t root_ = kNone;  // A(initial, n), once Run() has finished

  // Membership oracle: root-state sets, the lazy per-symbol candidate
  // indexes, the stack of child sets the recursion works on, and the set
  // being built.
  SetArena arena_;
  std::vector<std::unique_ptr<Child0Index>> child0_index_;  // [symbol]
  std::vector<uint32_t> sets_;
  std::vector<StateId> step_;

  // Per-stratum scratch.
  std::vector<UnionMember> members_;
  std::vector<ExtFloat> weights_;
};

constexpr CounterNames kTreeNames{"count.nfta", "count.nfta.rep",
                                  "pqe.count_nfta", "count_nfta",
                                  "size", "tree_size"};

}  // namespace

Result<NftaSampleResult> CountAndSampleNftaTrees(
    const Nfta& nfta, size_t n, const EstimatorConfig& config,
    size_t num_samples) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  PQE_TRACE_SPAN_VAR(span, kTreeNames.span);
  span.AttrUint("states", nfta.NumStates());
  span.AttrUint("transitions", nfta.NumTransitions());
  span.AttrUint(kTreeNames.size_attr, n);
  span.AttrUint("samples_requested", num_samples);
  NftaCounter counter(nfta, n, config, kTreeNames);
  NftaSampleResult out;
  PQE_ASSIGN_OR_RETURN(out.estimate, counter.Run());
  out.samples = counter.SampleAccepted(num_samples);
  RecordCountRun(kTreeNames.metrics, out.estimate.stats, &span);
  return out;
}

Result<CountEstimate> CountNftaTrees(const Nfta& nfta, size_t n,
                                     const EstimatorConfig& config) {
  return CountNftaTrees(nfta, n, config, kTreeNames);
}

Result<CountEstimate> CountNftaTrees(const Nfta& nfta, size_t n,
                                     const EstimatorConfig& config,
                                     const CounterNames& names) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  PQE_TRACE_SPAN_VAR(span, names.span);
  span.AttrUint("states", nfta.NumStates());
  span.AttrUint("transitions", nfta.NumTransitions());
  span.AttrUint(names.size_attr, n);
  // The membership oracle's lazy index must exist before the const
  // automaton is shared across repetition workers (building it mutates
  // `mutable` members).
  nfta.WarmRunIndex();
  return CountMedianOfR(config, names, &span,
                        [&](const EstimatorConfig& rep_config) {
                          return NftaCounter(nfta, n, rep_config, names).Run();
                        });
}

}  // namespace pqe
