// Group software-pipelined B+-Tree descent — the batched-lookup engine
// shared by the plain (binary-search) and Seg (SIMD k-ary) key stores.
//
// A single root-to-leaf descent serializes one node miss per level: the
// child pointer is not known until the current node's separators have
// been searched, so an out-of-cache tree spends almost its whole lookup
// stalled (paper Section 5.4: "the processor is mainly waiting for data
// from main memory"). Level-wise batch traversal (after Tzschoppe et al.
// and the BS-tree's data-parallel multi-query processing) converts that
// latency into throughput: G independent queries descend in lockstep,
// one level at a time, and every query's next node is prefetched before
// any of them is searched. The G misses of a level then overlap in the
// line fill buffers instead of arriving one at a time.
//
// Every level runs two passes over the group:
//
//   1. prefetch pass — each query's current node block arrived via the
//      previous level's prefetch; touch it to prefetch the key-slot and
//      child-ref lines of the block (keys and children live inline in
//      the node's arena block, see generic_btree.h, but a wide node
//      spans several cache lines);
//   2. search pass — run the key store's UpperBound (scalar or SIMD; the
//      store decides), decode the 32-bit child reference through the
//      tree's node pool (a load from the small, hot slab table — the
//      address is computable before the child is touched), and
//      immediately prefetch the child's block for the next level.
//
// All leaves of a B+-Tree sit at the same depth, so the lockstep never
// diverges. Results are exactly those of per-key Find / LowerBoundIter.
//
// BatchDescent is a friend of GenericBPlusTree: the pipeline needs the
// node types, which stay private to the tree.

#ifndef SIMDTREE_BTREE_BATCH_DESCENT_H_
#define SIMDTREE_BTREE_BATCH_DESCENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/batch.h"
#include "core/batch_sort.h"
#include "core/olc.h"
#include "obs/trace.h"
#include "util/counters.h"
#include "util/cycle_timer.h"

namespace simdtree::btree {

// Per-level observations of one grouped descent, feeding the trace hook:
// how many distinct nodes the frontier visited at each level and how long
// the level took. nodes[l] == batch size means no sharing; nodes[l] == 1
// means the whole batch shared one node.
struct GroupedLevelStats {
  int levels = 0;
  uint32_t nodes[obs::kMaxTraceLevels] = {};
  uint64_t cycles[obs::kMaxTraceLevels] = {};
};

template <typename Tree>
class BatchDescent {
 public:
  using Key = typename Tree::KeyType;
  using Value = typename Tree::ValueType;
  using Iterator = typename Tree::ConstIterator;

  // out[i] = pointer to the stored value of some occurrence of keys[i],
  // or nullptr when absent — the batched form of Tree::Find. Pointers are
  // valid until the next mutation of the tree. A non-null `counters`
  // accumulates nodes_visited exactly as the per-key FindCounted would:
  // one per level of each descent, plus one when a query steps into the
  // previous leaf.
  static void FindBatch(const Tree& tree, const Key* keys, size_t n,
                        const Value** out, int group,
                        SearchCounters* counters = nullptr) {
    group = ClampBatchGroup(group);
    if (tree.root_ == nullptr) {
      for (size_t i = 0; i < n; ++i) out[i] = nullptr;
      return;
    }
    for (size_t off = 0; off < n; off += static_cast<size_t>(group)) {
      const int g = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(group), n - off));
      FindGroup(tree, keys + off, g, out + off, counters);
    }
  }

  // out[i] = iterator at the first pair with key >= keys[i] (invalid when
  // none) — the batched form of Tree::LowerBoundIter. Counter semantics
  // mirror FindBatch: one node per level per query, plus one when a query
  // steps into the next leaf. The logical cost is independent of `group`.
  static void LowerBoundBatch(const Tree& tree, const Key* keys, size_t n,
                              Iterator* out, int group,
                              SearchCounters* counters = nullptr) {
    group = ClampBatchGroup(group);
    if (tree.root_ == nullptr) {
      for (size_t i = 0; i < n; ++i) out[i] = Iterator();
      return;
    }
    for (size_t off = 0; off < n; off += static_cast<size_t>(group)) {
      const int g = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(group), n - off));
      LowerBoundGroup(tree, keys + off, g, out + off, counters);
    }
  }

  // --- optimistic (lock-free) batch descents ------------------------------
  //
  // Same pipelined / level-wise schedules as FindBatch / FindBatchGrouped,
  // but over optimistic-lock-coupling version validation instead of a
  // shard lock (see generic_btree.h "optimistic reads" and core/olc.h).
  // Both are ONE attempt per query: out[i] is assigned for every query
  // that resolved on a consistent snapshot; queries invalidated by a
  // concurrent writer are appended to *failed (original index) with
  // out[i] untouched, for the caller to retry per-key or under its lock.
  // Values are copied out (not pointed to): a pointer into a node is
  // only valid under a lock. Caller must hold an olc::EpochGuard pin.

  static void FindBatchOptimistic(const Tree& tree, const Key* keys, size_t n,
                                  std::optional<Value>* out,
                                  std::vector<uint32_t>* failed) {
    olc::TsanIgnoreReadsScope tsan;
    for (size_t off = 0; off < n; off += static_cast<size_t>(kMaxBatchGroup)) {
      const int g = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(kMaxBatchGroup), n - off));
      FindGroupOptimistic(tree, keys + off, g, out + off,
                          static_cast<uint32_t>(off), failed);
    }
  }

  // Level-wise variant: sorts the batch once and validates each frontier
  // node once per batch, so the whole sorted run over a node shares one
  // version check. Queries whose answer may end the *previous* leaf
  // (upper-bound position 0 with a non-null prev) — or whose right-edge
  // miss the sibling probe cannot prove (RightEdgeMissProven) — are
  // reported as failed rather than hopping leaves mid-run; the per-key
  // retry resolves them.
  static void FindBatchGroupedOptimistic(const Tree& tree, const Key* keys,
                                         size_t n, std::optional<Value>* out,
                                         std::vector<uint32_t>* failed) {
    if (n == 0) return;
    olc::TsanIgnoreReadsScope tsan;
    SortedBatch<Key> sorted;
    SortBatchWithPermutation(keys, n, &sorted);
    const Key* skeys = sorted.keys.data();
    const auto fail_range = [&](uint32_t b, uint32_t e) {
      for (uint32_t j = b; j < e; ++j) failed->push_back(sorted.perm[j]);
    };
    const uint64_t vt = tree.tree_version_.ReadBegin();
    if (!olc::VersionWord::IsStable(vt)) {
      fail_range(0, static_cast<uint32_t>(n));
      return;
    }
    const NodeBase* root = tree.root_;
    if (!tree.tree_version_.Validate(vt)) {
      fail_range(0, static_cast<uint32_t>(n));
      return;
    }
    if (root == nullptr) {
      for (size_t i = 0; i < n; ++i) out[i] = std::nullopt;
      return;
    }
    const uint64_t vr = root->version.ReadBegin();
    if (!olc::VersionWord::IsStable(vr)) {
      fail_range(0, static_cast<uint32_t>(n));
      return;
    }
    std::vector<OptRun> frontier;
    std::vector<OptRun> next;
    frontier.push_back(OptRun{root, vr, 0, static_cast<uint32_t>(n)});
    const int64_t inner_cap = tree.inner_ctx_->capacity;
    struct Part {
      typename Tree::NodeRef ref;
      uint32_t begin;
      uint32_t end;
    };
    std::vector<Part> parts;
    int depth = 0;
    for (;;) {
      bool any_inner = false;
      for (const OptRun& r : frontier) {
        if (!r.node->is_leaf) {
          any_inner = true;
          break;
        }
      }
      if (!any_inner) break;
      if (++depth > kMaxOptimisticDepth) {  // garbage-ref cycle backstop
        for (const OptRun& r : frontier) fail_range(r.begin, r.end);
        return;
      }
      next.clear();
      for (const OptRun& run : frontier) {
        if (run.node->is_leaf) {
          next.push_back(run);
          continue;
        }
        const InnerNode* inner = static_cast<const InnerNode*>(run.node);
        const int64_t sep_count = inner->keys.count();
        if (sep_count < 0 || sep_count > inner_cap) {
          fail_range(run.begin, run.end);
          continue;
        }
        // Partition the sorted run across the children on the racy
        // snapshot, then validate once for the whole run.
        parts.clear();
        bool bad = false;
        uint32_t cur = run.begin;
        while (cur < run.end) {
          const int64_t idx = inner->keys.UpperBound(skeys[cur]);
          if (idx < 0 || idx > sep_count) {
            bad = true;
            break;
          }
          uint32_t sub_end = run.end;
          if (idx < sep_count) {
            const Key sep = inner->keys.At(idx);
            sub_end = static_cast<uint32_t>(
                std::lower_bound(skeys + cur + 1, skeys + run.end, sep) -
                skeys);
          }
          parts.push_back(
              Part{inner->children[static_cast<size_t>(idx)], cur, sub_end});
          cur = sub_end;
        }
        if (bad || !inner->version.Validate(run.ver)) {
          fail_range(run.begin, run.end);
          continue;
        }
        for (const Part& p : parts) {
          const NodeBase* child = tree.DecodeRefOptimistic(p.ref);
          if (child == nullptr) {
            fail_range(p.begin, p.end);
            continue;
          }
          const uint64_t vc = child->version.ReadBegin();
          if (!olc::VersionWord::IsStable(vc)) {
            fail_range(p.begin, p.end);
            continue;
          }
          Prefetch(child);
          next.push_back(OptRun{child, vc, p.begin, p.end});
        }
      }
      frontier.swap(next);
    }
    // Leaf level: gather each run's answers into scratch on the racy
    // snapshot, validate the leaf once, then commit through the sort
    // permutation.
    const int64_t leaf_cap = tree.leaf_ctx_->capacity;
    std::vector<std::optional<Value>> tmp;
    std::vector<uint8_t> tmp_defer;
    for (const OptRun& run : frontier) {
      const LeafNode* leaf = static_cast<const LeafNode*>(run.node);
      tmp.assign(run.end - run.begin, std::nullopt);
      tmp_defer.assign(run.end - run.begin, 0);
      bool bad = false;
      const int64_t leaf_count = leaf->keys.count();
      if (leaf_count < 0 || leaf_count > leaf_cap) {
        fail_range(run.begin, run.end);
        continue;
      }
      for (uint32_t j = run.begin; j < run.end; ++j) {
        const Key q = skeys[j];
        const int64_t pos = leaf->keys.UpperBound(q);
        if (pos < 0 || pos > leaf_cap) {
          bad = true;
          break;
        }
        if (pos == 0) {
          // Occurrence, if any, ends the previous leaf: defer to the
          // caller's per-key retry instead of hopping mid-run.
          if (leaf->prev != nullptr) tmp_defer[j - run.begin] = 1;
          continue;
        }
        if (leaf->keys.At(pos - 1) == q) {
          tmp[j - run.begin] = leaf->values[static_cast<size_t>(pos - 1)];
        } else if (pos == leaf_count && leaf->next != nullptr &&
                   !RightEdgeMissProven(leaf->next, q, leaf_cap)) {
          tmp_defer[j - run.begin] = 1;
        }
      }
      if (bad || !leaf->version.Validate(run.ver)) {
        fail_range(run.begin, run.end);
        continue;
      }
      for (uint32_t j = run.begin; j < run.end; ++j) {
        if (tmp_defer[j - run.begin] != 0) {
          failed->push_back(sorted.perm[j]);
        } else {
          out[sorted.perm[j]] = tmp[j - run.begin];
        }
      }
    }
  }

  // --- grouped (level-wise) descent ----------------------------------------
  //
  // Sorts the batch once (core/batch_sort.h), then walks the tree level
  // by level with a frontier of (node, contiguous query run) pairs: each
  // node is loaded and searched once per batch, and its run is
  // partitioned across the children by binary-splitting the sorted run
  // on the node's separator keys — the key store's own in-node search
  // finds the first child, std::lower_bound on the separator rank finds
  // where the run leaves it. Answers and logical counters are identical
  // to FindBatch; counters->nodes_loaded additionally counts each
  // frontier node once, so nodes_visited / nodes_loaded is the sharing
  // factor the level-wise traversal buys.
  static void FindBatchGrouped(const Tree& tree, const Key* keys, size_t n,
                               const Value** out,
                               SearchCounters* counters = nullptr,
                               GroupedLevelStats* stats = nullptr) {
    if (tree.root_ == nullptr) {
      for (size_t i = 0; i < n; ++i) out[i] = nullptr;
      return;
    }
    if (n == 0) return;
    SortedBatch<Key> sorted;
    SortBatchWithPermutation(keys, n, &sorted);
    const Key* skeys = sorted.keys.data();
    std::vector<Run> frontier;
    frontier.push_back(Run{tree.root_, 0, static_cast<uint32_t>(n)});
    DescendRuns<false>(tree, skeys, &frontier, counters, stats);
    const uint64_t leaf_start = stats != nullptr ? CycleTimer::Now() : 0;
    for (size_t r = 0; r < frontier.size(); ++r) {
      if (r + 2 * kGroupedRunLookahead < frontier.size()) {
        Prefetch(frontier[r + 2 * kGroupedRunLookahead].node);
      }
      if (r + kGroupedRunLookahead < frontier.size()) {
        static_cast<const LeafNode*>(frontier[r + kGroupedRunLookahead].node)
            ->keys.PrefetchKeys();
      }
      const Run& run = frontier[r];
      const LeafNode* leaf0 = static_cast<const LeafNode*>(run.node);
      if (counters != nullptr) {
        counters->nodes_visited += run.end - run.begin;
        ++counters->nodes_loaded;
      }
      // Leaf resolution per query, identical to FindGroup; duplicate
      // queries (adjacent after the sort) reuse the previous answer.
      bool prev_loaded = false;
      Key last_q{};
      const Value* last_out = nullptr;
      bool last_stepped = false;
      for (uint32_t j = run.begin; j < run.end; ++j) {
        const Key q = skeys[j];
        if (j > run.begin && q == last_q) {
          out[sorted.perm[j]] = last_out;
          if (counters != nullptr && last_stepped) ++counters->nodes_visited;
          continue;
        }
        last_q = q;
        last_stepped = false;
        const LeafNode* leaf = leaf0;
        int64_t pos = leaf->keys.UpperBound(q);
        if (pos == 0) {
          leaf = leaf->prev;
          if (leaf == nullptr) {
            last_out = nullptr;
            out[sorted.perm[j]] = nullptr;
            continue;
          }
          last_stepped = true;
          if (counters != nullptr) {
            ++counters->nodes_visited;
            if (!prev_loaded) {
              ++counters->nodes_loaded;
              prev_loaded = true;
            }
          }
          pos = leaf->keys.count();
        }
        last_out = leaf->keys.At(pos - 1) == q
                       ? &leaf->values[static_cast<size_t>(pos - 1)]
                       : nullptr;
        out[sorted.perm[j]] = last_out;
      }
    }
    RecordLevel(stats, frontier.size(), leaf_start);
  }

  // Grouped lower-bound iterators: the batched form of LowerBoundIter
  // with the level-wise schedule. The descent routes query q to the
  // child holding the first key >= q (LowerBound ranks), so the run
  // boundary at separator s is the first query > s.
  static void LowerBoundBatchGrouped(const Tree& tree, const Key* keys,
                                     size_t n, Iterator* out,
                                     SearchCounters* counters = nullptr) {
    if (tree.root_ == nullptr) {
      for (size_t i = 0; i < n; ++i) out[i] = Iterator();
      return;
    }
    if (n == 0) return;
    SortedBatch<Key> sorted;
    SortBatchWithPermutation(keys, n, &sorted);
    const Key* skeys = sorted.keys.data();
    std::vector<Run> frontier;
    frontier.push_back(Run{tree.root_, 0, static_cast<uint32_t>(n)});
    DescendRuns<true>(tree, skeys, &frontier, counters, nullptr);
    for (size_t r = 0; r < frontier.size(); ++r) {
      if (r + 2 * kGroupedRunLookahead < frontier.size()) {
        Prefetch(frontier[r + 2 * kGroupedRunLookahead].node);
      }
      if (r + kGroupedRunLookahead < frontier.size()) {
        static_cast<const LeafNode*>(frontier[r + kGroupedRunLookahead].node)
            ->keys.PrefetchKeys();
      }
      const Run& run = frontier[r];
      const LeafNode* leaf0 = static_cast<const LeafNode*>(run.node);
      if (counters != nullptr) {
        counters->nodes_visited += run.end - run.begin;
        ++counters->nodes_loaded;
      }
      bool next_loaded = false;
      Key last_q{};
      Iterator last_it;
      bool last_stepped = false;
      for (uint32_t j = run.begin; j < run.end; ++j) {
        const Key q = skeys[j];
        if (j > run.begin && q == last_q) {
          out[sorted.perm[j]] = last_it;
          if (counters != nullptr && last_stepped) ++counters->nodes_visited;
          continue;
        }
        last_q = q;
        last_stepped = false;
        const LeafNode* leaf = leaf0;
        int64_t pos = leaf->keys.LowerBound(q);
        if (pos >= leaf->keys.count()) {  // answer starts in the next leaf
          leaf = leaf->next;
          if (leaf != nullptr) {
            last_stepped = true;
            if (counters != nullptr) {
              ++counters->nodes_visited;
              if (!next_loaded) {
                ++counters->nodes_loaded;
                next_loaded = true;
              }
            }
          }
          pos = 0;
        }
        last_it = leaf != nullptr ? Iterator(leaf, pos) : Iterator();
        out[sorted.perm[j]] = last_it;
      }
    }
  }

  // Traced grouped lookup: identical results to FindBatchGrouped, plus
  // one trace whose per-level spans record the level's distinct
  // node-visit count (node_ref) and the batch size sharing the level
  // (group_size) — the flight-recorder view of the amortization.
  static void FindBatchGroupedTraced(const Tree& tree, const Key* keys,
                                     size_t n, const Value** out,
                                     SearchCounters* counters,
                                     obs::DescentTrace* t) {
    GroupedLevelStats stats;
    FindBatchGrouped(tree, keys, n, out, counters, &stats);
    if (n == 0 || tree.root_ == nullptr) return;
    t->batched = 1;
    t->key = static_cast<uint64_t>(
        static_cast<std::make_unsigned_t<Key>>(keys[0]));
    t->found = out[0] != nullptr ? 1 : 0;
    const uint8_t layout_id = RootLayoutId(tree);
    t->backend = static_cast<uint8_t>(layout_id == 0
                                          ? obs::TraceBackend::kBPlusTree
                                          : obs::TraceBackend::kSegTree);
    const uint16_t group_size =
        n > 0xffff ? uint16_t{0xffff} : static_cast<uint16_t>(n);
    for (int l = 0; l < stats.levels; ++l) {
      obs::AppendTraceLevel(t, stats.nodes[l], layout_id,
                            obs::kTraceSlabUnknown, SearchCounters{},
                            stats.cycles[l], group_size);
    }
  }

 private:
  using NodeBase = typename Tree::NodeBase;
  using InnerNode = typename Tree::InnerNode;
  using LeafNode = typename Tree::LeafNode;

  static void Prefetch(const void* p) { PrefetchRead(p); }

  // One grouped-frontier entry: sorted queries [begin, end) all route to
  // `node` on the current level. Runs on one level are disjoint and
  // cover the batch, and distinct runs hold distinct nodes (children of
  // disjoint subtrees), so one run == one physical node load.
  struct Run {
    const NodeBase* node;
    uint32_t begin;
    uint32_t end;
  };

  // Optimistic frontier entry: Run plus the node's version at first
  // touch, validated before the run's child refs are trusted.
  struct OptRun {
    const NodeBase* node;
    uint64_t ver;
    uint32_t begin;
    uint32_t end;
  };

  // Backstop against following garbage references in a cycle: no real
  // descent is deeper than this (a height-40 tree would be astronomically
  // large), so exceeding it means the snapshot is hopeless — fail the
  // queries and let the caller retry.
  static constexpr int kMaxOptimisticDepth = 40;

  // A miss at the right edge of a leaf (upper-bound == count, live next
  // sibling) is only provable by confirming the key precedes the next
  // leaf's first key: a split racing the descent may have moved the
  // key's range into that sibling. Probes the sibling under its own
  // seqlock; true == miss proven, false == caller must defer to the
  // per-key retry (FindOptimistic right-hops the chain). The caller
  // still validates the current leaf afterwards, which covers the
  // next-pointer read itself.
  static bool RightEdgeMissProven(const LeafNode* next, Key q,
                                  int64_t leaf_cap) {
    const uint64_t vn = next->version.ReadBegin();
    if (!olc::VersionWord::IsStable(vn)) return false;
    const int64_t nc = next->keys.count();
    if (nc <= 0 || nc > leaf_cap) return false;
    const Key first = next->keys.At(0);
    if (!next->version.Validate(vn)) return false;
    return q < first;
  }

  // Pipelined lockstep descent of one group with per-query version
  // coupling; failures are per-query (index base + i appended to
  // *failed), survivors resolve exactly like FindGroup but copy the
  // value out before the final leaf validation.
  static void FindGroupOptimistic(const Tree& tree, const Key* keys, int g,
                                  std::optional<Value>* out, uint32_t base,
                                  std::vector<uint32_t>* failed) {
    const NodeBase* cur[kMaxBatchGroup];
    uint64_t ver[kMaxBatchGroup];
    bool live[kMaxBatchGroup];
    const auto fail_all = [&] {
      for (int i = 0; i < g; ++i) failed->push_back(base + static_cast<uint32_t>(i));
    };
    const uint64_t vt = tree.tree_version_.ReadBegin();
    if (!olc::VersionWord::IsStable(vt)) {
      fail_all();
      return;
    }
    const NodeBase* root = tree.root_;
    if (!tree.tree_version_.Validate(vt)) {
      fail_all();
      return;
    }
    if (root == nullptr) {
      for (int i = 0; i < g; ++i) out[i] = std::nullopt;
      return;
    }
    const uint64_t vr = root->version.ReadBegin();
    if (!olc::VersionWord::IsStable(vr)) {
      fail_all();
      return;
    }
    for (int i = 0; i < g; ++i) {
      cur[i] = root;
      ver[i] = vr;
      live[i] = true;
    }
    const auto fail_one = [&](int i) {
      live[i] = false;
      failed->push_back(base + static_cast<uint32_t>(i));
    };
    const int64_t inner_cap = tree.inner_ctx_->capacity;
    int depth = 0;
    for (;;) {
      bool any_inner = false;
      for (int i = 0; i < g; ++i) {
        if (live[i] && !cur[i]->is_leaf) {
          any_inner = true;
          break;
        }
      }
      if (!any_inner) break;
      if (++depth > kMaxOptimisticDepth) {
        for (int i = 0; i < g; ++i) {
          if (live[i]) fail_one(i);
        }
        return;
      }
      for (int i = 0; i < g; ++i) {
        if (!live[i] || cur[i]->is_leaf) continue;
        const InnerNode* inner = static_cast<const InnerNode*>(cur[i]);
        inner->keys.PrefetchKeys();
        Prefetch(inner->children.data());
      }
      for (int i = 0; i < g; ++i) {
        if (!live[i] || cur[i]->is_leaf) continue;
        const InnerNode* inner = static_cast<const InnerNode*>(cur[i]);
        const int64_t idx = inner->keys.UpperBound(keys[i]);
        if (idx < 0 || idx > inner_cap) {
          fail_one(i);
          continue;
        }
        const typename Tree::NodeRef ref =
            inner->children[static_cast<size_t>(idx)];
        if (!inner->version.Validate(ver[i])) {
          fail_one(i);
          continue;
        }
        const NodeBase* child = tree.DecodeRefOptimistic(ref);
        if (child == nullptr) {
          fail_one(i);
          continue;
        }
        const uint64_t vc = child->version.ReadBegin();
        if (!olc::VersionWord::IsStable(vc)) {
          fail_one(i);
          continue;
        }
        cur[i] = child;
        ver[i] = vc;
        Prefetch(child);
      }
    }
    // Leaf resolution with the FindOptimistic prev-leaf hop protocol.
    const int64_t leaf_cap = tree.leaf_ctx_->capacity;
    for (int i = 0; i < g; ++i) {
      if (!live[i]) continue;
      const LeafNode* leaf = static_cast<const LeafNode*>(cur[i]);
      uint64_t v = ver[i];
      int64_t pos = leaf->keys.UpperBound(keys[i]);
      if (pos < 0 || pos > leaf_cap) {
        fail_one(i);
        continue;
      }
      if (pos == 0) {
        const LeafNode* prev = leaf->prev;
        if (!leaf->version.Validate(v)) {
          fail_one(i);
          continue;
        }
        if (prev == nullptr) {
          out[i] = std::nullopt;
          continue;
        }
        const uint64_t vp = prev->version.ReadBegin();
        if (!olc::VersionWord::IsStable(vp)) {
          fail_one(i);
          continue;
        }
        leaf = prev;
        v = vp;
        pos = leaf->keys.count();
        if (pos <= 0 || pos > leaf_cap) {
          fail_one(i);
          continue;
        }
      }
      const Key found = leaf->keys.At(pos - 1);
      Value value{};
      const bool hit = found == keys[i];
      if (hit) value = leaf->values[static_cast<size_t>(pos - 1)];
      if (!hit) {
        const int64_t count = leaf->keys.count();
        if (count < 0 || count > leaf_cap) {
          fail_one(i);
          continue;
        }
        const LeafNode* next = leaf->next;
        if (pos == count && next != nullptr &&
            !RightEdgeMissProven(next, keys[i], leaf_cap)) {
          fail_one(i);
          continue;
        }
      }
      if (!leaf->version.Validate(v)) {
        fail_one(i);
        continue;
      }
      out[i] = hit ? std::optional<Value>(std::move(value)) : std::nullopt;
    }
  }

  static void RecordLevel(GroupedLevelStats* stats, size_t nodes,
                          uint64_t start) {
    if (stats == nullptr || stats->levels >= obs::kMaxTraceLevels) return;
    stats->nodes[stats->levels] = static_cast<uint32_t>(nodes);
    stats->cycles[stats->levels] = CycleTimer::Now() - start;
    ++stats->levels;
  }

  static uint8_t RootLayoutId(const Tree& tree) {
    return tree.root_->is_leaf
               ? static_cast<const LeafNode*>(tree.root_)
                     ->keys.TraceLayoutId()
               : static_cast<const InnerNode*>(tree.root_)
                     ->keys.TraceLayoutId();
  }

  // Level-wise frontier walk to leaf level. kLower selects lower-bound
  // ranks for the descent (LowerBoundBatchGrouped), upper-bound ranks
  // otherwise; the run boundary under a separator s is therefore the
  // first query > s (lower) or >= s (upper). Each frontier node costs
  // one in-node search per child actually taken plus one binary split
  // per boundary — independent of the run's length.
  template <bool kLower>
  static void DescendRuns(const Tree& tree, const Key* skeys,
                          std::vector<Run>* frontier,
                          SearchCounters* counters,
                          GroupedLevelStats* stats) {
    std::vector<Run> next;
    while (!frontier->empty() && !(*frontier)[0].node->is_leaf) {
      const uint64_t start = stats != nullptr ? CycleTimer::Now() : 0;
      next.clear();
      const std::vector<Run>& runs = *frontier;
      for (size_t r = 0; r < runs.size(); ++r) {
        // Two-stage lookahead: the node struct at distance 2W, its key
        // storage (behind the store's internal pointer — readable once
        // the struct line is hot) at distance W. Matches the per-node
        // prefetch coverage of the pipelined DescendGroup passes.
        if (r + 2 * kGroupedRunLookahead < runs.size()) {
          Prefetch(runs[r + 2 * kGroupedRunLookahead].node);
        }
        if (r + kGroupedRunLookahead < runs.size()) {
          const InnerNode* ahead = static_cast<const InnerNode*>(
              runs[r + kGroupedRunLookahead].node);
          ahead->keys.PrefetchKeys();
          Prefetch(ahead->children.data());
        }
        const Run& run = runs[r];
        const InnerNode* inner = static_cast<const InnerNode*>(run.node);
        if (counters != nullptr) {
          counters->nodes_visited += run.end - run.begin;
          ++counters->nodes_loaded;
        }
        inner->keys.PrefetchKeys();
        const int64_t sep_count = inner->keys.count();
        uint32_t cur = run.begin;
        while (cur < run.end) {
          const int64_t idx = kLower ? inner->keys.LowerBound(skeys[cur])
                                     : inner->keys.UpperBound(skeys[cur]);
          uint32_t sub_end = run.end;
          if (idx < sep_count) {
            const Key sep = inner->keys.At(idx);
            sub_end = static_cast<uint32_t>(
                (kLower ? std::upper_bound(skeys + cur + 1, skeys + run.end,
                                           sep)
                        : std::lower_bound(skeys + cur + 1, skeys + run.end,
                                           sep)) -
                skeys);
          }
          const NodeBase* child =
              tree.DecodeRef(inner->children[static_cast<size_t>(idx)]);
          Prefetch(child);
          next.push_back(Run{child, cur, sub_end});
          cur = sub_end;
        }
      }
      RecordLevel(stats, frontier->size(), start);
      frontier->swap(next);
    }
  }

  // Descends the whole group to leaf level in lockstep. `upper` selects
  // the in-node search (UpperBound for Find, LowerBound for the
  // lower-bound iterator), applied uniformly at the branching levels.
  template <bool kLower>
  static void DescendGroup(const Tree& tree, const Key* keys, int g,
                           const NodeBase** cur, SearchCounters* counters) {
    for (int i = 0; i < g; ++i) cur[i] = tree.root_;
    // One shared root read; all leaves sit at the same depth, so the
    // group reaches leaf level together.
    while (!cur[0]->is_leaf) {
      if (counters != nullptr) counters->nodes_visited += g;
      for (int i = 0; i < g; ++i) {
        const InnerNode* inner = static_cast<const InnerNode*>(cur[i]);
        inner->keys.PrefetchKeys();
        Prefetch(inner->children.data());
      }
      for (int i = 0; i < g; ++i) {
        const InnerNode* inner = static_cast<const InnerNode*>(cur[i]);
        const int64_t idx = kLower ? inner->keys.LowerBound(keys[i])
                                   : inner->keys.UpperBound(keys[i]);
        const NodeBase* child =
            tree.DecodeRef(inner->children[static_cast<size_t>(idx)]);
        cur[i] = child;
        Prefetch(child);
      }
    }
    for (int i = 0; i < g; ++i) {
      static_cast<const LeafNode*>(cur[i])->keys.PrefetchKeys();
    }
  }

  static void FindGroup(const Tree& tree, const Key* keys, int g,
                        const Value** out, SearchCounters* counters) {
    const NodeBase* cur[kMaxBatchGroup];
    DescendGroup<false>(tree, keys, g, cur, counters);
    if (counters != nullptr) counters->nodes_visited += g;  // leaf level
    // Leaf resolution, identical to Tree::FindLeafPos: the upper-bound
    // descent lands in the leaf holding the key's global upper bound; the
    // occurrence, if any, sits just before it — possibly at the end of
    // the previous leaf.
    for (int i = 0; i < g; ++i) {
      const LeafNode* leaf = static_cast<const LeafNode*>(cur[i]);
      int64_t pos = leaf->keys.UpperBound(keys[i]);
      if (pos == 0) {
        leaf = leaf->prev;
        if (leaf == nullptr) {
          out[i] = nullptr;
          continue;
        }
        if (counters != nullptr) ++counters->nodes_visited;
        pos = leaf->keys.count();
      }
      out[i] = leaf->keys.At(pos - 1) == keys[i]
                   ? &leaf->values[static_cast<size_t>(pos - 1)]
                   : nullptr;
    }
  }

  static void LowerBoundGroup(const Tree& tree, const Key* keys, int g,
                              Iterator* out, SearchCounters* counters) {
    const NodeBase* cur[kMaxBatchGroup];
    DescendGroup<true>(tree, keys, g, cur, counters);
    if (counters != nullptr) counters->nodes_visited += g;  // leaf level
    // Leaf resolution, identical to Tree::LowerBoundIter.
    for (int i = 0; i < g; ++i) {
      const LeafNode* leaf = static_cast<const LeafNode*>(cur[i]);
      int64_t pos = leaf->keys.LowerBound(keys[i]);
      if (pos >= leaf->keys.count()) {  // answer starts in the next leaf
        leaf = leaf->next;
        if (leaf != nullptr && counters != nullptr) {
          ++counters->nodes_visited;
        }
        pos = 0;
      }
      out[i] = leaf != nullptr ? Iterator(leaf, pos) : Iterator();
    }
  }
};

}  // namespace simdtree::btree

#endif  // SIMDTREE_BTREE_BATCH_DESCENT_H_
