// Batched B+-Tree descents — the batched-lookup engines shared by the
// plain (binary-search) and Seg (SIMD k-ary) key stores.
//
// A single root-to-leaf descent serializes its cache misses: the child
// reference is not known until the current node's separators have been
// searched, and inside a node each k-ary level's key line is not known
// until the level above it has been compared. An out-of-cache tree
// therefore spends almost its whole lookup stalled (paper Section 5.4:
// "the processor is mainly waiting for data from main memory"). Two
// engines turn a batch's independent queries into memory parallelism:
//
//   * the interleaved descent (FindBatch, LowerBoundBatch and the
//     optimistic FindBatchOptimistic / FindBatchOptimisticOver) keeps a
//     window of `group` queries in flight. Each query is a small state
//     machine; one turn does one node hop or the in-node comparison
//     steps on one key line (one k-ary level or binary-search probe;
//     more only while they stay in the line just read, or in the first
//     two breadth-first levels, which the hop prefetched together), then
//     prefetches the line that query reads next — the next level's
//     keys, the child reference, the child's header and first key
//     lines, or the leaf's value — and yields to the next query. The
//     window's misses are in flight together instead of one at a time,
//     whatever node or level each query is on; a finished query's slot
//     takes the next query at once. Queries may descend different trees
//     of one type (FindBatchOptimisticOver: the shards of a
//     ShardedIndex), each starting at its own tree's root;
//   * the grouped (level-wise) descent (FindBatchGrouped and its
//     lower-bound, traced and optimistic forms) sorts the batch once and
//     visits each node once per batch — the winner once a batch is large
//     against the tree depth (UseGroupedDescent, core/batch.h).
//
// Both engines read under one of two protocols: Plain, for callers that
// hold the tree still (a shard lock, or a single thread), and — for the
// interleaved and grouped Find — Optimistic, optimistic lock coupling
// (generic_btree.h "optimistic reads"): node versions are validated
// before a node's contents are trusted, and a query that cannot be
// resolved on a consistent snapshot is reported to the caller instead.
// Results are exactly those of per-key Find / FindOptimistic /
// LowerBoundIter.
//
// BatchDescent is a friend of GenericBPlusTree: the engines need the
// node types, which stay private to the tree.

#ifndef SIMDTREE_BTREE_BATCH_DESCENT_H_
#define SIMDTREE_BTREE_BATCH_DESCENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
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

// Read protocols of the batch engines: Plain trusts what it reads (the
// caller keeps writers out), Optimistic validates node versions and
// reports conflicted queries (the caller holds an olc::EpochGuard pin).
struct Plain {};
struct Optimistic {};

template <typename Tree>
class BatchDescent {
 public:
  using Key = typename Tree::KeyType;
  using Value = typename Tree::ValueType;
  using Iterator = typename Tree::ConstIterator;

  // out[i] = pointer to the stored value of some occurrence of keys[i],
  // or nullptr when absent — the batched form of Tree::Find, with
  // `group` queries in flight (the interleaved descent). Pointers are
  // valid until the next mutation of the tree. A non-null `counters`
  // accumulates nodes_visited exactly as the per-key FindCounted would:
  // one per level of each descent, plus one when a query steps into the
  // previous leaf.
  static void FindBatch(const Tree& tree, const Key* keys, size_t n,
                        const Value** out, int group,
                        SearchCounters* counters = nullptr) {
    const auto one = [&tree](uint32_t) { return &tree; };
    Interleave<Plain, false>(one, keys, n, out, ClampBatchGroup(group),
                             counters, nullptr);
  }

  // out[i] = iterator at the first pair with key >= keys[i] (invalid when
  // none) — the batched form of Tree::LowerBoundIter. Counter semantics
  // mirror FindBatch: one node per level per query, plus one when a query
  // steps into the next leaf. The logical cost is independent of `group`.
  static void LowerBoundBatch(const Tree& tree, const Key* keys, size_t n,
                              Iterator* out, int group,
                              SearchCounters* counters = nullptr) {
    const auto one = [&tree](uint32_t) { return &tree; };
    Interleave<Plain, true>(one, keys, n, out, ClampBatchGroup(group),
                            counters, nullptr);
  }

  // --- optimistic (lock-free) batch descents ------------------------------
  //
  // The interleaved and level-wise schedules over optimistic-lock-coupling
  // version validation instead of a shard lock (see generic_btree.h
  // "optimistic reads" and core/olc.h). Each is ONE attempt per query:
  // out[i] is assigned for every query that resolved on a consistent
  // snapshot; queries invalidated by a concurrent writer are appended to
  // *failed (original index) with out[i] untouched, for the caller to
  // retry per-key or under its lock. Values are copied out (not pointed
  // to): a pointer into a node is only valid under a lock. Caller must
  // hold an olc::EpochGuard pin.

  static void FindBatchOptimistic(const Tree& tree, const Key* keys, size_t n,
                                  std::optional<Value>* out,
                                  std::vector<uint32_t>* failed) {
    const auto one = [&tree](uint32_t) { return &tree; };
    FindBatchOptimisticOver(one, keys, n, out, failed);
  }

  // The same pass with each query on its own tree: query i descends
  // *tree_of(i) from that tree's root, or is left out (out[i] untouched,
  // not failed) when tree_of(i) is nullptr. One window interleaves every
  // query of the batch, whichever tree it is on.
  template <typename TreeOf>
  static void FindBatchOptimisticOver(const TreeOf& tree_of, const Key* keys,
                                      size_t n, std::optional<Value>* out,
                                      std::vector<uint32_t>* failed) {
    olc::TsanIgnoreReadsScope tsan;
    Interleave<Optimistic, false>(tree_of, keys, n, out, kMaxInFlight,
                                  nullptr, failed);
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
      // Leaf resolution per query, identical to Tree::FindLeafPos; duplicate
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

  // --- interleaved descent --------------------------------------------------

  using KeyStore = typename Tree::KeyStoreType;
  using Cursor = typename KeyStore::Cursor;

  // Window bound of the interleaved descent, and the window of the
  // optimistic pass: twice the `group` bound, so a coalesced batch of a
  // few dozen keys fits one window and no query waits for a free slot
  // behind the others' dependent misses. FindBatch and LowerBoundBatch
  // keep their `group` (at most kMaxBatchGroup).
  static constexpr int kMaxInFlight = 2 * kMaxBatchGroup;

  // Where an in-flight query resumes on its next turn.
  enum class Turn : uint8_t {
    kEnter,    // node header and first key lines (prefetched by the
               // hop): begin the search, take its first steps
    kStep,     // the next key line (prefetched): comparison steps
    kHop,      // child reference (prefetched): descend to the child
    kPrev,     // previous leaf's header (prefetched): its last pair
    kResolve,  // leaf value line (prefetched): copy, validate, commit
  };

  // One in-flight query of the window.
  struct Query {
    const Tree* tree;
    const NodeBase* node;
    const KeyStore* keys;  // the node's key store
    Cursor cur;            // in-node search state; cur.pos is the rank
    uint64_t ver;          // node version at kEnter (Optimistic)
    // Optimistic: the version that vouched for reaching `node` (the
    // parent's, the previous leaf's successor's, or the tree's for the
    // root), validated again once `node`'s own version is read.
    const olc::VersionWord* guard;
    uint64_t guard_ver;
    Key key;               // search key: keys[id], or keys[id] - 1 for a
                           // lower bound (one upper bound per node)
    uint32_t id;
    Turn turn;
    uint8_t depth;         // nodes entered (Optimistic cycle backstop)
    bool rank_zero;        // lower bound of the type minimum: rank 0
  };

  // Runs queries 0..n-1 through a window of `group` (at most
  // kMaxInFlight) in-flight queries (see the file comment). Out is
  // const Value* (Plain find), Iterator (lower bound) or
  // std::optional<Value> (Optimistic find). The key store's comparison
  // step is resolved once, here.
  template <typename Protocol, bool kLower, typename TreeOf, typename Out>
  static void Interleave(const TreeOf& tree_of, const Key* keys, size_t n,
                         Out* out, int group, SearchCounters* counters,
                         std::vector<uint32_t>* failed) {
    if (n == 0) return;
    const int window = std::min(group, kMaxInFlight);
    KeyStore::WithCompareStep([&](const auto& step) {
      Query q[kMaxInFlight];
      size_t next = 0;
      // Starts queries from `next` into `slot` until one is in flight
      // (a query whose tree is empty, skipped or conflicted at the root
      // finishes at once).
      const auto admit = [&](Query& slot) {
        while (next < n) {
          if (Start<Protocol, kLower>(slot, tree_of, keys,
                                      static_cast<uint32_t>(next++), out,
                                      failed)) {
            return true;
          }
        }
        return false;
      };
      int live = 0;
      while (live < window && admit(q[live])) ++live;
      while (live > 0) {
        for (int w = 0; w < live;) {
          Query& s = q[w];
          bool finished;
          if (s.turn == Turn::kStep) {
            // The common turn: the node's next key line, prefetched on
            // the query's previous turn.
            const Key* line = s.keys->StepUpperBound(s.key, &s.cur, step);
            if (line != nullptr) {
              Prefetch(line);
              ++w;
              continue;
            }
            finished = Searched<Protocol, kLower>(s, keys, out, counters,
                                                  failed);
          } else {
            finished = Advance<Protocol, kLower>(s, keys, out, step, counters,
                                                 failed);
          }
          if (!finished || admit(s)) {
            ++w;
          } else {
            s = q[--live];
          }
        }
      }
    });
  }

  template <typename Protocol, bool kLower, typename TreeOf, typename Out>
  static bool Start(Query& q, const TreeOf& tree_of, const Key* keys,
                    uint32_t id, Out* out, std::vector<uint32_t>* failed) {
    const Tree* tree = tree_of(id);
    if (tree == nullptr) return false;
    const NodeBase* root;
    if constexpr (std::is_same_v<Protocol, Optimistic>) {
      const uint64_t vt = tree->tree_version_.ReadBegin();
      root = tree->root_;
      if (!olc::VersionWord::IsStable(vt) ||
          !tree->tree_version_.Validate(vt)) {
        failed->push_back(id);
        return false;
      }
      q.guard = &tree->tree_version_;
      q.guard_ver = vt;
    } else {
      root = tree->root_;
    }
    if (root == nullptr) {
      out[id] = Out{};
      return false;
    }
    q.tree = tree;
    q.node = root;
    q.id = id;
    q.turn = Turn::kEnter;
    q.depth = 0;
    q.key = keys[id];
    q.rank_zero = false;
    if constexpr (kLower) {
      q.rank_zero = q.key == std::numeric_limits<Key>::min();
      if (!q.rank_zero) --q.key;
    }
    return true;
  }

  // A turn of q other than a comparison step; true when q is finished
  // (answered or failed).
  template <typename Protocol, bool kLower, typename Out, typename Step>
  static bool Advance(Query& q, const Key* keys, Out* out, const Step& step,
                      SearchCounters* counters,
                      std::vector<uint32_t>* failed) {
    constexpr bool kOpt = std::is_same_v<Protocol, Optimistic>;
    switch (q.turn) {
      case Turn::kEnter: {
        // The hop prefetched the header together with the first key
        // lines (the root is hot), so the node's first comparison steps
        // run in this same turn.
        if constexpr (kOpt) {
          if (!EnterNode(q)) return Fail(q, failed);
        }
        if (counters != nullptr) ++counters->nodes_visited;
        q.keys = q.node->is_leaf
                     ? &static_cast<const LeafNode*>(q.node)->keys
                     : &static_cast<const InnerNode*>(q.node)->keys;
        if (q.rank_zero || q.keys->BeginUpperBound(&q.cur) == nullptr) {
          q.cur.pos = 0;
        } else if (const Key* line =
                       q.keys->StepUpperBound(q.key, &q.cur, step)) {
          Prefetch(line);
          q.turn = Turn::kStep;
          return false;
        }
        return Searched<Protocol, kLower>(q, keys, out, counters, failed);
      }
      case Turn::kHop: {
        const Tree& tree = *q.tree;
        const InnerNode* inner = static_cast<const InnerNode*>(q.node);
        const typename Tree::NodeRef ref =
            inner->children[static_cast<size_t>(q.cur.pos)];
        const NodeBase* child;
        if constexpr (kOpt) {
          // Validate the parent before decoding (FindOptimistic's rule):
          // a validated ref is a real child ref of a consistent snapshot.
          if (!inner->version.Validate(q.ver)) return Fail(q, failed);
          child = tree.DecodeRefOptimistic(ref);
          if (child == nullptr || ++q.depth > kMaxOptimisticDepth) {
            return Fail(q, failed);
          }
          q.guard = &inner->version;
          q.guard_ver = q.ver;
        } else {
          child = tree.DecodeRef(ref);
        }
        // The child's header and, at a fixed block offset, the key lines
        // its search reads first: all in flight before its kEnter.
        const bool leaf = (ref & Tree::kLeafBit) != 0;
        Prefetch(child);
        KeyStore::PrefetchTop(
            reinterpret_cast<const Key*>(
                reinterpret_cast<const char*>(child) +
                (leaf ? tree.leaf_keys_off_ : tree.inner_keys_off_)),
            (leaf ? tree.leaf_ctx_ : tree.inner_ctx_)->capacity);
        q.node = child;
        q.turn = Turn::kEnter;
        return false;
      }
      case Turn::kPrev:
        if constexpr (!kLower) return PrevLeaf<Protocol>(q, keys, out, failed);
        break;
      case Turn::kResolve:
        if constexpr (!kLower) return Resolve<Protocol>(q, keys, out, failed);
        break;
      case Turn::kStep:
        break;
    }
    return false;
  }

  // q stepped into the previous leaf (prefetched): its last pair is the
  // candidate.
  template <typename Protocol, typename Out>
  static bool PrevLeaf(Query& q, const Key* keys, Out* out,
                       std::vector<uint32_t>* failed) {
    const LeafNode* prev = static_cast<const LeafNode*>(q.node);
    if constexpr (std::is_same_v<Protocol, Optimistic>) {
      if (!EnterNode(q)) return Fail(q, failed);
      q.cur.pos = prev->keys.count();
      if (q.cur.pos <= 0 || q.cur.pos > q.tree->leaf_ctx_->capacity) {
        return Fail(q, failed);
      }
      Prefetch(&prev->values[static_cast<size_t>(q.cur.pos - 1)]);
      q.turn = Turn::kResolve;
      return false;
    } else {
      q.cur.pos = prev->keys.count();
      return Resolve<Protocol>(q, keys, out, failed);
    }
  }

  // q's in-node search is done: q.cur.pos is the node's rank for q.key.
  template <typename Protocol, bool kLower, typename Out>
  static bool Searched(Query& q, const Key* keys, Out* out,
                       SearchCounters* counters,
                       std::vector<uint32_t>* failed) {
    constexpr bool kOpt = std::is_same_v<Protocol, Optimistic>;
    const Tree& tree = *q.tree;
    int64_t pos = q.cur.pos;
    if (!q.node->is_leaf) {
      if constexpr (kOpt) {
        if (pos < 0 || pos > tree.inner_ctx_->capacity) {
          return Fail(q, failed);  // torn count
        }
      }
      Prefetch(static_cast<const InnerNode*>(q.node)->children.data() + pos);
      q.turn = Turn::kHop;
      return false;
    }
    const LeafNode* leaf = static_cast<const LeafNode*>(q.node);
    if constexpr (kLower) {
      // Leaf resolution, identical to Tree::LowerBoundIter.
      if (pos >= leaf->keys.count()) {  // answer starts in the next leaf
        leaf = leaf->next;
        if (leaf != nullptr && counters != nullptr) ++counters->nodes_visited;
        pos = 0;
      }
      out[q.id] = leaf != nullptr ? Iterator(leaf, pos) : Iterator();
      return true;
    } else {
      // Leaf resolution, identical to Tree::FindLeafPos: the upper-bound
      // descent lands in the leaf holding the key's global upper bound;
      // the occurrence, if any, sits just before it — possibly at the
      // end of the previous leaf.
      if constexpr (kOpt) {
        if (pos < 0 || pos > tree.leaf_ctx_->capacity) return Fail(q, failed);
      }
      if (pos == 0) {
        const LeafNode* prev = leaf->prev;
        if constexpr (kOpt) {
          if (!leaf->version.Validate(q.ver)) return Fail(q, failed);
          q.guard = &leaf->version;
          q.guard_ver = q.ver;
        }
        if (prev == nullptr) {
          out[q.id] = Out{};
          return true;
        }
        if (counters != nullptr) ++counters->nodes_visited;
        Prefetch(prev);
        q.node = prev;
        q.turn = Turn::kPrev;
        return false;
      }
      Prefetch(&leaf->values[static_cast<size_t>(pos - 1)]);
      if constexpr (kOpt) {
        q.turn = Turn::kResolve;
        return false;
      } else {
        return Resolve<Protocol>(q, keys, out, failed);
      }
    }
  }

  // Answers q from leaf q.node at upper-bound position q.cur.pos > 0. The
  // Optimistic protocol copies the value out, proves a right-edge miss
  // (RightEdgeMissProven), and validates the leaf before committing.
  template <typename Protocol, typename Out>
  static bool Resolve(Query& q, const Key* keys, Out* out,
                      std::vector<uint32_t>* failed) {
    const LeafNode* leaf = static_cast<const LeafNode*>(q.node);
    const int64_t pos = q.cur.pos;
    const Key key = keys[q.id];
    const bool hit = leaf->keys.At(pos - 1) == key;
    if constexpr (std::is_same_v<Protocol, Optimistic>) {
      const int64_t leaf_cap = q.tree->leaf_ctx_->capacity;
      Value value{};
      if (hit) {
        value = leaf->values[static_cast<size_t>(pos - 1)];
      } else {
        const int64_t count = leaf->keys.count();
        if (count < 0 || count > leaf_cap) return Fail(q, failed);
        const LeafNode* next = leaf->next;
        if (pos == count && next != nullptr &&
            !RightEdgeMissProven(next, key, leaf_cap)) {
          return Fail(q, failed);
        }
      }
      if (!leaf->version.Validate(q.ver)) return Fail(q, failed);
      out[q.id] = hit ? std::optional<Value>(std::move(value)) : std::nullopt;
    } else {
      out[q.id] = hit ? &leaf->values[static_cast<size_t>(pos - 1)] : nullptr;
    }
    return true;
  }

  // Optimistic: reads q.node's version, then validates the version that
  // routed q there. A turn or more passes between the two, so a writer
  // can split, merge or rebalance the route in between; if the guard
  // still holds, q.node's key range is the one the route promised.
  static bool EnterNode(Query& q) {
    q.ver = q.node->version.ReadBegin();
    return olc::VersionWord::IsStable(q.ver) &&
           q.guard->Validate(q.guard_ver);
  }

  static bool Fail(const Query& q, std::vector<uint32_t>* failed) {
    failed->push_back(q.id);
    return true;
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
        // the struct line is hot) and child-ref array at distance W.
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

};

}  // namespace simdtree::btree

#endif  // SIMDTREE_BTREE_BATCH_DESCENT_H_
