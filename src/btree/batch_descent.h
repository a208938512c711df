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
//   * the grouped (level-wise) descent (FindBatchGrouped,
//     LowerBoundBatchGrouped, FindBatchGroupedTraced and
//     FindBatchGroupedOptimistic — one frontier walk and one leaf pass)
//     sorts the batch once and visits each node once per batch — the
//     winner once a batch is large against the tree depth
//     (UseGroupedDescent, core/batch.h). Each level's runs go through a
//     window of kMaxInFlight runs with the same turn discipline, so the
//     misses of different runs' nodes overlap too.
//
// Both engines, and the tree's single-key descent (generic_btree.h),
// read under one of two protocols: Plain, for callers that hold the
// tree still (a shard lock, or a single thread), and Optimistic,
// optimistic lock coupling (generic_btree.h "optimistic reads"): a
// node's contents are trusted only once its version validates, every
// step into a node follows EnterNode's rule, and a query that cannot be
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

// Read protocols of the descents. Plain trusts what it reads (the caller
// keeps writers out). Optimistic validates node versions and reports
// conflicts (the caller holds an olc::EpochGuard pin); its Routed hook
// marks the window EnterNode closes, and its Entered hook the span from
// a node's entry to the validation that ends the reader's use of it;
// both are empty, so they compile away. A test protocol derived from
// Optimistic can run a writer there.
struct Plain {
  static constexpr bool kValidates = false;
};
struct Optimistic {
  static constexpr bool kValidates = true;
  static void Routed(bool /*to_leaf*/) {}
  static void Entered(bool /*leaf*/) {}
};

// Optimistic: how a reader steps into `node`. It reads the node's
// version, then validates again the version that routed it there
// (`guard` as of `guard_ver`): the parent's, the tree's for the root, or
// the leaf it leaves on a leaf-chain hop. A writer that changes which
// keys a node covers (a split, borrow or merge) holds the parent and the
// chain neighbours it rewires version-locked while it does; so when the
// guard still holds after the node's version is read, the node covers
// what the route promised, and validating that version later proves it
// still did while the reader was inside.
template <typename Protocol, typename Node>
bool EnterNode(const Node* node, const olc::VersionWord& guard,
               uint64_t guard_ver, uint64_t* ver) {
  Protocol::Routed(node->is_leaf);
  *ver = node->version.ReadBegin();
  if (!olc::VersionWord::IsStable(*ver) || !guard.Validate(guard_ver)) {
    return false;
  }
  Protocol::Entered(node->is_leaf);
  return true;
}

// Backstop against following garbage references in a cycle: no real
// descent is deeper than this (a height-40 tree would be astronomically
// large), so exceeding it means the snapshot is hopeless — the reader
// reports a conflict.
inline constexpr int kMaxOptimisticDepth = 40;

template <typename Tree>
class BatchDescent {
 public:
  using Key = typename Tree::KeyType;
  using Value = typename Tree::ValueType;
  using Iterator = typename Tree::ConstIterator;

  // Window bound of the interleaved descent, and the window of the
  // optimistic pass and of the grouped descent's runs: twice the `group`
  // bound, so a coalesced batch of a few dozen keys fits one window and
  // no query waits for a free slot behind the others' dependent misses.
  // FindBatch and LowerBoundBatch keep their `group` (at most
  // kMaxBatchGroup).
  static constexpr int kMaxInFlight = 2 * kMaxBatchGroup;

  // The interleaved descent: runs queries 0..n-1, query i on tree
  // *tree_of(i) (nullptr: left out, out[i] untouched), through a window
  // of `group` (at most kMaxInFlight) in-flight queries (see the file
  // comment). Out is const Value* (Plain find), Iterator (lower bound)
  // or std::optional<Value> (Optimistic find, which leaves conflicted
  // queries' out[i] untouched and appends them to *failed). Counters
  // accumulate nodes_visited exactly as the per-key FindCounted would.
  // The key store's comparison step is resolved once, here.
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

  // The grouped (level-wise) descent: sorts the batch once
  // (core/batch_sort.h) — unless it is already ascending, as a
  // ShardedIndex shard's cut of a batch it sorted is — then walks the
  // tree level by level with a frontier of (node, contiguous query run)
  // pairs (DescendRuns), and resolves each run in its leaf
  // (ResolveRuns). Each node is loaded and searched once per batch, and
  // each level's runs share one window (RunWindow). Out and *failed as
  // for Interleave; answers and logical counters are identical to it,
  // and counters->nodes_loaded counts each frontier node once, so
  // nodes_visited / nodes_loaded is the sharing factor the level-wise
  // traversal buys.
  template <typename Protocol, bool kLower, typename Out>
  static void Grouped(const Tree& tree, const Key* keys, size_t n, Out* out,
                      SearchCounters* counters, GroupedLevelStats* stats,
                      std::vector<uint32_t>* failed) {
    static_assert(!(Protocol::kValidates && kLower));
    if (n == 0) return;
    // The root, routed to by the tree's version.
    Run root{nullptr, &tree.tree_version_, 0, 0, static_cast<uint32_t>(n)};
    if constexpr (Protocol::kValidates) {
      root.guard_ver = tree.tree_version_.ReadBegin();
      root.node = tree.root_;
      if (!olc::VersionWord::IsStable(root.guard_ver) ||
          !tree.tree_version_.Validate(root.guard_ver)) {
        for (uint32_t i = 0; i < n; ++i) failed->push_back(i);
        return;
      }
    } else {
      root.node = tree.root_;
    }
    if (root.node == nullptr) {
      std::fill(out, out + n, Out{});
      return;
    }
    // Sorted query j is the caller's perm[j], or j when the batch came
    // sorted.
    SortedBatch<Key> sorted;
    const uint32_t* perm = nullptr;
    if (!std::is_sorted(keys, keys + n)) {
      SortBatchWithPermutation(keys, n, &sorted);
      keys = sorted.keys.data();
      perm = sorted.perm.data();
    }
    const auto fail = [&](uint32_t begin, uint32_t end) {
      for (uint32_t j = begin; j < end; ++j) {
        failed->push_back(CallerIndex(perm, j));
      }
    };
    std::vector<Run> frontier{root};
    DescendRuns<Protocol, kLower>(tree, keys, &frontier, counters, stats,
                                  fail);
    ResolveRuns<Protocol, kLower>(tree, keys, perm, frontier, out, counters,
                                  stats, fail);
  }

  // Traced grouped lookup: identical results to the Plain grouped find, plus
  // one trace whose per-level spans record the level's distinct
  // node-visit count (node_ref) and the batch size sharing the level
  // (group_size) — the flight-recorder view of the amortization.
  static void FindBatchGroupedTraced(const Tree& tree, const Key* keys,
                                     size_t n, const Value** out,
                                     SearchCounters* counters,
                                     obs::DescentTrace* t) {
    GroupedLevelStats stats;
    Grouped<Plain, false>(tree, keys, n, out, counters, &stats, nullptr);
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
  // disjoint subtrees), so one run == one physical node load. `guard`
  // as of `guard_ver` is the version that routed the run to `node`,
  // which Optimistic checks again on entering it (EnterNode).
  struct Run {
    const NodeBase* node;
    const olc::VersionWord* guard;
    uint64_t guard_ver;
    uint32_t begin;
    uint32_t end;
  };

  // --- interleaved descent: one query's turns -------------------------------

  using KeyStore = typename Tree::KeyStoreType;
  using Cursor = typename KeyStore::Cursor;

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

  template <typename Protocol, bool kLower, typename TreeOf, typename Out>
  static bool Start(Query& q, const TreeOf& tree_of, const Key* keys,
                    uint32_t id, Out* out, std::vector<uint32_t>* failed) {
    const Tree* tree = tree_of(id);
    if (tree == nullptr) return false;
    const NodeBase* root;
    if constexpr (Protocol::kValidates) {
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
    constexpr bool kOpt = Protocol::kValidates;
    switch (q.turn) {
      case Turn::kEnter: {
        // The hop prefetched the header together with the first key
        // lines (the root is hot), so the node's first comparison steps
        // run in this same turn. A turn or more passed since the route
        // was validated: EnterNode's re-check of the guard keeps a
        // split, merge or borrow in between out.
        if constexpr (kOpt) {
          if (!EnterNode<Protocol>(q.node, *q.guard, q.guard_ver, &q.ver)) {
            return Fail(q, failed);
          }
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
          // Validate the parent before decoding: a validated ref is a
          // real child ref of a consistent snapshot.
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
    if constexpr (Protocol::kValidates) {
      if (!EnterNode<Protocol>(prev, *q.guard, q.guard_ver, &q.ver)) {
        return Fail(q, failed);
      }
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
    constexpr bool kOpt = Protocol::kValidates;
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
  // Optimistic protocol copies the value out, proves a miss
  // (RightEdgeMissProven), and validates the leaf before committing.
  template <typename Protocol, typename Out>
  static bool Resolve(Query& q, const Key* keys, Out* out,
                      std::vector<uint32_t>* failed) {
    const LeafNode* leaf = static_cast<const LeafNode*>(q.node);
    const int64_t pos = q.cur.pos;
    const Key key = keys[q.id];
    const bool hit = leaf->keys.At(pos - 1) == key;
    if constexpr (Protocol::kValidates) {
      Value value{};
      if (hit) {
        value = leaf->values[static_cast<size_t>(pos - 1)];
      } else if (!q.tree->RightEdgeMissProven(leaf, pos, key)) {
        return Fail(q, failed);
      }
      if (!leaf->version.Validate(q.ver)) return Fail(q, failed);
      out[q.id] = hit ? std::optional<Value>(std::move(value)) : std::nullopt;
    } else {
      out[q.id] = hit ? &leaf->values[static_cast<size_t>(pos - 1)] : nullptr;
    }
    return true;
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

  static uint32_t CallerIndex(const uint32_t* perm, uint32_t j) {
    return perm != nullptr ? perm[j] : j;
  }

  // Prefetches every cache line of [begin, end).
  static void PrefetchLines(const void* begin, const void* end) {
    for (uintptr_t line = reinterpret_cast<uintptr_t>(begin) & ~uintptr_t{63};
         line < reinterpret_cast<uintptr_t>(end); line += 64) {
      Prefetch(reinterpret_cast<const void*>(line));
    }
  }

  // --- grouped descent: a level's runs through one window -------------------

  // Where an in-flight run resumes on its next turn.
  enum class RunTurn : uint8_t {
    kEnter,   // node header and first key lines (prefetched on admission):
              // enter the node, begin the first query's search
    kStep,    // the first query's next key line (prefetched)
    kFinish,  // what the rest of the run reads (prefetched): finish it
  };

  // One in-flight run of the grouped window.
  struct RunSlot {
    const Run* run;
    const KeyStore* keys;  // the node's key store
    Cursor cur;            // the run's first query; cur.pos is its rank
    uint64_t ver;          // node version read on entry (Optimistic)
    Key key;               // that query, or it - 1 for a lower bound
    RunTurn turn;
  };

  // Runs one frontier level — all inner nodes, or all leaves — through
  // a window of up to kMaxInFlight runs, one turn per run and round as
  // in Interleave. Admission prefetches the run's node header and the
  // key lines its search reads first. The first turn enters the node
  // (EnterNode; a conflict sends the run to fail(begin, end)) and
  // begins the search of the run's first query with the key store's
  // resumable cursor; each later turn takes that search one key line
  // further, prefetching the next. Once the first rank is known,
  // ranked(run, pos) prefetches what the rest of the run reads, and the
  // run's next turn calls finish(run, ver, pos), which partitions or
  // resolves the whole run against lines that are now cached.
  template <typename Protocol, bool kLower, typename Ranked, typename Finish,
            typename Fail>
  static void RunWindow(const Tree& tree, const Key* skeys,
                        const std::vector<Run>& runs, bool leaf,
                        SearchCounters* counters, const Ranked& ranked,
                        const Finish& finish, const Fail& fail) {
    const size_t header = leaf ? sizeof(LeafNode) : sizeof(InnerNode);
    const size_t keys_off = leaf ? tree.leaf_keys_off_ : tree.inner_keys_off_;
    const int64_t capacity =
        (leaf ? tree.leaf_ctx_ : tree.inner_ctx_)->capacity;
    KeyStore::WithCompareStep([&](const auto& step) {
      RunSlot slots[kMaxInFlight];
      size_t next = 0;
      const auto admit = [&](RunSlot& s) {
        if (next == runs.size()) return false;
        s.run = &runs[next++];
        s.turn = RunTurn::kEnter;
        const char* base = reinterpret_cast<const char*>(s.run->node);
        PrefetchLines(base, base + header);
        KeyStore::PrefetchTop(reinterpret_cast<const Key*>(base + keys_off),
                              capacity);
        return true;
      };
      // One turn of s; true while s stays in flight.
      const auto turn = [&](RunSlot& s) {
        const Run& run = *s.run;
        if (s.turn == RunTurn::kFinish) {
          finish(run, s.ver, s.cur.pos);
          return false;
        }
        bool searching = true;
        if (s.turn == RunTurn::kEnter) {
          if constexpr (Protocol::kValidates) {
            if (!EnterNode<Protocol>(run.node, *run.guard, run.guard_ver,
                                     &s.ver)) {
              fail(run.begin, run.end);
              return false;
            }
          }
          if (counters != nullptr) {
            counters->nodes_visited += run.end - run.begin;
            ++counters->nodes_loaded;
          }
          s.keys = leaf ? &static_cast<const LeafNode*>(run.node)->keys
                        : &static_cast<const InnerNode*>(run.node)->keys;
          s.key = skeys[run.begin];
          bool rank_zero = false;
          if constexpr (kLower) {
            rank_zero = s.key == std::numeric_limits<Key>::min();
            if (!rank_zero) --s.key;
          }
          searching = !rank_zero && s.keys->BeginUpperBound(&s.cur) != nullptr;
          if (!searching) s.cur.pos = 0;
          s.turn = RunTurn::kStep;
        }
        if (searching) {
          if (const Key* line = s.keys->StepUpperBound(s.key, &s.cur, step)) {
            Prefetch(line);
            return true;
          }
        }
        ranked(run, s.cur.pos);
        s.turn = RunTurn::kFinish;
        return true;
      };
      int live = 0;
      while (live < kMaxInFlight && admit(slots[live])) ++live;
      while (live > 0) {
        for (int w = 0; w < live;) {
          if (turn(slots[w]) || admit(slots[w])) {
            ++w;
          } else {
            slots[w] = slots[--live];
          }
        }
      }
    });
  }

  // Level-wise frontier walk to leaf level. kLower selects lower-bound
  // ranks for the descent (LowerBoundBatchGrouped), upper-bound ranks
  // otherwise; the run boundary under a separator s is therefore the
  // first query > s (lower) or >= s (upper). Each frontier node costs
  // one in-node search per child actually taken plus one binary split
  // per boundary — independent of the run's length. Once a run's first
  // rank is known its child reference is prefetched; the run then
  // partitions on the node it entered (Optimistic: EnterNode), and
  // Optimistic validates the node before decoding the child references
  // it took. A run that conflicts goes to fail(begin, end).
  template <typename Protocol, bool kLower, typename Fail>
  static void DescendRuns(const Tree& tree, const Key* skeys,
                          std::vector<Run>* frontier,
                          SearchCounters* counters, GroupedLevelStats* stats,
                          const Fail& fail) {
    constexpr bool kOpt = Protocol::kValidates;
    const int64_t inner_cap = tree.inner_ctx_->capacity;
    struct Part {
      typename Tree::NodeRef ref;
      uint32_t begin;
      uint32_t end;
    };
    std::vector<Part> parts;
    std::vector<Run> next;
    const auto ranked = [&](const Run& run, int64_t pos) {
      Prefetch(static_cast<const InnerNode*>(run.node)->children.data() +
               std::min(pos, inner_cap));
    };
    const auto finish = [&](const Run& run, uint64_t ver, int64_t first) {
      const InnerNode* inner = static_cast<const InnerNode*>(run.node);
      const int64_t sep_count = inner->keys.count();
      bool torn = kOpt && (sep_count < 0 || sep_count > inner_cap);
      parts.clear();
      for (uint32_t cur = run.begin; !torn && cur < run.end;) {
        const int64_t idx = cur == run.begin ? first
                            : kLower         ? inner->keys.LowerBound(skeys[cur])
                                             : inner->keys.UpperBound(skeys[cur]);
        if (kOpt && (idx < 0 || idx > sep_count)) {
          torn = true;
          break;
        }
        uint32_t sub_end = run.end;
        if (idx < sep_count) {
          const Key sep = inner->keys.At(idx);
          sub_end = static_cast<uint32_t>(
              (kLower ? std::upper_bound(skeys + cur + 1, skeys + run.end, sep)
                      : std::lower_bound(skeys + cur + 1, skeys + run.end,
                                         sep)) -
              skeys);
        }
        parts.push_back(
            Part{inner->children[static_cast<size_t>(idx)], cur, sub_end});
        cur = sub_end;
      }
      if (kOpt && (torn || !inner->version.Validate(ver))) {
        fail(run.begin, run.end);
        return;
      }
      for (const Part& p : parts) {
        const NodeBase* child =
            kOpt ? tree.DecodeRefOptimistic(p.ref) : tree.DecodeRef(p.ref);
        if (kOpt && child == nullptr) {
          fail(p.begin, p.end);
          continue;
        }
        Prefetch(child);
        next.push_back(Run{child, &inner->version, ver, p.begin, p.end});
      }
    };
    for (int depth = 1;
         !frontier->empty() && !(*frontier)[0].node->is_leaf; ++depth) {
      if (kOpt && depth > kMaxOptimisticDepth) {
        for (const Run& run : *frontier) fail(run.begin, run.end);
        frontier->clear();
        return;
      }
      const uint64_t start = stats != nullptr ? CycleTimer::Now() : 0;
      next.clear();
      RunWindow<Protocol, kLower>(tree, skeys, *frontier, /*leaf=*/false,
                                  counters, ranked, finish, fail);
      RecordLevel(stats, frontier->size(), start);
      frontier->swap(next);
    }
  }

  // Leaf level: each run's queries are resolved in the run's leaf as
  // Tree::FindLeafPos and LowerBoundIter resolve one key — a find may
  // step into the previous leaf, a lower bound into the next — and a
  // query equal to the one before it (adjacent after the sort) reuses
  // its answer. Once a find run's first rank is known, the value lines
  // the run reads are prefetched (and the previous leaf's header when
  // the first query steps there). Optimistic enters the leaf, and at
  // most once per run the neighbour, under EnterNode's rule, copies the
  // run's answers out on that snapshot, and commits them only once both
  // leaves validate and every miss is proven (RightEdgeMissProven).
  // Sorted query j answers the caller's query CallerIndex(perm, j).
  template <typename Protocol, bool kLower, typename Out, typename Fail>
  static void ResolveRuns(const Tree& tree, const Key* skeys,
                          const uint32_t* perm,
                          const std::vector<Run>& frontier, Out* out,
                          SearchCounters* counters, GroupedLevelStats* stats,
                          const Fail& fail) {
    constexpr bool kOpt = Protocol::kValidates;
    const int64_t leaf_cap = tree.leaf_ctx_->capacity;
    const uint64_t start = stats != nullptr ? CycleTimer::Now() : 0;
    std::vector<Out> answers;  // Optimistic: the run's answers until commit
    const auto ranked = [&](const Run& run, int64_t pos) {
      if constexpr (!kLower) {
        const LeafNode* leaf = static_cast<const LeafNode*>(run.node);
        if (pos == 0) Prefetch(leaf->prev);
        const int64_t lo = std::clamp<int64_t>(pos - 1, 0, leaf_cap);
        const int64_t hi = std::min<int64_t>(lo + (run.end - run.begin),
                                             leaf_cap);
        PrefetchLines(leaf->values.data() + lo, leaf->values.data() + hi);
      }
    };
    const auto finish = [&](const Run& run, uint64_t ver, int64_t first) {
      const LeafNode* leaf0 = static_cast<const LeafNode*>(run.node);
      if constexpr (kOpt) answers.assign(run.end - run.begin, Out{});
      // The neighbour the run's queries step into, read (and entered) on
      // the first step.
      const LeafNode* side = nullptr;
      uint64_t side_ver = 0;
      bool side_read = false;
      bool ok = true;
      Key last_q{};
      Out last{};
      bool last_stepped = false;
      for (uint32_t j = run.begin; j < run.end; ++j) {
        Out& dst = kOpt ? answers[j - run.begin] : out[CallerIndex(perm, j)];
        const Key q = skeys[j];
        if (j > run.begin && q == last_q) {
          dst = last;
          if (counters != nullptr && last_stepped) ++counters->nodes_visited;
          continue;
        }
        last_q = q;
        last_stepped = false;
        const LeafNode* leaf = leaf0;
        int64_t pos = j == run.begin ? first
                      : kLower       ? leaf->keys.LowerBound(q)
                                     : leaf->keys.UpperBound(q);
        if (kOpt && (pos < 0 || pos > leaf_cap)) {
          ok = false;
          break;
        }
        // A lower bound past the leaf starts in the next leaf; a find at
        // rank 0 has its occurrence, if any, at the end of the previous.
        if (kLower ? pos >= leaf->keys.count() : pos == 0) {
          if (!side_read) {
            side = kLower ? leaf0->next : leaf0->prev;
            side_read = true;
            if constexpr (kOpt) {
              if (!leaf0->version.Validate(ver) ||
                  (side != nullptr &&
                   !EnterNode<Protocol>(side, leaf0->version, ver,
                                        &side_ver))) {
                ok = false;
                break;
              }
            }
            if (side != nullptr && counters != nullptr) {
              ++counters->nodes_loaded;
            }
          }
          leaf = side;
          pos = 0;
          if (leaf != nullptr) {
            last_stepped = true;
            if (counters != nullptr) ++counters->nodes_visited;
            if constexpr (!kLower) pos = leaf->keys.count();
            if (kOpt && (pos <= 0 || pos > leaf_cap)) {
              ok = false;
              break;
            }
          }
        }
        if constexpr (kLower) {
          last = leaf != nullptr ? Iterator(leaf, pos) : Iterator();
        } else if constexpr (kOpt) {
          last = std::nullopt;
          if (leaf != nullptr) {
            if (leaf->keys.At(pos - 1) == q) {
              last = leaf->values[static_cast<size_t>(pos - 1)];
            } else if (!tree.RightEdgeMissProven(leaf, pos, q)) {
              ok = false;
              break;
            }
          }
        } else {
          last = leaf != nullptr && leaf->keys.At(pos - 1) == q
                     ? &leaf->values[static_cast<size_t>(pos - 1)]
                     : nullptr;
        }
        dst = last;
      }
      if constexpr (kOpt) {
        if (!ok || !leaf0->version.Validate(ver) ||
            (side != nullptr && !side->version.Validate(side_ver))) {
          fail(run.begin, run.end);
          return;
        }
        for (uint32_t j = run.begin; j < run.end; ++j) {
          out[CallerIndex(perm, j)] = std::move(answers[j - run.begin]);
        }
      }
    };
    RunWindow<Protocol, kLower>(tree, skeys, frontier, /*leaf=*/true,
                                counters, ranked, finish, fail);
    RecordLevel(stats, frontier.size(), start);
  }
};

}  // namespace simdtree::btree

#endif  // SIMDTREE_BTREE_BATCH_DESCENT_H_
