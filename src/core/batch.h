// Shared knobs for the batched-lookup subsystem.
//
// Every batched search in the library keeps G independent queries in
// flight and prefetches each query's next memory target before it is
// needed, so the G misses overlap in the memory system: the k-ary arrays
// (kary/batch_search.h) and the Seg-Trie's FindBatch advance the group
// in lockstep one level at a time; the B+-tree family
// (btree/batch_descent.h) interleaves G per-query state machines, one
// comparison step or node hop per turn.
//
// G trades memory-level parallelism against register pressure and
// line-fill-buffer occupancy: one x86 core sustains roughly 10-16
// outstanding L1 misses, so groups in the 8-16 range capture most of the
// available overlap, and larger groups only add state. The default of 12
// leaves headroom for the demand loads of the searches themselves;
// bench/bb_batch_lookup sweeps the choice.

#ifndef SIMDTREE_CORE_BATCH_H_
#define SIMDTREE_CORE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

namespace simdtree {

// Upper bound of the `group` argument (fixed state-array dimension in
// the batched search loops).
inline constexpr int kMaxBatchGroup = 16;

// Default in-flight group size.
inline constexpr int kDefaultBatchGroup = 12;

inline constexpr int ClampBatchGroup(int group) {
  return group < 1 ? 1 : (group > kMaxBatchGroup ? kMaxBatchGroup : group);
}

// Read prefetch into all cache levels. Prefetches never fault, so the
// out-of-range addresses a pruned or finished query can compute are safe
// to issue.
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 3); }

// Whether two addresses share a 64-byte cache line. An in-node search
// step that reads the line the previous step read cannot miss, so the
// resumable searches (the key stores' StepUpperBound) take it at once.
inline bool SameCacheLine(const void* a, const void* b) {
  return reinterpret_cast<uintptr_t>(a) / 64 ==
         reinterpret_cast<uintptr_t>(b) / 64;
}

// In-level lookahead distance for the grouped run loops of the k-ary
// arrays (kary/batch_search.h) and the Seg-Trie: while run i's node is
// being searched, run i + kGroupedRunLookahead's node is prefetched. The
// push-time child prefetch covers small frontiers, but once a level
// holds more runs than the core's line fill buffers those early
// prefetches are dropped or evicted before use and the level's loads
// serialize; the lookahead re-issues each prefetch a fixed (LFB-sized)
// distance ahead of its consumer, restoring the overlap. (The B+-tree
// family's grouped descent runs each level through a window of runs
// instead, btree/batch_descent.h.)
inline constexpr size_t kGroupedRunLookahead = 8;

// --- per-query vs grouped descent crossover --------------------------------
//
// The grouped (level-wise) descent sorts the batch once and visits each
// frontier node once, amortizing node loads across the queries routed to
// it. The amortization only pays when the batch is large relative to the
// structure's depth: the sort is O(n) extra work and the upper levels
// only share once n exceeds their node count. Empirically (see
// bench/bb_batch_lookup and DESIGN.md "Batched traversal") the grouped
// path wins once the batch carries roughly this many queries per level;
// below it, the per-query (pipelined or interleaved) path's simplicity
// wins.
inline constexpr int kGroupedMinBatchPerLevel = 96;

// Heuristic switch shared by the wrappers and the CLI: grouped descent
// when the batch is deep enough to amortize, per-query otherwise.
inline constexpr bool UseGroupedDescent(size_t n, int levels) {
  return levels > 0 &&
         n >= static_cast<size_t>(levels) *
                  static_cast<size_t>(kGroupedMinBatchPerLevel);
}

// Structure depth for the heuristic, duck-typed over the index families:
// trees report height(), tries report active_levels(), everything else
// defaults to 1 level.
template <typename Index>
constexpr int BatchLevels(const Index& index) {
  if constexpr (requires { index.height(); }) {
    return static_cast<int>(index.height());
  } else if constexpr (requires { index.active_levels(); }) {
    return index.active_levels();
  } else {
    return 1;
  }
}

// Whether the index exposes the grouped batched lookup (the trees and
// tries do; arbitrary wrapped indexes need not).
template <typename Index, typename K, typename V>
concept HasGroupedFindBatch =
    requires(const Index& index, const K* keys, size_t n, const V** out) {
      index.FindBatchGrouped(keys, n, out);
    };

// Whether the index exposes the optimistic-lock-coupling read paths
// (generic_btree.h "optimistic reads"): the arming call plus the
// version-validated single / batched / range reads the concurrency
// wrapper routes lock-free reads through — among them the interleaved
// pass whose queries each pick their own index (one per shard).
template <typename Index, typename K, typename V>
concept HasOptimisticReads =
    requires(Index& index, const Index& cindex, K key, size_t n,
             std::optional<V>* out, std::vector<uint32_t>* failed,
             const Index* (*index_of)(uint32_t)) {
      { index.EnableConcurrentReads() } -> std::convertible_to<bool>;
      cindex.FindOptimistic(key, out);
      Index::FindBatchOptimisticOver(index_of, &key, n, out, failed);
      cindex.FindBatchGroupedOptimistic(&key, n, out, failed);
      { cindex.height_hint() } -> std::convertible_to<int>;
    };

// Structure depth for the optimistic batch heuristic: the lock-free
// paths must not walk the structure (height() chases child pointers
// without validation), so they use the writer-maintained atomic hint.
template <typename Index>
int OptimisticLevels(const Index& index) {
  if constexpr (requires { index.height_hint(); }) {
    return index.height_hint();
  } else {
    return 1;
  }
}

}  // namespace simdtree

#endif  // SIMDTREE_CORE_BATCH_H_
