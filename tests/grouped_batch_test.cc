// Differential coverage for the grouped (level-wise) batched descent:
// sort the batch once, visit each node once (kary/batch_search.h,
// btree/batch_descent.h, segtrie/segtrie.h FindBatchGrouped). The
// grouped engine reorders the work radically — sorted probes, frontier
// runs, one load per node — but must agree element-for-element with the
// single-query paths and report exactly the summed single-query logical
// cost in SearchCounters; the physical amortization is visible only in
// the separate nodes_loaded field. Batch sizes cover the degenerate
// (0, 1), the chunk boundary of the pipelined path (255, 256), and a
// size where every tree level is shared (4096); probe sets cover
// duplicates, misses, key neighbours, type extremes, and already-sorted
// and reverse-sorted input orders.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "btree/btree.h"
#include "core/batch.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "kary/batch_search.h"
#include "kary/kary_array.h"
#include "kary/kary_search.h"
#include "kary/linearize.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "simd/bitmask_eval.h"
#include "simd/simd256.h"
#include "util/counters.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using kary::KaryArray;
using kary::Layout;
using kary::Storage;
using simd::Backend;

constexpr size_t kGroupedBatchSizes[] = {0, 1, 255, 256, 4096};

// Probes covering hits, misses, neighbours of keys, and type extremes.
template <typename T>
std::vector<T> MakeProbes(const std::vector<T>& keys, size_t count,
                          Rng& rng) {
  std::vector<T> probes;
  if (count == 0) return probes;
  probes = {std::numeric_limits<T>::min(), std::numeric_limits<T>::max(),
            T{0}};
  for (T k : keys) {
    probes.push_back(k);
    if (k != std::numeric_limits<T>::min())
      probes.push_back(static_cast<T>(k - 1));
    if (k != std::numeric_limits<T>::max())
      probes.push_back(static_cast<T>(k + 1));
  }
  while (probes.size() < count) probes.push_back(static_cast<T>(rng.Next()));
  probes.resize(count);
  return probes;
}

// The three input orders the sort must be indifferent to.
enum class ProbeOrder { kShuffled, kSorted, kReversed };

template <typename T>
void ApplyOrder(std::vector<T>* probes, ProbeOrder order) {
  if (order == ProbeOrder::kSorted) {
    std::sort(probes->begin(), probes->end());
  } else if (order == ProbeOrder::kReversed) {
    std::sort(probes->begin(), probes->end(), std::greater<T>());
  }
}

// --- KaryArray grouped vs std:: oracle and counted singles ----------------

template <typename T, typename Eval, Backend B, int kBits>
void CheckKaryGrouped(const std::vector<T>& keys, Layout layout,
                      Storage storage) {
  KaryArray<T, kBits> arr(keys, layout, storage);
  // Rebuild the linearized array exactly as KaryArray does, so the
  // low-level counted singles can serve as the cost oracle.
  kary::KaryShape shape = kary::KaryShape::For(
      simd::LaneTraits<T, kBits>::kArity, keys.empty() ? 1 : keys.size());
  const kary::KaryLayout kl(shape, layout);
  const int64_t stored =
      kl.StoredSlots(static_cast<int64_t>(keys.size()), storage);
  std::vector<T> lin(static_cast<size_t>(stored));
  kl.Linearize(keys.data(), static_cast<int64_t>(keys.size()), lin.data(),
               stored, kary::PadValue<T>());
  const int64_t n = static_cast<int64_t>(keys.size());

  Rng rng(101);
  for (size_t batch : kGroupedBatchSizes) {
    for (ProbeOrder order : {ProbeOrder::kShuffled, ProbeOrder::kSorted,
                             ProbeOrder::kReversed}) {
      auto probes = MakeProbes<T>(keys, batch, rng);
      ApplyOrder(&probes, order);

      SearchCounters want;
      std::vector<int64_t> want_ub(batch);
      for (size_t i = 0; i < batch; ++i) {
        want_ub[i] = layout == Layout::kBreadthFirst
                         ? kary::UpperBoundBfCounted<T, Eval, B, kBits>(
                               lin.data(), stored, n, probes[i], &want)
                         : kary::UpperBoundDfCounted<T, Eval, B, kBits>(
                               lin.data(), stored, n, probes[i], &want);
      }

      std::vector<int64_t> ub(batch);
      SearchCounters got;
      arr.template UpperBoundBatchGrouped<Eval, B>(probes.data(), batch,
                                                   ub.data(), &got);
      for (size_t i = 0; i < batch; ++i) {
        const int64_t want_std =
            std::upper_bound(keys.begin(), keys.end(), probes[i]) -
            keys.begin();
        ASSERT_EQ(ub[i], want_ub[i])
            << "batch=" << batch << " order=" << static_cast<int>(order)
            << " i=" << i << " v=" << static_cast<int64_t>(probes[i]);
        ASSERT_EQ(ub[i], want_std) << "batch=" << batch << " i=" << i;
      }
      EXPECT_EQ(got.simd_comparisons, want.simd_comparisons)
          << "batch=" << batch << " order=" << static_cast<int>(order);
      if (batch > 0 && n > 0) {
        EXPECT_GT(got.nodes_loaded, 0u);
        // Physical loads never exceed the logical per-query level work.
        EXPECT_LE(got.nodes_loaded, got.simd_comparisons + batch);
      }

      // Lower bound: grouped vs std::lower_bound, cost vs the pipelined
      // path (both synthesize from the same per-query upper bounds).
      std::vector<int64_t> lb(batch), lb_pipe(batch);
      SearchCounters got_lb, want_lb;
      arr.template LowerBoundBatchGrouped<Eval, B>(probes.data(), batch,
                                                   lb.data(), &got_lb);
      arr.template LowerBoundBatch<Eval, B>(probes.data(), batch,
                                            lb_pipe.data(),
                                            kDefaultBatchGroup, &want_lb);
      for (size_t i = 0; i < batch; ++i) {
        const int64_t want_std =
            std::lower_bound(keys.begin(), keys.end(), probes[i]) -
            keys.begin();
        ASSERT_EQ(lb[i], want_std) << "batch=" << batch << " i=" << i;
        ASSERT_EQ(lb[i], lb_pipe[i]) << "batch=" << batch << " i=" << i;
      }
      EXPECT_EQ(got_lb.simd_comparisons, want_lb.simd_comparisons)
          << "batch=" << batch;
    }
  }
}

template <typename T, typename Eval, Backend B, int kBits>
void CheckKaryGroupedAllShapes() {
  Rng rng(2014);
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{17}, int64_t{1000}}) {
    std::vector<T> keys(static_cast<size_t>(n));
    for (auto& k : keys) k = static_cast<T>(rng.Next());
    std::sort(keys.begin(), keys.end());
    CheckKaryGrouped<T, Eval, B, kBits>(keys, Layout::kBreadthFirst,
                                        Storage::kTruncated);
    CheckKaryGrouped<T, Eval, B, kBits>(keys, Layout::kBreadthFirst,
                                        Storage::kPerfect);
    CheckKaryGrouped<T, Eval, B, kBits>(keys, Layout::kDepthFirst,
                                        Storage::kPerfect);
    // Heavy duplication: few distinct values.
    for (auto& k : keys) k = static_cast<T>(rng.NextBounded(5) * 7);
    std::sort(keys.begin(), keys.end());
    CheckKaryGrouped<T, Eval, B, kBits>(keys, Layout::kBreadthFirst,
                                        Storage::kTruncated);
    CheckKaryGrouped<T, Eval, B, kBits>(keys, Layout::kDepthFirst,
                                        Storage::kPerfect);
  }
}

TEST(GroupedKaryTest, Sse128AllLayouts) {
  if constexpr (simd::kHaveSse) {
    CheckKaryGroupedAllShapes<uint32_t, simd::PopcountEval, Backend::kSse,
                              128>();
  }
}

TEST(GroupedKaryTest, Scalar128AllLayouts) {
  CheckKaryGroupedAllShapes<uint32_t, simd::PopcountEval, Backend::kScalar,
                            128>();
  CheckKaryGroupedAllShapes<uint32_t, simd::BitShiftEval, Backend::kScalar,
                            128>();
}

TEST(GroupedKaryTest, OtherKeyWidths) {
  CheckKaryGroupedAllShapes<uint8_t, simd::PopcountEval,
                            simd::kDefaultBackend, 128>();
  CheckKaryGroupedAllShapes<int16_t, simd::PopcountEval,
                            simd::kDefaultBackend, 128>();
  CheckKaryGroupedAllShapes<int64_t, simd::PopcountEval,
                            simd::kDefaultBackend, 128>();
}

TEST(GroupedKaryTest, Width256) {
  CheckKaryGroupedAllShapes<uint32_t, simd::PopcountEval, Backend::kScalar,
                            256>();
#if defined(__AVX2__)
  CheckKaryGroupedAllShapes<uint32_t, simd::PopcountEval, Backend::kSse,
                            256>();
#endif
  // Runtime dispatch: native on AVX2 hosts, scalar image elsewhere —
  // identical answers either way.
  CheckKaryGroupedAllShapes<uint32_t, simd::PopcountEval,
                            simd::kDefaultBackend, 256>();
}

TEST(GroupedKaryTest, Width512) {
  // The scalar 512-bit image (k = 65/33/17/9) runs on any hardware; the
  // dispatch backend upgrades to native EVEX kernels on AVX-512 hosts.
  CheckKaryGroupedAllShapes<uint32_t, simd::PopcountEval, Backend::kScalar,
                            512>();
  CheckKaryGroupedAllShapes<uint32_t, simd::PopcountEval,
                            simd::kDefaultBackend, 512>();
  CheckKaryGroupedAllShapes<int64_t, simd::SwitchCaseEval,
                            simd::kDefaultBackend, 512>();
}

// --- Tree FindBatchGrouped / LowerBoundBatchGrouped -----------------------

template <typename TreeT, typename Key>
void CheckTreeGrouped(const TreeT& tree, const std::vector<Key>& keys) {
  Rng rng(7);
  for (size_t batch : kGroupedBatchSizes) {
    for (ProbeOrder order : {ProbeOrder::kShuffled, ProbeOrder::kSorted,
                             ProbeOrder::kReversed}) {
      auto probes = MakeProbes<Key>(keys, batch, rng);
      ApplyOrder(&probes, order);

      // Result parity with the single-query paths.
      std::vector<const uint64_t*> found(batch);
      std::vector<typename TreeT::ConstIterator> lbs(batch);
      tree.FindBatchGrouped(probes.data(), batch, found.data());
      tree.LowerBoundBatchGrouped(probes.data(), batch, lbs.data());
      for (size_t i = 0; i < batch; ++i) {
        const auto want = tree.Find(probes[i]);
        ASSERT_EQ(found[i] != nullptr, want.has_value())
            << "batch=" << batch << " order=" << static_cast<int>(order)
            << " i=" << i;
        if (want.has_value()) {
          ASSERT_EQ(*found[i], *want) << "batch=" << batch << " i=" << i;
        }
        const auto want_it = tree.LowerBoundIter(probes[i]);
        ASSERT_EQ(lbs[i].valid(), want_it.valid())
            << "batch=" << batch << " i=" << i;
        if (want_it.valid()) {
          ASSERT_EQ(lbs[i].key(), want_it.key()) << "i=" << i;
          ASSERT_EQ(lbs[i].value(), want_it.value()) << "i=" << i;
        }
      }

      // Logical cost parity with summed counted singles; the physical
      // amortization (nodes_loaded) never exceeds the logical visits.
      SearchCounters want_c;
      for (Key p : probes) tree.FindCounted(p, &want_c);
      SearchCounters got_c;
      tree.FindBatchGrouped(probes.data(), batch, found.data(), &got_c);
      EXPECT_EQ(got_c.nodes_visited, want_c.nodes_visited)
          << "batch=" << batch << " order=" << static_cast<int>(order);
      if (batch > 0 && !keys.empty()) {
        EXPECT_GT(got_c.nodes_loaded, 0u);
        EXPECT_LE(got_c.nodes_loaded, got_c.nodes_visited);
      }

      // LowerBound cost contract: identical logical work to the
      // pipelined batch (which is itself group-invariant).
      SearchCounters lb_grouped, lb_pipe;
      tree.LowerBoundBatchGrouped(probes.data(), batch, lbs.data(),
                                  &lb_grouped);
      tree.LowerBoundBatch(probes.data(), batch, lbs.data(),
                           kDefaultBatchGroup, &lb_pipe);
      EXPECT_EQ(lb_grouped.nodes_visited, lb_pipe.nodes_visited)
          << "batch=" << batch << " order=" << static_cast<int>(order);
    }
  }
}

template <typename TreeT>
void CheckTreeGroupedAllShapes() {
  using Key = typename TreeT::KeyType;
  // Empty tree: everything misses, nothing is loaded.
  {
    TreeT tree(16);
    const Key probes[3] = {Key{0}, Key{1}, Key{42}};
    const uint64_t* out[3];
    typename TreeT::ConstIterator its[3];
    SearchCounters c;
    tree.FindBatchGrouped(probes, 3, out, &c);
    tree.LowerBoundBatchGrouped(probes, 3, its);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(out[i], nullptr);
      EXPECT_FALSE(its[i].valid());
    }
    EXPECT_EQ(c.nodes_loaded, 0u);
  }
  Rng rng(13);
  // Incrementally built with duplicates (multimap), small fanout for
  // depth; then a bulk-loaded larger tree.
  {
    TreeT tree(8);
    std::vector<Key> keys;
    for (int i = 0; i < 3000; ++i) {
      const Key k = static_cast<Key>(rng.NextBounded(1200));
      keys.push_back(k);
      tree.Insert(k, static_cast<uint64_t>(i));
    }
    std::sort(keys.begin(), keys.end());
    CheckTreeGrouped(tree, keys);
  }
  {
    std::vector<Key> keys(20000);
    for (auto& k : keys) k = static_cast<Key>(rng.Next());
    std::sort(keys.begin(), keys.end());
    std::vector<uint64_t> values(keys.size());
    for (size_t i = 0; i < values.size(); ++i) values[i] = i;
    TreeT tree = TreeT::BulkLoad(keys.data(), values.data(), keys.size());
    CheckTreeGrouped(tree, keys);
  }
}

TEST(GroupedTreeTest, PlainBPlusTreeBinary) {
  CheckTreeGroupedAllShapes<btree::BPlusTree<uint32_t, uint64_t>>();
}

TEST(GroupedTreeTest, PlainBPlusTreeSequential) {
  CheckTreeGroupedAllShapes<
      btree::BPlusTree<uint32_t, uint64_t, btree::SequentialSearchTag>>();
}

TEST(GroupedTreeTest, SegTreeBreadthFirst) {
  CheckTreeGroupedAllShapes<
      segtree::SegTree<uint32_t, uint64_t, Layout::kBreadthFirst>>();
}

TEST(GroupedTreeTest, SegTreeDepthFirst) {
  CheckTreeGroupedAllShapes<
      segtree::SegTree<uint32_t, uint64_t, Layout::kDepthFirst>>();
}

TEST(GroupedTreeTest, SegTreeEvalAndBackendCombos) {
  CheckTreeGroupedAllShapes<segtree::SegTree<
      uint32_t, uint64_t, Layout::kBreadthFirst, simd::BitShiftEval,
      Backend::kScalar>>();
  CheckTreeGroupedAllShapes<segtree::SegTree<
      uint64_t, uint64_t, Layout::kBreadthFirst, simd::PopcountEval,
      simd::kDefaultBackend>>();
#if defined(__AVX2__)
  CheckTreeGroupedAllShapes<segtree::SegTree<
      uint32_t, uint64_t, Layout::kBreadthFirst, simd::PopcountEval,
      Backend::kSse, 256>>();
#endif
}

// --- the grouped window: frontier sizes around kMaxInFlight ---------------
//
// The grouped descent runs each level's runs through a window of
// kMaxInFlight (W) runs. Batches whose leaf level and the level above it
// hold exactly 1, W - 1, W, W + 1 and 4W runs fill the window partly,
// exactly, once over, and many times over. Every run ends on a leaf
// boundary: its leaf lost its first key (a stale separator, so a find
// steps into the previous leaf), and its last probe lies past the
// leaf's last key (a lower bound steps into the next leaf). Runs carry a
// duplicate probe, and run 0 the type minimum.

template <typename TreeT>
void CheckWindowFrontiers() {
  using Key = typename TreeT::KeyType;
  constexpr size_t kWindow =
      static_cast<size_t>(btree::BatchDescent<typename TreeT::Base>::kMaxInFlight);
  // Capacity 8: full leaves of 8 keys, inner nodes of 9 children; 9^4
  // leaves, so the leaves at stride 9 chosen below have distinct parents.
  constexpr int64_t kCap = 8;
  constexpr size_t kLeaves = 9 * 9 * 9 * 9;
  const auto key_at = [](size_t i) { return static_cast<Key>(3 * i); };
  std::vector<Key> keys;
  std::vector<uint64_t> values;
  for (size_t i = 0; i < kLeaves * kCap; ++i) {
    keys.push_back(key_at(i));
    values.push_back(i);
  }
  TreeT tree = TreeT::BulkLoad(keys.data(), values.data(), keys.size(), 1.0,
                               kCap);
  Rng rng(97);
  for (const size_t runs :
       {size_t{1}, kWindow - 1, kWindow, kWindow + 1, 4 * kWindow}) {
    SCOPED_TRACE(runs);
    // Leaf l = 9r of run r holds keys key_at(8l .. 8l + 7).
    std::vector<Key> probes = {std::numeric_limits<Key>::min()};
    for (size_t r = 0; r < runs; ++r) {
      const size_t first = 9 * r * kCap;
      if (r > 0 && tree.Erase(key_at(first))) {
        probes.push_back(key_at(first));  // erased: previous-leaf step
      }
      probes.push_back(static_cast<Key>(key_at(first) + 1));
      probes.push_back(key_at(first + 4));
      probes.push_back(key_at(first + 4));  // duplicate
      probes.push_back(static_cast<Key>(key_at(first + kCap - 1) + 1));
    }
    ASSERT_TRUE(tree.Validate());
    std::shuffle(probes.begin(), probes.end(), rng);
    const size_t n = probes.size();

    // The leaf level and the level above it hold one run per chosen leaf.
    std::vector<const uint64_t*> found(n);
    obs::DescentTrace trace;
    tree.FindBatchGroupedTraced(probes.data(), n, found.data(), nullptr,
                                &trace);
    ASSERT_GE(trace.levels, 2);
    EXPECT_EQ(trace.level[trace.levels - 1].node_ref, runs);
    EXPECT_EQ(trace.level[trace.levels - 2].node_ref, runs);

    std::vector<typename TreeT::ConstIterator> lbs(n);
    tree.LowerBoundBatchGrouped(probes.data(), n, lbs.data());
    size_t steps = 0;
    const int height = tree.height();
    for (size_t i = 0; i < n; ++i) {
      const auto want = tree.Find(probes[i]);
      ASSERT_EQ(found[i] != nullptr, want.has_value()) << "i=" << i;
      if (want.has_value()) {
        ASSERT_EQ(*found[i], *want) << "i=" << i;
      }
      const auto want_it = tree.LowerBoundIter(probes[i]);
      ASSERT_TRUE(lbs[i] == want_it) << "i=" << i;
      SearchCounters c;
      tree.FindCounted(probes[i], &c);
      if (c.nodes_visited > static_cast<uint64_t>(height)) ++steps;
    }
    if (runs > 1) {
      EXPECT_GT(steps, 0u);
    }

    SearchCounters want_c, got_c, lb_grouped, lb_pipe;
    for (const Key p : probes) tree.FindCounted(p, &want_c);
    tree.FindBatchGrouped(probes.data(), n, found.data(), &got_c);
    EXPECT_EQ(got_c.nodes_visited, want_c.nodes_visited);
    tree.LowerBoundBatchGrouped(probes.data(), n, lbs.data(), &lb_grouped);
    tree.LowerBoundBatch(probes.data(), n, lbs.data(), kDefaultBatchGroup,
                         &lb_pipe);
    EXPECT_EQ(lb_grouped.nodes_visited, lb_pipe.nodes_visited);

    if (tree.EnableConcurrentReads()) {
      olc::EpochGuard pin;
      std::vector<std::optional<uint64_t>> opt(n);
      std::vector<uint32_t> failed;
      tree.FindBatchGroupedOptimistic(probes.data(), n, opt.data(), &failed);
      EXPECT_TRUE(failed.empty());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(opt[i], tree.Find(probes[i])) << "i=" << i;
      }
    }
  }
}

TEST(GroupedWindowTest, PlainBPlusTree) {
  CheckWindowFrontiers<btree::BPlusTree<uint32_t, uint64_t>>();
}

TEST(GroupedWindowTest, SegTreeBreadthFirst) {
  CheckWindowFrontiers<
      segtree::SegTree<uint32_t, uint64_t, Layout::kBreadthFirst>>();
}

TEST(GroupedWindowTest, SegTreeDepthFirstSigned) {
  CheckWindowFrontiers<
      segtree::SegTree<int64_t, uint64_t, Layout::kDepthFirst>>();
}

// --- Seg-Trie FindBatchGrouped --------------------------------------------

template <typename TrieT>
void CheckTrieGrouped() {
  using Key = typename TrieT::KeyType;
  TrieT trie;
  // Empty trie: everything misses.
  {
    const Key probes[2] = {Key{0}, Key{77}};
    const uint64_t* out[2];
    SearchCounters c;
    trie.FindBatchGrouped(probes, 2, out, &c);
    EXPECT_EQ(out[0], nullptr);
    EXPECT_EQ(out[1], nullptr);
    EXPECT_EQ(c.nodes_loaded, 0u);
  }
  Rng rng(23);
  std::vector<Key> keys;
  for (int i = 0; i < 4000; ++i) {
    // Dense low keys, shared-prefix clusters, and full-width keys so
    // lookups terminate at different trie levels.
    Key k;
    switch (i % 3) {
      case 0: k = static_cast<Key>(rng.NextBounded(2048)); break;
      case 1:
        k = static_cast<Key>(Key{0xAB} << (sizeof(Key) * 8 - 8)) |
            static_cast<Key>(rng.NextBounded(4096));
        break;
      default: k = static_cast<Key>(rng.Next()); break;
    }
    keys.push_back(k);
    trie.Insert(k, static_cast<uint64_t>(i));
  }
  for (size_t batch : kGroupedBatchSizes) {
    for (ProbeOrder order : {ProbeOrder::kShuffled, ProbeOrder::kSorted,
                             ProbeOrder::kReversed}) {
      auto probes = MakeProbes<Key>(keys, batch, rng);
      ApplyOrder(&probes, order);
      std::vector<const uint64_t*> out(batch);
      trie.FindBatchGrouped(probes.data(), batch, out.data());
      for (size_t i = 0; i < batch; ++i) {
        const auto want = trie.Find(probes[i]);
        ASSERT_EQ(out[i] != nullptr, want.has_value())
            << "batch=" << batch << " order=" << static_cast<int>(order)
            << " i=" << i;
        if (want.has_value()) {
          ASSERT_EQ(*out[i], *want) << "i=" << i;
        }
      }
      // Full logical cost parity with summed counted singles.
      SearchCounters want_c;
      for (Key p : probes) trie.FindCounted(p, &want_c);
      SearchCounters got_c;
      trie.FindBatchGrouped(probes.data(), batch, out.data(), &got_c);
      EXPECT_EQ(got_c.nodes_visited, want_c.nodes_visited)
          << "batch=" << batch << " order=" << static_cast<int>(order);
      EXPECT_EQ(got_c.simd_comparisons, want_c.simd_comparisons)
          << "batch=" << batch;
      EXPECT_EQ(got_c.scalar_comparisons, want_c.scalar_comparisons)
          << "batch=" << batch;
      if (batch > 0) {
        EXPECT_GT(got_c.nodes_loaded, 0u);
        EXPECT_LE(got_c.nodes_loaded, got_c.nodes_visited);
      }
    }
  }
}

TEST(GroupedTrieTest, PlainSegTrie64) {
  CheckTrieGrouped<segtrie::SegTrie<uint64_t, uint64_t>>();
}

TEST(GroupedTrieTest, OptimizedSegTrie64) {
  CheckTrieGrouped<segtrie::OptimizedSegTrie<uint64_t, uint64_t>>();
}

TEST(GroupedTrieTest, PlainSegTrie32) {
  CheckTrieGrouped<segtrie::SegTrie<uint32_t, uint64_t>>();
}

// --- wrapper dispatch: heuristic must never change an answer --------------

template <typename Index>
void CheckSynchronizedGrouped() {
  using Key = typename Index::KeyType;
  ShardedIndex<Index> index(1);
  Rng rng(37);
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(rng.Next());
    keys.push_back(k);
    index.Insert(k, static_cast<uint64_t>(i));
  }
  // 4096 crosses the UseGroupedDescent threshold (grouped route); 255
  // stays below it (pipelined route). Both must agree with Find.
  for (size_t batch : kGroupedBatchSizes) {
    auto probes = MakeProbes<Key>(keys, batch, rng);
    std::vector<std::optional<uint64_t>> out(batch);
    index.FindBatch(probes.data(), batch, out.data());
    for (size_t i = 0; i < batch; ++i) {
      const auto want = index.Find(probes[i]);
      ASSERT_EQ(out[i].has_value(), want.has_value())
          << "batch=" << batch << " i=" << i;
      if (want.has_value()) {
        ASSERT_EQ(*out[i], *want) << "i=" << i;
      }
    }
  }
}

TEST(GroupedDispatchTest, SynchronizedSegTree) {
  CheckSynchronizedGrouped<segtree::SegTree<uint32_t, uint64_t>>();
}

TEST(GroupedDispatchTest, SynchronizedSegTrie) {
  CheckSynchronizedGrouped<segtrie::SegTrie<uint64_t, uint64_t>>();
}

template <typename Index>
void CheckShardedGrouped(size_t shards) {
  using Key = typename Index::KeyType;
  ShardedIndex<Index> index(shards);
  Rng rng(41);
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(rng.Next());  // full-domain spread
    keys.push_back(k);
    index.Insert(k, static_cast<uint64_t>(i));
  }
  for (size_t batch : kGroupedBatchSizes) {
    auto probes = MakeProbes<Key>(keys, batch, rng);
    std::vector<std::optional<uint64_t>> out(batch);
    index.FindBatch(probes.data(), batch, out.data());
    for (size_t i = 0; i < batch; ++i) {
      const auto want = index.Find(probes[i]);
      ASSERT_EQ(out[i].has_value(), want.has_value())
          << "shards=" << shards << " batch=" << batch << " i=" << i;
      if (want.has_value()) {
        ASSERT_EQ(*out[i], *want) << "i=" << i;
      }
    }
  }
}

TEST(GroupedDispatchTest, ShardedSegTree) {
  CheckShardedGrouped<segtree::SegTree<uint32_t, uint64_t>>(4);
}

TEST(GroupedDispatchTest, ShardedSegTreeSingleShardFastPath) {
  CheckShardedGrouped<segtree::SegTree<uint32_t, uint64_t>>(1);
}

TEST(GroupedDispatchTest, ShardedSegTrie) {
  CheckShardedGrouped<segtrie::SegTrie<uint64_t, uint64_t>>(4);
}

// The sort-once split: ShardedIndex sorts a batch that can reach some
// shard's grouped threshold once and cuts it at the splitters. Equal
// adjacent splitters leave shards empty; probes equal to a splitter
// belong to the shard on its right; one batch holds a slice above its
// shard's grouped threshold next to slices below theirs.
TEST(GroupedDispatchTest, ShardedSortOnceSplit) {
  using Tree = segtree::SegTree<uint32_t, uint64_t>;
  const std::vector<uint32_t> splitters = {1000, 2000, 2000, 3000,
                                           5000, 5000, 9000};
  ShardedIndex<Tree> index(8, splitters);
  for (uint32_t k = 0; k < 12000; k += 2) index.Insert(k, k * 7 + 1);
  for (int i = 0; i < 5; ++i) index.Insert(3000, 900 + i);  // duplicates
  const size_t grouped_at =
      index.WithShardRead(0, [](const Tree& t) {
        return static_cast<size_t>(t.height_hint()) * kGroupedMinBatchPerLevel;
      });
  Rng rng(59);
  for (const size_t cluster : {size_t{0}, grouped_at - 1, grouped_at,
                               2 * grouped_at}) {
    SCOPED_TRACE(cluster);
    std::vector<uint32_t> probes;
    // Shard 0's cluster: the grouped engine once it reaches grouped_at.
    for (size_t i = 0; i < cluster; ++i) {
      probes.push_back(static_cast<uint32_t>(rng.NextBounded(1000)));
    }
    // Every splitter and its neighbours, duplicated.
    for (const uint32_t sp : splitters) {
      for (const uint32_t q : {sp - 1, sp, sp, sp + 1}) probes.push_back(q);
    }
    // A few keys on every shard, and past the last key.
    for (int i = 0; i < 40; ++i) {
      probes.push_back(static_cast<uint32_t>(rng.NextBounded(12100)));
    }
    probes.push_back(std::numeric_limits<uint32_t>::max());
    probes.push_back(0);
    std::shuffle(probes.begin(), probes.end(), rng);
    std::vector<size_t> slice(index.num_shards());
    for (const uint32_t q : probes) ++slice[index.ShardOf(q)];
    EXPECT_EQ(slice[2] + slice[5], 0u);  // the empty shards
    if (cluster >= grouped_at) {
      // Shard 0 goes grouped, shard 3 interleaved, in one batch.
      EXPECT_GE(slice[0], grouped_at);
      EXPECT_GT(slice[3], 0u);
      EXPECT_LT(slice[3], grouped_at);
    }
    std::vector<std::optional<uint64_t>> out(probes.size(),
                                             std::optional<uint64_t>(1));
    index.FindBatch(probes.data(), probes.size(), out.data());
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(out[i], index.Find(probes[i])) << "probe " << probes[i];
    }
  }
}

// The heuristic itself: monotone in n, gated on levels.
TEST(GroupedDispatchTest, UseGroupedDescentHeuristic) {
  EXPECT_FALSE(UseGroupedDescent(0, 3));
  EXPECT_FALSE(UseGroupedDescent(100, 0));
  const size_t at = static_cast<size_t>(3 * kGroupedMinBatchPerLevel);
  EXPECT_FALSE(UseGroupedDescent(at - 1, 3));
  EXPECT_TRUE(UseGroupedDescent(at, 3));
  EXPECT_TRUE(UseGroupedDescent(at * 10, 3));
}

}  // namespace
}  // namespace simdtree
