// ShardedIndex unit tests: partitioning (ShardOf, uniform and
// sample-quantile splitters), the full index surface against a std::map
// oracle, cross-shard ScanRange stitching, the FindBatch edge cases
// the differential batch tests skip — empty batches, all-missing
// batches, batches larger than the 256-key chunk of the locked
// FindBatch paths, and duplicate keys straddling a shard splitter — and
// FindBatch against per-key Find: one-key batches, and the cross-shard
// interleaved pass over every tree family's key store and layout.

#include "core/sharded.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "btree/btree.h"
#include "gtest/gtest.h"
#include "kary/layout.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using SegTree64 = segtree::SegTree<uint64_t, uint64_t>;
using BTree64 = btree::BPlusTree<uint64_t, uint64_t>;
using Trie64 = segtrie::SegTrie<uint64_t, uint64_t>;

TEST(ShardedTest, UniformSplittersPartitionTheDomain) {
  ShardedIndex<SegTree64> index(8);
  EXPECT_EQ(index.num_shards(), 8u);
  ASSERT_EQ(index.splitters().size(), 7u);
  // Uniform division of the 64-bit domain: splitter s = s * 2^61.
  for (size_t s = 0; s < 7; ++s) {
    EXPECT_EQ(index.splitters()[s], (s + 1) * (1ULL << 61));
  }
  EXPECT_EQ(index.ShardOf(0), 0u);
  EXPECT_EQ(index.ShardOf((1ULL << 61) - 1), 0u);
  // A key equal to a splitter belongs to the shard on its right.
  EXPECT_EQ(index.ShardOf(1ULL << 61), 1u);
  EXPECT_EQ(index.ShardOf(~0ULL), 7u);
}

TEST(ShardedTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedIndex<SegTree64>(1).num_shards(), 1u);
  EXPECT_EQ(ShardedIndex<SegTree64>(3).num_shards(), 4u);
  EXPECT_EQ(ShardedIndex<SegTree64>(5).num_shards(), 8u);
  EXPECT_EQ(ShardedIndex<SegTree64>(16).num_shards(), 16u);
}

TEST(ShardedTest, SplittersFromSampleQuantiles) {
  // Clustered sample: uniform splitters would leave 7 of 8 shards
  // empty; quantile splitters spread the load.
  std::vector<uint64_t> sample;
  for (uint64_t k = 0; k < 8000; ++k) sample.push_back(k);
  const auto splitters =
      ShardedIndex<SegTree64>::SplittersFromSample(sample.data(),
                                                   sample.size(), 8);
  ASSERT_EQ(splitters.size(), 7u);
  for (size_t s = 0; s < 7; ++s) EXPECT_EQ(splitters[s], (s + 1) * 1000);

  ShardedIndex<SegTree64> index(8, splitters);
  for (uint64_t k = 0; k < 8000; ++k) index.Insert(k, k * 2);
  size_t nonempty = 0;
  index.ForEachShardRead([&](size_t, const SegTree64& tree) {
    if (tree.size() > 0) ++nonempty;
    EXPECT_EQ(tree.size(), 1000u);
  });
  EXPECT_EQ(nonempty, 8u);
  EXPECT_TRUE(index.Validate());
}

template <typename Index>
void CheckFullSurface() {
  ShardedIndex<Index> index(8);
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(7);
  // Mix of keys spanning all shards, including exact splitter keys.
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = i % 16 == 0
                           ? index.splitters()[rng.NextBounded(7)]
                           : rng.Next();
    const uint64_t v = static_cast<uint64_t>(i);
    index.Insert(k, v);
    oracle[k] = v;  // Index may be a multimap; values stay per-key
                    // deterministic below, so Find matches either way.
  }
  // Overwrite-free check needs deterministic values: rebuild both with
  // value = key ^ kSalt.
  constexpr uint64_t kSalt = 0x5AFE5AFE5AFE5AFEULL;
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  oracle.clear();
  Rng rng2(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = i % 16 == 0
                           ? index.splitters()[rng2.NextBounded(7)]
                           : rng2.Next();
    index.Insert(k, k ^ kSalt);
    oracle[k] = k ^ kSalt;
  }
  EXPECT_TRUE(index.Validate());

  // Point lookups, hits and misses.
  for (const auto& [k, v] : oracle) {
    ASSERT_TRUE(index.Contains(k));
    ASSERT_EQ(index.Find(k).value(), v);
  }
  Rng rng3(8);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng3.Next();
    ASSERT_EQ(index.Find(k).has_value(), oracle.count(k) == 1);
  }

  // Erase half, re-check.
  size_t erased = 0;
  for (auto it = oracle.begin(); it != oracle.end();) {
    if (erased % 2 == 0) {
      EXPECT_TRUE(index.Erase(it->first));
      it = oracle.erase(it);
    } else {
      ++it;
    }
    ++erased;
  }
  EXPECT_FALSE(index.Erase(~0ULL - 12345));  // never inserted
  for (const auto& [k, v] : oracle) ASSERT_EQ(index.Find(k).value(), v);
}

TEST(ShardedTest, FullSurfaceSegTree) { CheckFullSurface<SegTree64>(); }
TEST(ShardedTest, FullSurfaceBPlusTree) { CheckFullSurface<BTree64>(); }
TEST(ShardedTest, FullSurfaceSegTrie) { CheckFullSurface<Trie64>(); }

TEST(ShardedTest, ScanRangeStitchesAcrossShardBoundaries) {
  ShardedIndex<SegTree64> index(8);
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(11);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t k = rng.Next();
    index.Insert(k, k + 1);
    oracle[k] = k + 1;
  }
  // Include every splitter key so boundaries carry data.
  for (uint64_t s : index.splitters()) {
    index.Insert(s, s + 1);
    oracle[s] = s + 1;
  }
  EXPECT_EQ(index.size(), oracle.size());

  // Windows that span 0, 1, and many splitters, plus the full domain.
  const uint64_t q = 1ULL << 61;
  struct Window { uint64_t lo, hi; bool inclusive; };
  const Window windows[] = {
      {0, q / 2, false},                 // inside shard 0
      {q - 1000, q + 1000, false},       // spans splitter 1
      {q / 2, 7 * q + 17, false},        // spans six splitters
      {0, ~0ULL, true},                  // full domain, inclusive
      {3 * q, 3 * q, true},              // single splitter key
      {5, 5, false},                     // empty half-open window
  };
  for (const Window& w : windows) {
    std::vector<std::pair<uint64_t, uint64_t>> got;
    index.ScanRange(w.lo, w.hi,
                    [&got](uint64_t k, const uint64_t& v) {
                      got.emplace_back(k, v);
                    },
                    w.inclusive);
    std::vector<std::pair<uint64_t, uint64_t>> want;
    for (auto it = oracle.lower_bound(w.lo); it != oracle.end(); ++it) {
      if (w.inclusive ? it->first > w.hi : it->first >= w.hi) break;
      want.emplace_back(it->first, it->second);
    }
    ASSERT_EQ(got, want) << "window [" << w.lo << ", " << w.hi << ")"
                         << (w.inclusive ? " inclusive" : "");
  }
}

// --- FindBatch edge cases (sharded and synchronized) ----------------------

TEST(ShardedTest, FindBatchEmptyBatch) {
  ShardedIndex<SegTree64> index(4);
  index.Insert(1, 10);
  // n == 0 must be a no-op that never touches out (pass nullptr so any
  // dereference faults).
  index.FindBatch(nullptr, 0, nullptr);
  SUCCEED();
}

TEST(ShardedTest, FindBatchAllMissing) {
  ShardedIndex<SegTree64> index(8);
  for (uint64_t k = 0; k < 1000; ++k) index.Insert(k * 2, k);  // evens only
  std::vector<uint64_t> probes;
  for (uint64_t k = 0; k < 1000; ++k) probes.push_back(k * 2 + 1);
  // Spread misses across all shards too.
  for (uint64_t s : index.splitters()) probes.push_back(s + 1);
  std::vector<std::optional<uint64_t>> out(probes.size(),
                                           std::optional<uint64_t>(77));
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_FALSE(out[i].has_value()) << "i=" << i;  // 77 must be cleared
  }
}

TEST(ShardedTest, FindBatchLargerThanLockChunk) {
  // Batches well past the 256-key chunk that the locked FindBatch paths
  // (ShardedIndex per-shard loop, one shard or many) process
  // per iteration: 1000 keys landing in one shard plus a 5000-key
  // all-shard batch.
  ShardedIndex<SegTree64> index(8);
  Rng rng(13);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.Next();
    keys.push_back(k);
    index.Insert(k, k ^ 0xF00DULL);
  }
  // One-shard batch: all probes below splitter 0.
  std::vector<uint64_t> one_shard;
  for (uint64_t k : keys) {
    if (k < index.splitters()[0]) one_shard.push_back(k);
    if (one_shard.size() == 1000) break;
  }
  ASSERT_GT(one_shard.size(), 400u);  // uniform keys: ~1/8 of 20000
  std::vector<std::optional<uint64_t>> out1(one_shard.size());
  index.FindBatch(one_shard.data(), one_shard.size(), out1.data());
  for (size_t i = 0; i < one_shard.size(); ++i) {
    ASSERT_TRUE(out1[i].has_value());
    ASSERT_EQ(*out1[i], one_shard[i] ^ 0xF00DULL);
  }
  // All-shard batch: hits interleaved with misses, 5000 keys.
  std::vector<uint64_t> probes;
  for (int i = 0; i < 5000; ++i) {
    probes.push_back(i % 2 == 0 ? keys[static_cast<size_t>(i) % keys.size()]
                                : rng.Next());
  }
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto want = index.Find(probes[i]);
    ASSERT_EQ(out[i].has_value(), want.has_value()) << "i=" << i;
    if (want.has_value()) {
      ASSERT_EQ(*out[i], *want);
    }
  }
}

TEST(SynchronizedBatchEdgeTest, EmptyAllMissingAndPastChunk) {
  ShardedIndex<SegTree64> index(1);
  index.FindBatch(nullptr, 0, nullptr);  // n == 0: no-op
  for (uint64_t k = 0; k < 2000; ++k) index.Insert(k * 3, k);
  // All-missing batch.
  std::vector<uint64_t> missing;
  for (uint64_t k = 0; k < 500; ++k) missing.push_back(k * 3 + 1);
  std::vector<std::optional<uint64_t>> mout(missing.size(),
                                            std::optional<uint64_t>(9));
  index.FindBatch(missing.data(), missing.size(), mout.data());
  for (const auto& o : mout) ASSERT_FALSE(o.has_value());
  // 1000-key batch: four 256-key chunks, the last partial.
  std::vector<uint64_t> probes;
  for (uint64_t i = 0; i < 1000; ++i) probes.push_back(i * 3);
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(out[i].has_value()) << "i=" << i;
    ASSERT_EQ(*out[i], i);
  }
}

TEST(ShardedTest, DuplicateKeysStraddlingASplitter) {
  // Multimap backend: duplicates of the splitter key itself all live in
  // the right-hand shard (ShardOf is deterministic), and FindBatch
  // resolves them like Find does.
  ShardedIndex<BTree64> index(4);
  const uint64_t split = index.splitters()[1];
  for (int i = 0; i < 100; ++i) {
    index.Insert(split, 42);        // 100 duplicates of the boundary key
    index.Insert(split - 1, 41);    // left neighbour, also duplicated
    index.Insert(split + 1, 43);    // right neighbour
  }
  EXPECT_EQ(index.size(), 300u);
  EXPECT_TRUE(index.Validate());
  // All occurrences of the boundary key are in exactly one shard.
  size_t shards_with_split = 0;
  index.ForEachShardRead([&](size_t, const BTree64& tree) {
    if (tree.Contains(split)) ++shards_with_split;
  });
  EXPECT_EQ(shards_with_split, 1u);
  // Batch with repeated boundary keys mixed with neighbours and misses.
  std::vector<uint64_t> probes;
  for (int i = 0; i < 300; ++i) {
    probes.push_back(split);
    probes.push_back(split - 1);
    probes.push_back(split + 1);
    probes.push_back(split + 2);  // miss
  }
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    switch (i % 4) {
      case 0: { ASSERT_EQ(out[i].value(), 42u); break; }
      case 1: { ASSERT_EQ(out[i].value(), 41u); break; }
      case 2: { ASSERT_EQ(out[i].value(), 43u); break; }
      default: { ASSERT_FALSE(out[i].has_value()); break; }
    }
  }
  // Erase the duplicates one by one across the boundary; counts drop as
  // scanned through the stitched ScanRange.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(index.Erase(split));
  EXPECT_FALSE(index.Erase(split));
  size_t remaining = 0;
  index.ScanRange(split - 1, split + 1,
                  [&remaining](uint64_t, const uint64_t&) { ++remaining; },
                  /*hi_inclusive=*/true);
  EXPECT_EQ(remaining, 200u);
}

TEST(ShardedTest, SingleShardDegeneratesToOneIndex) {
  ShardedIndex<SegTree64> index(1);
  EXPECT_EQ(index.num_shards(), 1u);
  EXPECT_TRUE(index.splitters().empty());
  Rng rng(3);
  std::map<uint64_t, uint64_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next();
    index.Insert(k, k / 2);
    oracle[k] = k / 2;
  }
  EXPECT_EQ(index.size(), oracle.size());
  std::vector<uint64_t> probes;
  for (const auto& [k, v] : oracle) probes.push_back(k);
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i].value(), probes[i] / 2);
  }
  EXPECT_TRUE(index.Validate());
}

// An index built elsewhere (the CLI and examples load one from a blob)
// moves in as the single shard and reads exactly like the source, with
// lock-free reads armed unless the environment forces the shard locks.
TEST(ShardedTest, MovedInIndexBecomesTheSingleShard) {
  SegTree64 tree;
  std::vector<uint64_t> keys;
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next() >> 1;
    if (tree.Find(k).has_value()) continue;
    tree.Insert(k, k ^ 0x5A5A);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());

  ShardedIndex<SegTree64> index(std::move(tree));
  EXPECT_EQ(index.num_shards(), 1u);
  EXPECT_TRUE(index.splitters().empty());
  EXPECT_EQ(index.size(), keys.size());
  EXPECT_TRUE(index.Validate());

  // Hits and misses, one by one and as one batch past the grouped
  // descent threshold.
  std::vector<uint64_t> probes;
  for (const uint64_t k : keys) {
    probes.push_back(k);
    probes.push_back(k | (uint64_t{1} << 63));  // never stored
  }
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    const bool stored = i % 2 == 0;
    ASSERT_EQ(out[i].has_value(), stored) << "i=" << i;
    ASSERT_EQ(index.Find(probes[i]).has_value(), stored) << "i=" << i;
    if (stored) {
      ASSERT_EQ(*out[i], probes[i] ^ 0x5A5A);
      ASSERT_EQ(*index.Find(probes[i]), probes[i] ^ 0x5A5A);
    }
  }

  std::vector<uint64_t> scanned;
  index.ScanRange(
      0, std::numeric_limits<uint64_t>::max(),
      [&scanned](uint64_t k, const uint64_t& v) {
        EXPECT_EQ(v, k ^ 0x5A5A);
        scanned.push_back(k);
      },
      /*hi_inclusive=*/true);
  EXPECT_EQ(scanned, keys);

  const bool armed = index.WithShardRead(
      0, [](const SegTree64& t) { return t.concurrent_reads_enabled(); });
  EXPECT_EQ(armed, mem::ArenaEnabled() && !olc::ForceShardLocks());
}

// A one-key FindBatch takes Find's path: the same answer, and every
// out slot overwritten (a stale value must be cleared on a miss).
template <typename Index>
void CheckOneKeyBatchMatchesFind(size_t shards) {
  ShardedIndex<Index> index(shards);
  Rng rng(21);
  std::vector<uint64_t> probes;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.Next();
    if (i % 3 != 0) index.Insert(k, k ^ 0xABCD);
    probes.push_back(k);
  }
  for (uint64_t s : index.splitters()) {
    index.Insert(s, s + 5);
    probes.push_back(s);
    probes.push_back(s - 1);
  }
  probes.push_back(0);
  probes.push_back(std::numeric_limits<uint64_t>::max());
  for (const uint64_t k : probes) {
    std::optional<uint64_t> got(77);
    index.FindBatch(&k, 1, &got);
    ASSERT_EQ(got, index.Find(k)) << "key " << k;
  }
}

TEST(ShardedTest, OneKeyBatchMatchesFind) {
  CheckOneKeyBatchMatchesFind<SegTree64>(8);
  CheckOneKeyBatchMatchesFind<SegTree64>(1);
  CheckOneKeyBatchMatchesFind<BTree64>(8);
  CheckOneKeyBatchMatchesFind<Trie64>(8);
}

// The interleaved FindBatch pass runs each key from its own shard's
// root, whatever shard its batch neighbours are on; shards whose slice
// clears UseGroupedDescent use the grouped engine instead. Both must
// answer exactly like per-key Find on every key store and layout, for
// hits, misses, multimap duplicates (distinct values, so "which
// occurrence" is checked too), splitter keys, keys below a leaf's first
// key (the previous-leaf step) and misses at a leaf's right edge.
template <typename Index>
class CrossShardBatchTest : public ::testing::Test {};

// The dispatch-routed widths take the native step of whatever backend
// SIMDTREE_FORCE_BACKEND selects (or the scalar image).
using CrossShardTypes = ::testing::Types<
    SegTree64, BTree64,
    segtree::SegTree<uint64_t, uint64_t, kary::Layout::kDepthFirst>,
    segtree::SegTree<uint32_t, uint64_t>,
    segtree::SegTree<uint32_t, uint64_t, kary::Layout::kDepthFirst,
                     simd::PopcountEval, simd::kDefaultBackend, 256>,
    segtree::SegTree<uint64_t, uint64_t, kary::Layout::kBreadthFirst,
                     simd::PopcountEval, simd::kDefaultBackend, 512>>;
TYPED_TEST_SUITE(CrossShardBatchTest, CrossShardTypes);

TYPED_TEST(CrossShardBatchTest, MatchesPerKeyFind) {
  using Index = TypeParam;
  using Key = typename Index::KeyType;
  constexpr Key kStride = 16;
  constexpr size_t kKeys = 120000;
  // Quantile splitters over the stored range, so every shard holds keys.
  std::vector<Key> splitters;
  for (size_t s = 1; s < 8; ++s) {
    splitters.push_back(static_cast<Key>(s * kKeys / 8 * kStride + 3));
  }
  ShardedIndex<Index> index(8, splitters);
  std::map<Key, int> live;
  for (size_t i = 0; i < kKeys; ++i) {
    const Key k = static_cast<Key>(i * kStride + 3);
    index.Insert(k, static_cast<uint64_t>(k) * 3);
    ++live[k];
  }
  for (const Key s : splitters) {
    index.Insert(s, 1);  // a duplicate of each splitter key
    ++live[s];
  }
  // Runs of duplicates longer than a leaf, each occurrence its own value.
  Rng rng(99);
  for (int run = 0; run < 6; ++run) {
    const Key k = static_cast<Key>(rng.NextBounded(kKeys) * kStride + 3);
    for (int d = 0; d < 600; ++d) {
      index.Insert(k, 1000000 + static_cast<uint64_t>(run * 1000 + d));
      ++live[k];
    }
  }
  // Erasing keys leaves separators that no longer start their leaf:
  // probes between such a separator and the leaf's new first key step
  // into the previous leaf.
  for (size_t i = 0; i < kKeys; i += 3) {
    const Key k = static_cast<Key>(i * kStride + 3);
    if (live[k] == 1 && index.Erase(k)) live.erase(k);
  }
  // Thin the duplicate runs (Erase takes the leftmost occurrences).
  for (auto& [k, n] : live) {
    if (n < 100) continue;
    const int drop = 100 + static_cast<int>(rng.NextBounded(400));
    for (int d = 0; d < drop; ++d) ASSERT_TRUE(index.Erase(k));
    n -= drop;
  }
  ASSERT_TRUE(index.Validate());

  std::vector<Key> pool;
  for (size_t i = 0; i < kKeys; ++i) {
    const Key k = static_cast<Key>(i * kStride + 3);
    pool.push_back(k);                            // hit, or erased miss
    pool.push_back(static_cast<Key>(k + 1));      // miss
    pool.push_back(static_cast<Key>(k - 1));      // miss below
  }
  for (const Key s : splitters) pool.push_back(s);
  for (const auto& [k, n] : live) {
    if (n > 1) pool.push_back(k);
  }
  pool.push_back(0);
  pool.push_back(std::numeric_limits<Key>::max());

  // The probe pool must step into previous leaves.
  size_t prev_leaf_steps = 0;
  for (const Key k : pool) {
    index.WithShardRead(index.ShardOf(k), [&](const Index& tree) {
      SearchCounters c;
      tree.FindCounted(k, &c);
      if (c.nodes_visited > static_cast<uint64_t>(tree.height())) {
        ++prev_leaf_steps;
      }
      return 0;
    });
  }
  EXPECT_GT(prev_leaf_steps, 0u);

  // One shard's grouped threshold, straddled by a one-shard batch.
  const int levels = index.WithShardRead(
      3, [](const Index& tree) { return tree.height_hint(); });
  const size_t threshold =
      static_cast<size_t>(levels) * kGroupedMinBatchPerLevel;
  std::vector<Key> shard3;
  for (const Key k : pool) {
    if (index.ShardOf(k) == 3) shard3.push_back(k);
  }
  ASSERT_GT(shard3.size(), threshold);

  const auto check = [&](const std::vector<Key>& batch) {
    std::vector<std::optional<uint64_t>> out(batch.size(),
                                             std::optional<uint64_t>(7));
    index.FindBatch(batch.data(), batch.size(), out.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(out[i], index.Find(batch[i]))
          << "batch of " << batch.size() << ", i=" << i << ", key "
          << static_cast<uint64_t>(batch[i]);
    }
  };
  for (const size_t n :
       {size_t{1}, size_t{2}, size_t{17}, size_t{64}, size_t{287},
        size_t{288}, size_t{4096}}) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<Key> batch;
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(pool[rng.NextBounded(pool.size())]);
      }
      check(batch);
    }
  }
  for (const size_t n : {threshold - 1, threshold, 2 * threshold}) {
    std::vector<Key> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(shard3[rng.NextBounded(shard3.size())]);
    }
    check(batch);
    // The same slice with keys of every other shard mixed in: shard 3
    // takes the grouped engine, the rest the interleaved pass.
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(pool[rng.NextBounded(pool.size())]);
    }
    check(batch);
  }
}

}  // namespace
}  // namespace simdtree
