// Tests for the path-compressed Seg-Trie: edge splits at every divergence
// offset, model-based randomized workloads, node-count guarantees (one
// node per branching level), and 128-bit keys with chained skips.

#include "segtrie/compressed_segtrie.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/counters.h"
#include "util/rng.h"

namespace simdtree::segtrie {
namespace {

using Trie = CompressedSegTrie<uint64_t, uint64_t>;

TEST(CompressedSegTrieTest, EmptyAndSingle) {
  Trie t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Contains(0));
  EXPECT_FALSE(t.Erase(0));
  EXPECT_TRUE(t.Validate());

  EXPECT_TRUE(t.Insert(0xDEADBEEFCAFEBABEULL, 7));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(t.Find(0xDEADBEEFCAFEBABEULL).value(), 7u);
  EXPECT_FALSE(t.Contains(0xDEADBEEFCAFEBABFULL));
  // A single key occupies exactly ONE node (fully compressed path).
  EXPECT_EQ(t.Stats().nodes, 1u);
  EXPECT_TRUE(t.Erase(0xDEADBEEFCAFEBABEULL));
  EXPECT_TRUE(t.empty());
}

TEST(CompressedSegTrieTest, SplitAtEveryDivergenceOffset) {
  // Two keys differing only at byte position b (from the top): the trie
  // must hold exactly one branch node + two leaves (or one leaf when the
  // divergence is at the last byte).
  for (int byte = 0; byte < 8; ++byte) {
    Trie t;
    const uint64_t base = 0x1111111111111111ULL;
    const uint64_t other = base ^ (0x22ULL << ((7 - byte) * 8));
    ASSERT_TRUE(t.Insert(base, 1));
    ASSERT_TRUE(t.Insert(other, 2));
    ASSERT_TRUE(t.Validate()) << "byte " << byte;
    ASSERT_EQ(t.Find(base).value(), 1u);
    ASSERT_EQ(t.Find(other).value(), 2u);
    ASSERT_FALSE(t.Contains(base ^ 1ULL << 63));
    const size_t expected_nodes = byte == 7 ? 1u : 3u;
    ASSERT_EQ(t.Stats().nodes, expected_nodes) << "byte " << byte;
  }
}

TEST(CompressedSegTrieTest, InsertOrderIndependence) {
  // The same key set must produce the same answers regardless of insert
  // order (splits happen at different times).
  std::vector<uint64_t> keys = {
      0x0000000000000001ULL, 0x0000000000000100ULL, 0x0000000001000000ULL,
      0x0100000000000000ULL, 0x0100000000000001ULL, 0x0101000000000000ULL,
      0xFFFFFFFFFFFFFFFFULL, 0x8000000000000000ULL,
  };
  for (int order = 0; order < 8; ++order) {
    Trie t;
    Rng rng(static_cast<uint64_t>(order));
    std::vector<uint64_t> shuffled = keys;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (size_t i = 0; i < shuffled.size(); ++i) {
      ASSERT_TRUE(t.Insert(shuffled[i], shuffled[i] & 0xFF));
    }
    ASSERT_TRUE(t.Validate());
    ASSERT_EQ(t.size(), keys.size());
    for (uint64_t k : keys) {
      ASSERT_EQ(t.Find(k).value(), k & 0xFF) << "order " << order;
    }
    // Ordered traversal.
    std::vector<uint64_t> seen;
    t.ForEach([&](uint64_t k, const uint64_t&) { seen.push_back(k); });
    ASSERT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    ASSERT_EQ(seen.size(), keys.size());
  }
}

TEST(CompressedSegTrieTest, RandomModelSparse) {
  Trie t;
  std::map<uint64_t, uint64_t> model;
  Rng rng(1);
  for (int op = 0; op < 8000; ++op) {
    const uint64_t k = rng.Next();  // sparse full-width keys
    if (rng.NextBounded(100) < 70) {
      const bool fresh = t.Insert(k, static_cast<uint64_t>(op));
      ASSERT_EQ(fresh, model.insert_or_assign(k, op).second);
    } else {
      ASSERT_EQ(t.Erase(k), model.erase(k) > 0);
    }
    if (op % 512 == 0) {
      ASSERT_TRUE(t.Validate());
    }
  }
  ASSERT_TRUE(t.Validate());
  ASSERT_EQ(t.size(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(t.Find(k).value(), v);
  // Sparse random 64-bit keys: almost all paths compress to root+leaf
  // (two branching levels), far fewer nodes than keys * levels.
  EXPECT_LT(t.Stats().nodes, 2 * t.size());
}

TEST(CompressedSegTrieTest, RandomModelDense) {
  Trie t;
  std::map<uint64_t, uint64_t> model;
  Rng rng(2);
  for (int op = 0; op < 8000; ++op) {
    const uint64_t k = rng.NextBounded(4096);
    if (rng.NextBounded(100) < 60) {
      t.Insert(k, static_cast<uint64_t>(op));
      model[k] = static_cast<uint64_t>(op);
    } else {
      ASSERT_EQ(t.Erase(k), model.erase(k) > 0);
    }
    if (op % 512 == 0) {
      ASSERT_TRUE(t.Validate());
    }
  }
  ASSERT_TRUE(t.Validate());
  ASSERT_EQ(t.size(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(t.Find(k).value(), v);
}

TEST(CompressedSegTrieTest, EraseDrainsAndReinserts) {
  Trie t;
  std::vector<uint64_t> keys;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(rng.Next() & 0xFFFFFFFFULL);
    t.Insert(keys.back(), static_cast<uint64_t>(i));
  }
  for (uint64_t k : keys) t.Erase(k);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.Validate());
  EXPECT_TRUE(t.Insert(42, 42));
  EXPECT_EQ(t.Find(42).value(), 42u);
}

TEST(CompressedSegTrieTest, LookupTouchesOneNodePerBranchingLevel) {
  // Sparse keys: a lookup must visit only the branching nodes — far fewer
  // than the 8 levels the uncompressed trie walks.
  Trie t;
  t.Insert(0x0101010101010101ULL, 1);
  t.Insert(0x0101010101010102ULL, 2);  // diverges at the last byte
  t.Insert(0x0201010101010101ULL, 3);  // diverges at the first byte

  SearchCounters c;
  EXPECT_TRUE(t.FindCounted(0x0101010101010102ULL, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 2u);  // root branch + shared leaf

  c.Reset();
  EXPECT_TRUE(t.FindCounted(0x0201010101010101ULL, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 2u);  // root branch + compressed leaf

  c.Reset();
  EXPECT_FALSE(t.FindCounted(0x0301010101010101ULL, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 1u);  // miss at the root

  // Compare with the plain trie: 8 nodes for the same hit.
  SegTrie<uint64_t, uint64_t> plain;
  plain.Insert(0x0101010101010101ULL, 1);
  plain.Insert(0x0101010101010102ULL, 2);
  c.Reset();
  EXPECT_TRUE(plain.FindCounted(0x0101010101010102ULL, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 8u);
}

TEST(CompressedSegTrieTest, MatchesPlainTrieOnSameWorkload) {
  Trie compressed;
  SegTrie<uint64_t, uint64_t> plain;
  Rng rng(5);
  for (int op = 0; op < 6000; ++op) {
    const uint64_t k = rng.Next() & 0xFFFF00FF00FFULL;
    if (rng.NextBounded(100) < 70) {
      const bool a = compressed.Insert(k, static_cast<uint64_t>(op));
      const bool b = plain.Insert(k, static_cast<uint64_t>(op));
      ASSERT_EQ(a, b);
    } else {
      ASSERT_EQ(compressed.Erase(k), plain.Erase(k));
    }
  }
  ASSERT_EQ(compressed.size(), plain.size());
  ASSERT_TRUE(compressed.Validate());
  // Compression must save nodes and memory on this sparse pattern.
  EXPECT_LT(compressed.Stats().nodes, plain.Stats().nodes);
  EXPECT_LT(compressed.MemoryBytes(), plain.MemoryBytes());
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.Next() & 0xFFFF00FF00FFULL;
    ASSERT_EQ(compressed.Find(k).has_value(), plain.Find(k).has_value());
  }
}

#if defined(__SIZEOF_INT128__)
TEST(CompressedSegTrieTest, Int128KeysWithChainedSkips) {
  using U128 = unsigned __int128;
  CompressedSegTrie<U128, uint64_t> t;
  // 16 levels; a single key's skip run (15) exceeds kMaxSkip (8), forcing
  // a chained compressed path.
  const U128 a = (static_cast<U128>(0x0123456789ABCDEFULL) << 64) | 0x42;
  const U128 b = a + 1;
  const U128 c = a ^ (static_cast<U128>(1) << 127);  // top-bit divergence
  EXPECT_TRUE(t.Insert(a, 1));
  EXPECT_TRUE(t.Insert(b, 2));
  EXPECT_TRUE(t.Insert(c, 3));
  ASSERT_TRUE(t.Validate());
  EXPECT_EQ(t.Find(a).value(), 1u);
  EXPECT_EQ(t.Find(b).value(), 2u);
  EXPECT_EQ(t.Find(c).value(), 3u);
  EXPECT_FALSE(t.Contains(a + 2));
  EXPECT_TRUE(t.Erase(b));
  EXPECT_FALSE(t.Contains(b));
  EXPECT_EQ(t.size(), 2u);
}
#endif

TEST(CompressedSegTrieTest, SixteenBitSegments) {
  CompressedSegTrie<uint64_t, uint32_t, 16> t;  // 4 levels, kMaxSkip = 4
  std::map<uint64_t, uint32_t> model;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t k = rng.Next() & 0xFFFF0000FFFFULL;
    t.Insert(k, static_cast<uint32_t>(i));
    model[k] = static_cast<uint32_t>(i);
  }
  ASSERT_TRUE(t.Validate());
  ASSERT_EQ(t.size(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(t.Find(k).value(), v);
}

TEST(CompressedSegTrieTest, MoveSemantics) {
  Trie a;
  for (uint64_t k = 0; k < 500; ++k) a.Insert(k * 1000003ULL, k);
  Trie b = std::move(a);
  EXPECT_EQ(b.size(), 500u);
  EXPECT_TRUE(b.Validate());
  EXPECT_EQ(b.Find(1000003ULL).value(), 1u);
  b.Insert(77, 77);
  EXPECT_TRUE(b.Contains(77));
}

}  // namespace
}  // namespace simdtree::segtrie
