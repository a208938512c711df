// Concurrency tests for the one-shard ShardedIndex (one reader/writer
// lock around one index): parallel readers against a single writer,
// parallel writers, and snapshot-consistent scans.
//
// Default iteration counts are sized for the fast tier-1 run
// (`ctest -LE stress`); the ctest `stress` label re-runs this binary
// with SIMDTREE_STRESS=1 for the 10x soak.

#include "core/sharded.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "gtest/gtest.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/rng.h"

namespace simdtree {
namespace {

// 10x the workload when SIMDTREE_STRESS is set (the ctest `stress`
// label).
int StressScale() {
  const char* env = std::getenv("SIMDTREE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 10 : 1;
}

TEST(SynchronizedTest, SingleThreadBasics) {
  ShardedIndex<segtree::SegTree<uint64_t, uint64_t>> index(1);
  index.Insert(1, 10);
  index.Insert(2, 20);
  EXPECT_EQ(index.Find(1).value(), 10u);
  EXPECT_TRUE(index.Contains(2));
  EXPECT_FALSE(index.Contains(3));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.Erase(1));
  EXPECT_EQ(index.size(), 1u);
  uint64_t sum = 0;
  index.ScanRange(0, 100, [&sum](uint64_t k, const uint64_t&) { sum += k; });
  EXPECT_EQ(sum, 2u);
  const size_t h = index.WithShardRead(
      0, [](const auto& tree) { return static_cast<size_t>(tree.height()); });
  EXPECT_EQ(h, 1u);
}

TEST(SynchronizedTest, ConcurrentReadersWithWriter) {
  ShardedIndex<segtree::SegTree<uint64_t, uint64_t>> index(1);
  for (uint64_t k = 0; k < 10000; ++k) index.Insert(k, k);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 1);
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = rng.NextBounded(10000);
        // Keys 0..9999 are never erased by the writer, only overwritten.
        if (!index.Contains(k)) {
          read_errors.fetch_add(1, std::memory_order_relaxed);
        }
        // On few cores, readers spinning on the shared lock starve the
        // writer behind glibc's reader-preferring rwlock; yielding
        // periodically keeps the test about interleaving, not about
        // scheduler-induced writer starvation.
        if (++reads % 64 == 0) std::this_thread::yield();
      }
    });
  }

  // Writer inserts a disjoint key range and overwrites existing values.
  const uint64_t writes = 2000 * static_cast<uint64_t>(StressScale());
  for (uint64_t i = 0; i < writes; ++i) {
    if (i % 2 == 0) {
      index.Insert(100000 + i, i);
    } else {
      index.Insert(i % 10000, i);
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(read_errors.load(), 0u);
  const bool valid =
      index.WithShardRead(0, [](const auto& tree) { return tree.Validate(); });
  EXPECT_TRUE(valid);
}

TEST(SynchronizedTest, ParallelWritersDisjointRanges) {
  ShardedIndex<segtrie::SegTrie<uint64_t, uint64_t>> index(1);
  constexpr int kThreads = 4;
  const uint64_t kPerThread = 20000 * static_cast<uint64_t>(StressScale());
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&index, t, kPerThread]() {
      const uint64_t base = static_cast<uint64_t>(t) * kPerThread;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        index.Insert(base + i, base + i);
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(index.size(), kThreads * kPerThread);
  const bool valid =
      index.WithShardRead(0, [](const auto& trie) { return trie.Validate(); });
  EXPECT_TRUE(valid);
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.NextBounded(kThreads * kPerThread);
    ASSERT_EQ(index.Find(k).value(), k);
  }
}

TEST(SynchronizedTest, MixedInsertEraseFromManyThreads) {
  ShardedIndex<btree::BPlusTree<uint64_t, uint64_t>> index(1);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    const int ops = 10000 * StressScale();
    workers.emplace_back([&index, t, ops]() {
      Rng rng(static_cast<uint64_t>(t) * 7 + 1);
      for (int i = 0; i < ops; ++i) {
        const uint64_t k = rng.NextBounded(512);
        if (rng.NextBounded(100) < 60) {
          index.Insert(k, static_cast<uint64_t>(i));
        } else {
          index.Erase(k);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  const bool valid =
      index.WithShardRead(0, [](const auto& tree) { return tree.Validate(); });
  EXPECT_TRUE(valid);
}

}  // namespace
}  // namespace simdtree
