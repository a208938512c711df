// Multi-threaded differential stress suite for the concurrent wrappers
// (ShardedIndex with many shards and with one), designed to run under
// ThreadSanitizer (the CI tsan job builds exactly this file plus
// synchronized_test with -fsanitize=thread).
//
// Scheme: W writer threads each own a disjoint congruence class of the
// key space (key % W == t), so the final state is independent of the
// interleaving and a mutex-guarded std::map oracle — updated alongside
// every index mutation — converges to the exact expected contents. R
// reader threads concurrently hammer Find / FindBatch / ScanRange and
// check what CAN be checked mid-flight (values are a pure function of
// the key; scans are ascending and in-window). At each quiescent point
// (all threads joined) the full index is diffed against the oracle:
// size, complete stitched scan, per-key Find, and a FindBatch over
// every live key plus guaranteed misses.
//
// The key mix deliberately includes duplicates (multimap backends) and
// the exact shard-splitter keys and their neighbours, so shard-boundary
// routing is exercised by writers and readers at once.
//
// Default sizes keep the test in tier-1 time on one core (and under
// TSan); SIMDTREE_STRESS=1 scales the workload up for the ctest
// `stress` label.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/rng.h"

namespace simdtree {
namespace {

// 10x everything when SIMDTREE_STRESS is set (the ctest `stress` label).
int StressScale() {
  const char* env = std::getenv("SIMDTREE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 10 : 1;
}

constexpr int kWriters = 4;
constexpr int kReaders = 2;
constexpr int kRounds = 3;

// Deterministic value for a key: readers can verify any observed pair
// without knowing which writer stored it.
uint64_t ValueOf(uint64_t key) {
  return (key ^ 0xC0FFEE0DDBA11ULL) * 0x9E3779B97F4A7C15ULL;
}

// The shared key mix. Keys cluster around the 8-shard uniform splitters
// (s * 2^61) so every shard sees traffic and the boundary keys
// themselves — splitter, splitter-1, splitter+1 — are hit constantly.
uint64_t MakeKey(Rng& rng) {
  const uint64_t shard = rng.NextBounded(8);
  const uint64_t base = shard << 61;
  switch (rng.NextBounded(8)) {
    case 0: return base;                              // the splitter itself
    case 1: return base == 0 ? 0 : base - 1;          // left of boundary
    case 2: return base + 1;                          // right of boundary
    default: return base + rng.NextBounded(4096);     // near-boundary range
  }
}

// Key ownership: writer t mutates only keys with key % kWriters == t.
uint64_t OwnKey(Rng& rng, int t) {
  const uint64_t k = MakeKey(rng);
  return k - (k % kWriters) + static_cast<uint64_t>(t);
}

// Mutex-guarded oracle: key -> live occurrence count. Multimap backends
// accumulate counts; map backends (Seg-Trie) cap them at 1.
struct Oracle {
  std::mutex mutex;
  std::map<uint64_t, uint64_t> counts;
};

template <typename Wrapper>
void WriterLoop(Wrapper& index, Oracle& oracle, bool multimap, int t,
                int ops, std::atomic<uint64_t>& errors) {
  Rng rng(static_cast<uint64_t>(t) * 1000003 + 17);
  for (int i = 0; i < ops; ++i) {
    const uint64_t k = OwnKey(rng, t);
    if (rng.NextBounded(100) < 60) {
      index.Insert(k, ValueOf(k));
      std::lock_guard guard(oracle.mutex);
      uint64_t& c = oracle.counts[k];
      c = multimap ? c + 1 : 1;
    } else {
      const bool did = index.Erase(k);
      std::lock_guard guard(oracle.mutex);
      auto it = oracle.counts.find(k);
      const bool expected = it != oracle.counts.end() && it->second > 0;
      // Only this thread mutates k, so the return value is exact.
      if (did != expected) errors.fetch_add(1);
      if (did && it != oracle.counts.end() && --it->second == 0) {
        oracle.counts.erase(it);
      }
    }
  }
}

template <typename Wrapper>
void ReaderLoop(const Wrapper& index, int t, int ops,
                std::atomic<uint64_t>& errors) {
  Rng rng(static_cast<uint64_t>(t) * 777 + 5);
  std::vector<uint64_t> batch(64);
  std::vector<std::optional<uint64_t>> out(64);
  for (int i = 0; i < ops; ++i) {
    const uint64_t k = MakeKey(rng);
    if (const auto v = index.Find(k); v.has_value() && *v != ValueOf(k)) {
      errors.fetch_add(1);
    }
    if (i % 8 == 0) {
      for (auto& b : batch) b = MakeKey(rng);
      index.FindBatch(batch.data(), batch.size(), out.data());
      for (size_t j = 0; j < batch.size(); ++j) {
        if (out[j].has_value() && *out[j] != ValueOf(batch[j])) {
          errors.fetch_add(1);
        }
      }
    }
    if (i % 16 == 0) {
      const uint64_t lo = MakeKey(rng);
      const uint64_t hi = lo + rng.NextBounded(1u << 13);
      uint64_t prev = 0;
      bool first = true;
      index.ScanRange(lo, hi, [&](uint64_t key, const uint64_t& value) {
        if (key < lo || key >= hi || value != ValueOf(key) ||
            (!first && key < prev)) {
          errors.fetch_add(1);
        }
        prev = key;
        first = false;
      });
    }
  }
}

// Full diff at a quiescent point: nobody else is touching the index.
template <typename Wrapper>
void DiffAgainstOracle(const Wrapper& index, Oracle& oracle) {
  size_t live = 0;
  for (const auto& [k, c] : oracle.counts) live += c;
  ASSERT_EQ(index.size(), live);

  // Complete stitched scan: ascending keys, each key exactly count
  // times, every value right.
  auto it = oracle.counts.begin();
  uint64_t seen_of_key = 0;
  size_t scanned = 0;
  index.ScanRange(0, ~0ULL,
                  [&](uint64_t k, const uint64_t& v) {
                    ++scanned;
                    ASSERT_NE(it, oracle.counts.end());
                    if (seen_of_key == it->second) {
                      ++it;
                      seen_of_key = 0;
                      ASSERT_NE(it, oracle.counts.end());
                    }
                    ASSERT_EQ(k, it->first);
                    ASSERT_EQ(v, ValueOf(k));
                    ++seen_of_key;
                  },
                  /*hi_inclusive=*/true);
  ASSERT_EQ(scanned, live);

  // FindBatch over every live key plus interleaved guaranteed misses
  // (own-class keys never inserted: counts lack them).
  std::vector<uint64_t> probes;
  std::vector<bool> want_hit;
  for (const auto& [k, c] : oracle.counts) {
    probes.push_back(k);
    want_hit.push_back(true);
    const uint64_t miss = k + (1ULL << 40);
    if (oracle.counts.find(miss) == oracle.counts.end()) {
      probes.push_back(miss);
      want_hit.push_back(false);
    }
  }
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i].has_value(), static_cast<bool>(want_hit[i]))
        << "i=" << i << " key=" << probes[i];
    if (want_hit[i]) {
      ASSERT_EQ(*out[i], ValueOf(probes[i]));
      ASSERT_EQ(index.Find(probes[i]).value(), ValueOf(probes[i]));
    } else {
      ASSERT_FALSE(index.Contains(probes[i]));
    }
  }
}

template <typename Wrapper>
void RunStress(Wrapper& index, bool multimap) {
  const int writer_ops = 2000 * StressScale();
  const int reader_ops = 400 * StressScale();
  Oracle oracle;
  std::atomic<uint64_t> errors{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&, t] {
        WriterLoop(index, oracle, multimap, t, writer_ops, errors);
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back([&, t] {
        ReaderLoop(index, t + 100 * round, reader_ops, errors);
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(errors.load(), 0u) << "round " << round;
    DiffAgainstOracle(index, oracle);  // quiescent point
  }
}

using SegTree64 = segtree::SegTree<uint64_t, uint64_t>;
using BTree64 = btree::BPlusTree<uint64_t, uint64_t>;
using Trie64 = segtrie::SegTrie<uint64_t, uint64_t>;

TEST(ConcurrentStressTest, ShardedSegTree) {
  ShardedIndex<SegTree64> index(8);
  RunStress(index, /*multimap=*/true);
  EXPECT_TRUE(index.Validate());
}

TEST(ConcurrentStressTest, ShardedBPlusTree) {
  ShardedIndex<BTree64> index(8);
  RunStress(index, /*multimap=*/true);
  EXPECT_TRUE(index.Validate());
}

TEST(ConcurrentStressTest, ShardedSegTrie) {
  ShardedIndex<Trie64> index(8);
  RunStress(index, /*multimap=*/false);
  EXPECT_TRUE(index.Validate());
}

// Fewer shards than writers: guaranteed same-shard writer contention.
TEST(ConcurrentStressTest, ShardedTwoShardsContended) {
  ShardedIndex<SegTree64> index(2);
  RunStress(index, /*multimap=*/true);
  EXPECT_TRUE(index.Validate());
}

TEST(ConcurrentStressTest, SynchronizedSegTree) {
  ShardedIndex<SegTree64> index(1);
  RunStress(index, /*multimap=*/true);
  EXPECT_TRUE(index.WithShardRead(
      0, [](const SegTree64& tree) { return tree.Validate(); }));
}

TEST(ConcurrentStressTest, SynchronizedSegTrie) {
  ShardedIndex<Trie64> index(1);
  RunStress(index, /*multimap=*/false);
  EXPECT_TRUE(index.WithShardRead(
      0, [](const Trie64& trie) { return trie.Validate(); }));
}

}  // namespace
}  // namespace simdtree
