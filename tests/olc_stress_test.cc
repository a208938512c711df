// Multi-threaded differential stress for the lock-free read path
// (optimistic lock coupling + epoch reclamation, core/olc.h): readers
// run genuinely concurrent with writers — no lock between a reader's
// descent and a writer's split — so this suite is the one that must
// pass under ThreadSanitizer (the CI tsan job builds it) and it soaks
// 10x under SIMDTREE_STRESS=1 (ctest label `stress`).
//
// Scheme mirrors concurrent_stress_test: writer threads own disjoint
// congruence classes of the key space, so the quiescent state is
// interleaving-independent and a mutex-guarded std::map oracle
// converges to the exact expected contents. Values are a pure function
// of the key (self-certifying), so readers can validate every pair they
// observe mid-flight without knowing the interleaving:
//   * Find/FindBatch: a hit must carry ValueOf(key); sentinel keys that
//     are never erased must always hit.
//   * ScanRange racing splits: delivered keys must be ascending and
//     in-window, every pair self-certifying, and all sentinels inside
//     the window must appear exactly once.
// At each quiescent point the full index is diffed against the oracle.
//
// BatchAuditUnderSplitsAndMerges checks FindBatch itself against a
// per-key writer model while writers split and merge nodes, and audits
// that every key the optimistic pass defers is counted by the read
// ladder's olc.* counters.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "core/sharded.h"
#include "obs/metrics.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using Tree = btree::BPlusTree<uint64_t, uint64_t>;

// 10x everything when SIMDTREE_STRESS is set (the ctest `stress` label).
int StressScale() {
  const char* env = std::getenv("SIMDTREE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 10 : 1;
}

uint64_t ValueOf(uint64_t key) {
  return (key ^ 0xC0FFEE0DDBA11ULL) * 0x9E3779B97F4A7C15ULL;
}

constexpr int kWriters = 2;
constexpr int kReaders = 2;
constexpr uint64_t kKeySpace = 1 << 16;

// Mutex-guarded oracle, updated alongside every index mutation. Each
// writer owns key % kWriters == id, so oracle updates commute across
// writers and the quiescent diff is exact. The tree is a multimap but
// writers here never insert a live duplicate (they erase first), so the
// oracle stays a map.
struct Oracle {
  std::mutex mu;
  std::map<uint64_t, uint64_t> map;
};

template <typename IndexLike>
void WriterLoop(IndexLike& index, Oracle& oracle, int id, int ops,
                uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    uint64_t key = rng.NextBounded(kKeySpace);
    key -= key % kWriters;
    key += static_cast<uint64_t>(id);
    const bool insert = rng.NextBounded(100) < 60;
    if (insert) {
      const bool was_live = index.Erase(key);  // no live duplicates
      index.Insert(key, ValueOf(key));
      std::lock_guard<std::mutex> lock(oracle.mu);
      if (!was_live) oracle.map.emplace(key, ValueOf(key));
      else oracle.map[key] = ValueOf(key);
    } else {
      const bool erased = index.Erase(key);
      std::lock_guard<std::mutex> lock(oracle.mu);
      if (erased) oracle.map.erase(key);
    }
  }
}

// Sentinels: keys the writers never touch (key % kWriters has no owner
// gap, so carve them out of the top of the key space instead). They are
// inserted before the threads start and must be visible to every read
// forever.
std::vector<uint64_t> MakeSentinels() {
  std::vector<uint64_t> s;
  for (uint64_t k = kKeySpace; k < kKeySpace + 64; ++k) s.push_back(k);
  return s;
}

template <typename IndexLike>
void ReaderLoop(const IndexLike& index, const std::vector<uint64_t>& sentinels,
                std::atomic<bool>& stop, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> batch(48);
  std::vector<std::optional<uint64_t>> out(batch.size());
  while (!stop.load(std::memory_order_relaxed)) {
    // Single-key reads: hits must self-certify, sentinels must hit.
    for (int i = 0; i < 32; ++i) {
      const uint64_t k = rng.NextBounded(kKeySpace);
      const auto v = index.Find(k);
      if (v.has_value()) {
        ASSERT_EQ(*v, ValueOf(k)) << "torn value for key " << k;
      }
    }
    const uint64_t sentinel =
        sentinels[rng.NextBounded(sentinels.size())];
    const auto sv = index.Find(sentinel);
    ASSERT_TRUE(sv.has_value()) << "sentinel " << sentinel << " vanished";
    ASSERT_EQ(*sv, ValueOf(sentinel));

    // Batched reads through the optimistic engines.
    for (auto& b : batch) b = rng.NextBounded(kKeySpace + 64);
    batch[0] = sentinels[rng.NextBounded(sentinels.size())];
    index.FindBatch(batch.data(), batch.size(), out.data());
    for (size_t j = 0; j < batch.size(); ++j) {
      if (out[j].has_value()) {
        ASSERT_EQ(*out[j], ValueOf(batch[j]))
            << "torn batch value for key " << batch[j];
      }
    }
    ASSERT_TRUE(out[0].has_value()) << "sentinel miss in batch";

    // Range scan racing splits: ascending, in-window, self-certifying,
    // and every sentinel in the window delivered exactly once.
    const uint64_t lo = rng.NextBounded(kKeySpace);
    const uint64_t hi = lo + 1 + rng.NextBounded(4096) + 64;
    uint64_t prev = 0;
    bool first = true;
    size_t sentinel_hits = 0;
    index.ScanRange(lo, hi, [&](uint64_t k, const uint64_t& v) {
      ASSERT_GE(k, lo);
      ASSERT_LT(k, hi);
      if (!first) {
        ASSERT_GE(k, prev) << "scan went backwards";
      }
      first = false;
      prev = k;
      ASSERT_EQ(v, ValueOf(k)) << "torn scan value for key " << k;
      if (k >= kKeySpace) ++sentinel_hits;
    });
    size_t expected_sentinels = 0;
    for (uint64_t s : sentinels) {
      if (s >= lo && s < hi) ++expected_sentinels;
    }
    ASSERT_EQ(sentinel_hits, expected_sentinels)
        << "scan [" << lo << "," << hi << ") missed or duplicated a "
        << "stable sentinel";
  }
}

template <typename IndexLike>
void QuiescentDiff(const IndexLike& index, Oracle& oracle,
                   const std::vector<uint64_t>& sentinels) {
  std::map<uint64_t, uint64_t> expected;
  {
    std::lock_guard<std::mutex> lock(oracle.mu);
    expected = oracle.map;
  }
  for (uint64_t s : sentinels) expected.emplace(s, ValueOf(s));
  ASSERT_EQ(index.size(), expected.size());
  // Full stitched scan == oracle.
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  index.ScanRange(0, kKeySpace + 64,
                  [&](uint64_t k, const uint64_t& v) {
                    scanned.emplace_back(k, v);
                  });
  ASSERT_EQ(scanned.size(), expected.size());
  size_t i = 0;
  for (const auto& [k, v] : expected) {
    ASSERT_EQ(scanned[i].first, k);
    ASSERT_EQ(scanned[i].second, v);
    ++i;
  }
  // Per-key Find over every live key plus guaranteed misses.
  for (const auto& [k, v] : expected) {
    const auto got = index.Find(k);
    ASSERT_TRUE(got.has_value()) << "live key " << k << " missing";
    ASSERT_EQ(*got, v);
  }
  for (uint64_t k = kKeySpace + 64; k < kKeySpace + 96; ++k) {
    ASSERT_FALSE(index.Find(k).has_value());
  }
}

template <typename IndexLike>
void RunDifferential(IndexLike& index, int rounds, int ops_per_round) {
  Oracle oracle;
  const std::vector<uint64_t> sentinels = MakeSentinels();
  for (uint64_t s : sentinels) {
    index.Insert(s, ValueOf(s));
  }
  for (int round = 0; round < rounds; ++round) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (int w = 0; w < kWriters; ++w) {
      pool.emplace_back([&, w] {
        WriterLoop(index, oracle, w, ops_per_round,
                   0xABCD + static_cast<uint64_t>(round) * 131 +
                       static_cast<uint64_t>(w));
      });
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        ReaderLoop(index, sentinels, stop,
                   0x1234 + static_cast<uint64_t>(round) * 977 +
                       static_cast<uint64_t>(r));
      });
    }
    for (auto& th : pool) th.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : readers) th.join();
    QuiescentDiff(index, oracle, sentinels);
  }
}

TEST(OlcStress, ShardedDifferential) {
  const int scale = StressScale();
  std::vector<uint64_t> sample;
  for (uint64_t k = 0; k < kKeySpace + 64; k += 97) sample.push_back(k);
  ShardedIndex<Tree> index(
      4, ShardedIndex<Tree>::SplittersFromSample(sample.data(),
                                                 sample.size(), 4));
  RunDifferential(index, /*rounds=*/2 * scale, /*ops_per_round=*/4000);
}

TEST(OlcStress, SynchronizedDifferential) {
  const int scale = StressScale();
  ShardedIndex<Tree> index(1);
  RunDifferential(index, /*rounds=*/2 * scale, /*ops_per_round=*/4000);
}

// Reclamation churn: writers bulk-erase and re-insert whole key blocks
// (forcing merges, frees, quarantine traffic, and slab-level reuse)
// while readers stay in flight. Any use-after-reclaim surfaces as a
// torn (non-self-certifying) value, a fault, or a TSan report.
TEST(OlcStress, EpochReclamationChurn) {
  const int scale = StressScale();
  ShardedIndex<Tree> index(1);
  const std::vector<uint64_t> sentinels = MakeSentinels();
  for (uint64_t s : sentinels) index.Insert(s, ValueOf(s));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLoop(index, sentinels, stop, 0x7777 + static_cast<uint64_t>(r));
    });
  }
  const int churns = 20 * scale;
  for (int c = 0; c < churns; ++c) {
    const uint64_t base = (static_cast<uint64_t>(c) % 8) * 4096;
    for (uint64_t k = base; k < base + 4096; ++k) {
      index.Insert(k, ValueOf(k));
    }
    for (uint64_t k = base; k < base + 4096; ++k) {
      index.Erase(k);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  for (uint64_t s : sentinels) {
    const auto v = index.Find(s);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, ValueOf(s));
  }
  ASSERT_EQ(index.size(), sentinels.size());
}

// A tree that counts the keys its optimistic batch passes defer: the
// ShardedIndex read ladder calls these by the Index type, so the
// wrappers see every deferral.
struct AuditedTree : Tree {
  static inline std::atomic<uint64_t> deferred{0};

  template <typename TreeOf>
  static void FindBatchOptimisticOver(const TreeOf& tree_of,
                                      const uint64_t* keys, size_t n,
                                      std::optional<uint64_t>* out,
                                      std::vector<uint32_t>* failed) {
    const size_t before = failed->size();
    Tree::FindBatchOptimisticOver(tree_of, keys, n, out, failed);
    deferred += failed->size() - before;
  }
  void FindBatchGroupedOptimistic(const uint64_t* keys, size_t n,
                                  std::optional<uint64_t>* out,
                                  std::vector<uint32_t>* failed,
                                  obs::DescentTrace* t = nullptr) const {
    const size_t before = failed->size();
    Tree::FindBatchGroupedOptimistic(keys, n, out, failed, t);
    deferred += failed->size() - before;
  }
};

// Writers fill and empty whole key blocks (ascending inserts split
// leaves and inner nodes, the erases merge them) while one reader runs
// FindBatch over keys of every shard. Each key carries a seqlock-style
// model: its writer bumps ver[k] to odd before mutating and to even
// after, with present[k] set in between (all sequentially consistent).
// The reader snapshots ver[k] and then present[k] before the call and
// reads ver[k] again after it: when both reads of ver[k] return the same
// even value, no mutation of k overlapped the call, and the answer is
// exact — a hit iff the snapshot says present, with ValueOf(k). The
// reader is the only thread reading the index, so the olc.* counter
// deltas around one call are that call's: the keys its optimistic pass deferred all enter
// olc.read_retries on the first retry rung, and a call that deferred
// nothing touches neither counter.
TEST(OlcStress, BatchAuditUnderSplitsAndMerges) {
  const int scale = StressScale();
  constexpr uint64_t kBlock = 2048;
  constexpr uint64_t kBlocks = 24;
  constexpr uint64_t kSpace = kBlock * kBlocks;
  std::vector<uint64_t> sample;
  for (uint64_t k = 0; k < kSpace; k += 64) sample.push_back(k);
  ShardedIndex<AuditedTree> index(
      4, ShardedIndex<AuditedTree>::SplittersFromSample(sample.data(),
                                                        sample.size(), 4));
  std::vector<std::atomic<uint32_t>> ver(kSpace);
  std::vector<std::atomic<bool>> present(kSpace);
  // Odd blocks are always full: a stable backdrop of hits around the
  // churning even blocks.
  for (uint64_t b = 1; b < kBlocks; b += 2) {
    for (uint64_t k = b * kBlock; k < (b + 1) * kBlock; ++k) {
      index.Insert(k, ValueOf(k));
      present[k].store(true);
    }
  }
  const auto mutate = [&](uint64_t k, bool insert) {
    ver[k].fetch_add(1);
    if (insert) {
      index.Insert(k, ValueOf(k));
    } else {
      ASSERT_TRUE(index.Erase(k));
    }
    present[k].store(insert);
    ver[k].fetch_add(1);
  };

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(0x5EED + static_cast<uint64_t>(w));
      for (int round = 0; round < 40 * scale; ++round) {
        // Writer w owns the even blocks b with b / 2 % kWriters == w.
        const uint64_t b =
            2 * (rng.NextBounded(kBlocks / 2 / kWriters) * kWriters +
                 static_cast<uint64_t>(w));
        for (uint64_t k = b * kBlock; k < (b + 1) * kBlock; ++k) {
          mutate(k, true);
        }
        for (uint64_t k = b * kBlock; k < (b + 1) * kBlock; ++k) {
          mutate(k, false);
        }
      }
    });
  }

  const obs::OlcMetrics m = obs::OlcMetrics::Register();
  Rng rng(0xA0D17);
  uint64_t batches = 0;
  uint64_t exact = 0;
  uint64_t deferred_total = 0;
  std::thread reader([&] {
    std::vector<uint64_t> batch;
    std::vector<uint32_t> before;
    std::vector<uint8_t> was_present;
    std::vector<std::optional<uint64_t>> out;
    const size_t sizes[] = {2, 17, 64, 287, 288, 1200};
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t n = sizes[batches % 6];
      batch.resize(n);
      before.resize(n);
      was_present.resize(n);
      out.assign(n, std::optional<uint64_t>(1));
      for (size_t i = 0; i < n; ++i) {
        batch[i] = rng.NextBounded(kSpace + 64);  // tail: never written
        if (batch[i] < kSpace) {
          before[i] = ver[batch[i]].load();
          was_present[i] = present[batch[i]].load() ? 1 : 0;
        }
      }
      const uint64_t d0 = AuditedTree::deferred.load();
      const uint64_t r0 = m.read_retries->Get();
      const uint64_t f0 = m.fallback_acquisitions->Get();
      index.FindBatch(batch.data(), n, out.data());
      const uint64_t deferred = AuditedTree::deferred.load() - d0;
      const uint64_t retries = m.read_retries->Get() - r0;
      const uint64_t fallbacks = m.fallback_acquisitions->Get() - f0;
      ASSERT_GE(retries, deferred) << "a deferred key went uncounted";
      if (deferred == 0) {
        ASSERT_EQ(retries, 0u);
        ASSERT_EQ(fallbacks, 0u);
      }
      deferred_total += deferred;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t k = batch[i];
        if (out[i].has_value()) {
          ASSERT_EQ(*out[i], ValueOf(k)) << "torn batch value for key " << k;
        }
        if (k >= kSpace) {
          ASSERT_FALSE(out[i].has_value()) << "unwritten key " << k;
          continue;
        }
        const uint32_t after = ver[k].load();
        if (after != before[i] || after % 2 != 0) continue;
        ++exact;
        ASSERT_EQ(out[i].has_value(), was_present[i] != 0)
            << "key " << k << " stable across a call of " << n << " keys";
      }
      ++batches;
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(batches, 0u);
  EXPECT_GT(exact, 0u);
  RecordProperty("deferred_keys", std::to_string(deferred_total));
  ASSERT_TRUE(index.Validate());
  for (uint64_t k = 0; k < kSpace; ++k) {
    ASSERT_EQ(index.Find(k).has_value(), present[k].load()) << "key " << k;
  }
}

}  // namespace
}  // namespace simdtree
