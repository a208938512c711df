// Unit tests for the optimistic-lock-coupling primitives (core/olc.h),
// the NodePool's epoch-deferred reclamation (mem/arena.h), and the
// B+-tree's optimistic read paths against their locked twins — on both
// key stores, and with a writer injected between a reader's route to a
// leaf and its entry into it.
//
// Everything here is tier-1: single-process, deterministic, fast. The
// multi-threaded differential suites live in olc_stress_test.cc.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "core/olc.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "kary/layout.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "segtree/segtree.h"

namespace simdtree {
namespace {

using btree::BPlusTree;

TEST(VersionWord, SeqlockProtocol) {
  olc::VersionWord w;
  const uint64_t v0 = w.ReadBegin();
  EXPECT_TRUE(olc::VersionWord::IsStable(v0));
  EXPECT_TRUE(w.Validate(v0));
  EXPECT_FALSE(w.IsLockedOrDead());

  w.Lock();
  EXPECT_TRUE(w.IsLockedOrDead());
  EXPECT_FALSE(olc::VersionWord::IsStable(w.ReadBegin()));
  EXPECT_FALSE(w.Validate(v0));  // writer in progress

  w.Unlock();
  EXPECT_FALSE(w.IsLockedOrDead());
  const uint64_t v1 = w.ReadBegin();
  EXPECT_TRUE(olc::VersionWord::IsStable(v1));
  EXPECT_EQ(v1, v0 + 2);       // one full write cycle advances by 2
  EXPECT_FALSE(w.Validate(v0));  // writer completed in between
  EXPECT_TRUE(w.Validate(v1));
}

TEST(VersionWord, MarkDeadIsPermanentlyOdd) {
  olc::VersionWord w;
  w.MarkDead();
  EXPECT_TRUE(w.IsLockedOrDead());
  const uint64_t dead = w.ReadBegin();
  EXPECT_FALSE(olc::VersionWord::IsStable(dead));
  // Idempotent: a second MarkDead must not flip the word back to even.
  w.MarkDead();
  EXPECT_TRUE(w.IsLockedOrDead());
  EXPECT_EQ(w.ReadBegin(), dead);
}

TEST(VersionWord, MarkDeadOnLockedNodeStaysOdd) {
  // The Dismiss-before-free invariant's backstop: freeing a node whose
  // guard still holds the lock leaves the word odd (the guard must
  // Dismiss first, but MarkDead alone must never create an even word).
  olc::VersionWord w;
  w.Lock();
  const uint64_t locked = w.ReadBegin();
  w.MarkDead();
  EXPECT_EQ(w.ReadBegin(), locked);
  EXPECT_TRUE(w.IsLockedOrDead());
}

TEST(Epoch, PinNestingAndAdvance) {
  olc::EpochManager& em = olc::EpochManager::Global();
  const uint64_t start = em.current();
  {
    olc::EpochGuard outer;
    ASSERT_TRUE(outer.pinned());
    EXPECT_LE(em.MinActive(), em.current());
    {
      olc::EpochGuard inner;  // nested pin on the same thread
      EXPECT_TRUE(inner.pinned());
      EXPECT_LE(em.MinActive(), em.current());
    }
    // Still pinned by the outer guard.
    EXPECT_NE(em.MinActive(), olc::EpochManager::kIdle);
  }
  EXPECT_EQ(em.MinActive(), olc::EpochManager::kIdle);
  EXPECT_TRUE(em.TryAdvance());
  EXPECT_EQ(em.current(), start + 1);
}

TEST(Epoch, LaggingPinBlocksAdvance) {
  olc::EpochManager& em = olc::EpochManager::Global();
  olc::EpochGuard guard;
  ASSERT_TRUE(guard.pinned());
  const uint64_t pinned_at = em.current();
  // A pin at the current epoch does not block the first advance...
  EXPECT_TRUE(em.TryAdvance());
  // ...but now the pin lags the global epoch, so reclamation of
  // anything freed at the new epoch must wait: no further advance.
  EXPECT_EQ(em.MinActive(), pinned_at);
  EXPECT_FALSE(em.TryAdvance());
}

TEST(NodePoolDeferred, EnableRequiresArenaAndManager) {
  mem::NodePool pool(/*block_bytes=*/64);
  EXPECT_FALSE(pool.EnableDeferredReclamation(nullptr));
  if (!pool.arena_mode()) {
    // Heap fallback (SIMDTREE_DISABLE_ARENA=1): deferral must refuse so
    // the wrappers keep the locked read path.
    EXPECT_FALSE(
        pool.EnableDeferredReclamation(&olc::EpochManager::Global()));
    return;
  }
  EXPECT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));
  EXPECT_TRUE(pool.deferred_enabled());
  // Idempotent.
  EXPECT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));
}

TEST(NodePoolDeferred, NoReuseWhileReaderPinned) {
  mem::NodePool pool(/*block_bytes=*/64);
  if (!pool.arena_mode()) GTEST_SKIP() << "arena disabled";
  ASSERT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));

  uint32_t slot = 0;
  void* block = pool.Alloc(&slot);
  ASSERT_NE(block, nullptr);
  std::memset(block, 0xAB, 64);

  olc::EpochGuard reader;
  ASSERT_TRUE(reader.pinned());
  pool.Free(block, slot);

  // The slot is quarantined, not recycled: its memory stays mapped (a
  // stale optimistic reader may still dereference it) and no new
  // allocation may alias it while this reader's pin is in flight.
  EXPECT_EQ(pool.DecodeOptimistic(slot), block);
  std::vector<std::pair<void*, uint32_t>> taken;
  for (int i = 0; i < 64; ++i) {
    uint32_t s = 0;
    void* p = pool.Alloc(&s);
    ASSERT_NE(p, nullptr);
    EXPECT_NE(s, slot) << "quarantined slot recycled under a pinned reader";
    taken.emplace_back(p, s);
  }
  const mem::ArenaStats pinned_stats = pool.Stats();
  EXPECT_GE(pinned_stats.deferred_blocks, 1u);
  for (auto& [p, s] : taken) pool.Free(p, s);
}

TEST(NodePoolDeferred, ReuseAfterReadersAdvance) {
  mem::NodePool pool(/*block_bytes=*/64);
  if (!pool.arena_mode()) GTEST_SKIP() << "arena disabled";
  olc::EpochManager& em = olc::EpochManager::Global();
  ASSERT_TRUE(pool.EnableDeferredReclamation(&em));

  uint32_t slot = 0;
  void* block = pool.Alloc(&slot);
  ASSERT_NE(block, nullptr);
  pool.Free(block, slot);

  // No reader in flight: after the epoch advances past the free, the
  // quarantine drains (Alloc runs TryAdvance+Purge itself) and the slot
  // re-enters circulation. Bounded loop: each Alloc advances at most
  // one epoch, the bucket needs MinActive() > its epoch.
  bool reused = false;
  std::vector<std::pair<void*, uint32_t>> taken;
  for (int i = 0; i < 8 && !reused; ++i) {
    uint32_t s = 0;
    void* p = pool.Alloc(&s);
    ASSERT_NE(p, nullptr);
    if (s == slot) {
      reused = true;
      pool.Free(p, s);
      break;
    }
    taken.emplace_back(p, s);
  }
  EXPECT_TRUE(reused) << "freed slot never drained from quarantine";
  for (auto& [p, s] : taken) pool.Free(p, s);
}

TEST(NodePoolDeferred, TornSlotDecodesToNull) {
  mem::NodePool pool(/*block_bytes=*/64);
  if (!pool.arena_mode()) GTEST_SKIP() << "arena disabled";
  ASSERT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));
  uint32_t slot = 0;
  ASSERT_NE(pool.Alloc(&slot), nullptr);
  // Garbage refs (as a torn optimistic load would produce) must decode
  // to nullptr, never fault: out-of-range slab index and out-of-range
  // block index within a live slab.
  EXPECT_EQ(pool.DecodeOptimistic(~uint32_t{0}), nullptr);
  EXPECT_EQ(pool.DecodeOptimistic(slot | (uint32_t{1} << 30)), nullptr);
}

// --- tree-level optimistic paths vs their locked twins ---------------------

using Tree = BPlusTree<uint64_t, uint64_t>;

uint64_t ValueOf(uint64_t k) { return k * 0x9E3779B97F4A7C15ULL + 1; }

TEST(TreeOptimistic, EnableMatchesArenaMode) {
  Tree tree;
  const bool enabled = tree.EnableConcurrentReads();
  // Arena-backed trees with trivially-copyable payloads must arm; the
  // heap fallback must refuse (its decode path is not reader-safe).
  mem::NodePool probe(64);
  EXPECT_EQ(enabled, probe.arena_mode());
  EXPECT_EQ(tree.concurrent_reads_enabled(), enabled);
}

TEST(TreeOptimistic, FindMatchesLockedFind) {
  Tree tree;
  if (!tree.EnableConcurrentReads()) GTEST_SKIP() << "arena disabled";
  constexpr uint64_t kN = 5000;
  for (uint64_t k = 0; k < kN; ++k) tree.Insert(k * 3, ValueOf(k * 3));
  for (uint64_t k = 0; k < kN / 2; ++k) tree.Erase(k * 6);

  for (uint64_t probe = 0; probe < kN * 3 + 5; ++probe) {
    std::optional<uint64_t> opt;
    ASSERT_EQ(tree.FindOptimistic(probe, &opt), olc::ReadResult::kOk);
    EXPECT_EQ(opt, tree.Find(probe)) << "key " << probe;
  }
  EXPECT_GE(tree.height_hint(), 1);
}

TEST(TreeOptimistic, BatchEnginesMatchLockedFind) {
  Tree tree;
  if (!tree.EnableConcurrentReads()) GTEST_SKIP() << "arena disabled";
  constexpr uint64_t kN = 4096;
  for (uint64_t k = 0; k < kN; ++k) tree.Insert(k * 7, ValueOf(k * 7));

  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < kN * 7 + 10; k += 3) keys.push_back(k);
  std::vector<std::optional<uint64_t>> out(keys.size());
  std::vector<uint32_t> failed;

  tree.FindBatchOptimistic(keys.data(), keys.size(), out.data(), &failed);
  EXPECT_TRUE(failed.empty());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], tree.Find(keys[i])) << "pipelined key " << keys[i];
  }

  std::fill(out.begin(), out.end(), std::nullopt);
  failed.clear();
  tree.FindBatchGroupedOptimistic(keys.data(), keys.size(), out.data(),
                                  &failed);
  EXPECT_TRUE(failed.empty());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], tree.Find(keys[i])) << "grouped key " << keys[i];
  }
}

TEST(TreeOptimistic, ScanMatchesLockedScan) {
  Tree tree;
  if (!tree.EnableConcurrentReads()) GTEST_SKIP() << "arena disabled";
  constexpr uint64_t kN = 3000;
  for (uint64_t k = 0; k < kN; ++k) tree.Insert(k * 2, ValueOf(k * 2));
  // Duplicates at a few keys: the resume protocol must count them.
  for (int i = 0; i < 5; ++i) tree.Insert(100, ValueOf(100));

  for (const bool inclusive : {false, true}) {
    std::vector<std::pair<uint64_t, uint64_t>> locked, optimistic;
    tree.ScanRange(
        50, 4000,
        [&](uint64_t k, const uint64_t& v) { locked.emplace_back(k, v); },
        inclusive);
    uint64_t resume = 50;
    uint32_t skip = 0;
    ASSERT_EQ(tree.ScanRangeOptimistic(
                  4000, inclusive, &resume, &skip,
                  [&](uint64_t k, const uint64_t& v) {
                    optimistic.emplace_back(k, v);
                  }),
              olc::ReadResult::kOk);
    EXPECT_EQ(optimistic, locked) << "inclusive=" << inclusive;
  }
}

TEST(TreeOptimistic, ClearThenReuseStaysConsistent) {
  Tree tree;
  if (!tree.EnableConcurrentReads()) GTEST_SKIP() << "arena disabled";
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 2000; ++k) tree.Insert(k, ValueOf(k + round));
    tree.Clear();
    EXPECT_EQ(tree.size(), 0u);
    std::optional<uint64_t> opt;
    ASSERT_EQ(tree.FindOptimistic(7, &opt), olc::ReadResult::kOk);
    EXPECT_FALSE(opt.has_value());
  }
  for (uint64_t k = 0; k < 2000; ++k) tree.Insert(k, ValueOf(k));
  std::optional<uint64_t> opt;
  ASSERT_EQ(tree.FindOptimistic(1234, &opt), olc::ReadResult::kOk);
  EXPECT_EQ(opt, std::optional<uint64_t>(ValueOf(1234)));
}

TEST(OlcMetricsTest, RegistersAndPublishes) {
  const obs::OlcMetrics m = obs::OlcMetrics::Register();
  ASSERT_NE(m.read_retries, nullptr);
  ASSERT_NE(m.fallback_acquisitions, nullptr);
  obs::PublishEpochStats();
  // The global epoch starts at 1 and only ever advances.
  EXPECT_GE(m.epoch_current->Get(), 1.0);
  EXPECT_GE(m.epoch_deferred_slabs->Get(), 0.0);
  EXPECT_GE(m.epoch_deferred_blocks->Get(), 0.0);
}

TEST(ForceShardLocks, MatchesEnvironment) {
  const char* env = std::getenv("SIMDTREE_FORCE_SHARD_LOCKS");
  const bool expect = env != nullptr && env[0] != '\0' && env[0] != '0';
  EXPECT_EQ(olc::ForceShardLocks(), expect);
}


// --- a writer between route and entry ---------------------------------------
//
// An optimistic reader validates the node that routes it to a leaf, then
// reads the leaf's version. WriterBeforeLeaf runs a writer in exactly
// that window, once: the first time a reader is about to enter a leaf.
// The library's own Optimistic protocol leaves the hook empty.

struct WriterBeforeLeaf : btree::Optimistic {
  static inline std::function<void()> writer;
  static void Routed(bool to_leaf) {
    if (to_leaf && writer) std::exchange(writer, nullptr)();
  }
};

// Keys 0, 2, ..., 126 in full capacity-8 leaves [0..14] [16..30] ...
// under one root with separators 16, 32, ..., 112.
Tree EvenKeysTree() {
  std::vector<uint64_t> keys, values;
  for (uint64_t k = 0; k < 128; k += 2) {
    keys.push_back(k);
    values.push_back(ValueOf(k));
  }
  return Tree::BulkLoad(keys.data(), values.data(), keys.size(), 1.0,
                        /*capacity=*/8);
}

// The writers, each run from the reader's window.
// Split: inserting 17 splits the full leaf [16..30]; 24..30 move to a
// new right sibling.
void SplitSecondLeaf(Tree* tree) { tree->Insert(17, ValueOf(17)); }

// Borrow: after PrepareBorrow the first leaf holds [10, 12, 14] (the
// minimum of 3) and the second [18..30] under the stale separator 16.
// Erasing 10 underflows the first leaf, which borrows 18 from the
// second (BorrowFromRight): a reader routed to the second leaf for 18
// no longer finds it there.
void PrepareBorrow(Tree* tree) {
  for (const uint64_t k : {16, 0, 2, 4, 6, 8}) ASSERT_TRUE(tree->Erase(k));
}
void BorrowIntoFirstLeaf(Tree* tree) { ASSERT_TRUE(tree->Erase(10)); }

struct WindowCase {
  const char* name;
  bool borrow;       // BorrowIntoFirstLeaf, else SplitSecondLeaf
  uint64_t probe;    // a key the writer moves out of the routed leaf
  uint64_t lo, hi;   // a scan range over the moved keys
};

const WindowCase kWindowCases[] = {
    {"split", false, 30, 24, 40},
    {"borrow", true, 18, 18, 30},
};

// Sets up `c`'s tree with the writer armed; false when the tree cannot
// arm optimistic reads (heap mode).
bool ArmWindow(const WindowCase& c, Tree* tree) {
  *tree = EvenKeysTree();
  if (!tree->EnableConcurrentReads()) return false;
  if (c.borrow) PrepareBorrow(tree);
  WriterBeforeLeaf::writer = [tree, borrow = c.borrow] {
    borrow ? BorrowIntoFirstLeaf(tree) : SplitSecondLeaf(tree);
  };
  return true;
}

TEST(RouteThenEnter, FindOptimisticRetriesAndMatchesLockedFind) {
  for (const WindowCase& c : kWindowCases) {
    SCOPED_TRACE(c.name);
    Tree tree;
    if (!ArmWindow(c, &tree)) GTEST_SKIP() << "arena disabled";
    olc::EpochGuard pin;
    std::optional<uint64_t> got;
    // The writer changed the routed leaf's range: the first attempt
    // must conflict, the retry must see the new tree.
    EXPECT_EQ(tree.FindOptimistic<WriterBeforeLeaf>(c.probe, &got),
              olc::ReadResult::kConflict);
    EXPECT_FALSE(WriterBeforeLeaf::writer) << "writer never ran";
    ASSERT_EQ(tree.FindOptimistic<WriterBeforeLeaf>(c.probe, &got),
              olc::ReadResult::kOk);
    EXPECT_EQ(got, tree.Find(c.probe));
    EXPECT_TRUE(got.has_value());
    EXPECT_TRUE(tree.Validate());
  }
}

TEST(RouteThenEnter, GroupedOptimisticRetriesAndMatchesLockedFind) {
  for (const WindowCase& c : kWindowCases) {
    SCOPED_TRACE(c.name);
    Tree tree;
    if (!ArmWindow(c, &tree)) GTEST_SKIP() << "arena disabled";
    olc::EpochGuard pin;
    // Every key routes to the leaf the writer changes.
    const std::vector<uint64_t> keys = {c.probe - 4, c.probe - 2, c.probe};
    std::vector<std::optional<uint64_t>> out(keys.size());
    std::vector<uint32_t> failed;
    tree.FindBatchGroupedOptimistic<WriterBeforeLeaf>(keys.data(), keys.size(),
                                                      out.data(), &failed);
    EXPECT_FALSE(WriterBeforeLeaf::writer) << "writer never ran";
    EXPECT_EQ(failed.size(), keys.size());
    failed.clear();
    tree.FindBatchGroupedOptimistic<WriterBeforeLeaf>(keys.data(), keys.size(),
                                                      out.data(), &failed);
    EXPECT_TRUE(failed.empty());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(out[i], tree.Find(keys[i])) << "key " << keys[i];
    }
  }
}

TEST(RouteThenEnter, ScanRangeOptimisticDeliversEveryPairOnce) {
  for (const WindowCase& c : kWindowCases) {
    SCOPED_TRACE(c.name);
    Tree tree;
    if (!ArmWindow(c, &tree)) GTEST_SKIP() << "arena disabled";
    std::vector<std::pair<uint64_t, uint64_t>> got;
    uint64_t resume = c.lo;
    uint32_t skip = 0;
    int attempts = 0;
    {
      olc::EpochGuard pin;
      while (attempts < 4) {
        ++attempts;
        if (tree.ScanRangeOptimistic<WriterBeforeLeaf>(
                c.hi, /*hi_inclusive=*/false, &resume, &skip,
                [&](uint64_t k, const uint64_t& v) {
                  got.emplace_back(k, v);
                }) == olc::ReadResult::kOk) {
          break;
        }
      }
    }
    EXPECT_FALSE(WriterBeforeLeaf::writer) << "writer never ran";
    EXPECT_EQ(attempts, 2);
    std::vector<std::pair<uint64_t, uint64_t>> locked;
    tree.ScanRange(c.lo, c.hi, [&](uint64_t k, const uint64_t& v) {
      locked.emplace_back(k, v);
    });
    EXPECT_EQ(got, locked);
  }
}

// --- a writer inside an entered node ----------------------------------------
//
// The grouped descent enters a run's node on one turn and ends the run's
// use of it turns later, once the window has come round (its search of
// the run's first query takes a turn per key line). WriterInNode runs a
// writer in exactly that span, once: the first time a reader has entered
// a node of the armed level (EnterNode's Entered hook). The library's
// own Optimistic protocol leaves the hook empty.

struct WriterInNode : btree::Optimistic {
  static inline bool at_leaf = false;
  static inline std::function<void()> writer;
  static void Entered(bool leaf) {
    if (leaf == at_leaf && writer) std::exchange(writer, nullptr)();
  }
};

using SegTree64 = segtree::SegTree<uint64_t, uint64_t>;

// Keys 0, 2, ..., 126 in full capacity-8 leaves [0..14] [16..30] ...
// under one root (height 2); 20 erased, so the second leaf has room.
SegTree64 EnteredWindowTree() {
  std::vector<uint64_t> keys, values;
  for (uint64_t k = 0; k < 128; k += 2) {
    keys.push_back(k);
    values.push_back(ValueOf(k));
  }
  SegTree64 tree = SegTree64::BulkLoad(keys.data(), values.data(),
                                       keys.size(), 1.0, /*capacity=*/8);
  EXPECT_TRUE(tree.Erase(20));
  return tree;
}

// Inner level: the writer splits the full third leaf [32..46] under the
// root the reader has entered, inserting a separator into the middle of
// the root's linearized keys; every run of the batch routes through the
// root, so all keys conflict once. Leaf level: a relinearizing insert
// into the first leaf entered, [16..30] (not its largest key, so the
// Seg-Tree store rebuilds its layout); that leaf's run conflicts and the
// other leaves' runs commit.
struct EnteredCase {
  const char* name;
  bool at_leaf;
  uint64_t insert;
};
const EnteredCase kEnteredCases[] = {{"inner", false, 33},
                                     {"leaf", true, 21}};

TEST(EnteredThenWrite, GroupedRunConflictsOnceAndMatchesLockedFind) {
  for (const EnteredCase& c : kEnteredCases) {
    SCOPED_TRACE(c.name);
    SegTree64 tree = EnteredWindowTree();
    if (!tree.EnableConcurrentReads()) GTEST_SKIP() << "arena disabled";
    ASSERT_EQ(tree.height(), 2);
    WriterInNode::at_leaf = c.at_leaf;
    WriterInNode::writer = [&tree, &c] {
      tree.Insert(c.insert, ValueOf(c.insert));
    };
    olc::EpochGuard pin;
    // Runs in leaves [16..30], [32..46] and [64..78].
    const std::vector<uint64_t> keys = {18, 19, 30, 36, 44, 44, 64, 71};
    std::vector<std::optional<uint64_t>> out(keys.size());
    std::vector<uint32_t> failed;
    tree.FindBatchGroupedOptimistic<WriterInNode>(keys.data(), keys.size(),
                                                  out.data(), &failed);
    EXPECT_FALSE(WriterInNode::writer) << "writer never ran";
    std::sort(failed.begin(), failed.end());
    const std::vector<uint32_t> want_failed =
        c.at_leaf ? std::vector<uint32_t>{0, 1, 2}
                  : std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(failed, want_failed);
    failed.clear();
    tree.FindBatchGroupedOptimistic<WriterInNode>(keys.data(), keys.size(),
                                                  out.data(), &failed);
    EXPECT_TRUE(failed.empty());
    for (size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(out[i], tree.Find(keys[i])) << "key " << keys[i];
    }
    EXPECT_TRUE(tree.Find(c.insert).has_value());
    EXPECT_TRUE(tree.Validate());
  }
}

// The same writers through ShardedIndex::FindBatch: a tree whose grouped
// engine runs under WriterInNode and counts its calls, so the test can
// assert that shard 0's slice, above its grouped threshold, reached the
// grouped engine (cut from the batch sorted once), while shard 1's small
// slice took the interleaved pass. The conflicted run's keys each enter
// olc.read_retries once, their retry succeeds, and no lock is taken.
struct EnteredHookTree : SegTree64 {
  static inline int grouped_calls = 0;
  void FindBatchGroupedOptimistic(const uint64_t* keys, size_t n,
                                  std::optional<uint64_t>* out,
                                  std::vector<uint32_t>* failed) const {
    ++grouped_calls;
    SegTree64::FindBatchGroupedOptimistic<WriterInNode>(keys, n, out, failed);
  }
};

TEST(EnteredThenWrite, ShardedGroupedSliceConflictsOnceAndMatchesLockedFind) {
  constexpr uint64_t kSplit = 1u << 20;
  for (const EnteredCase& c : kEnteredCases) {
    SCOPED_TRACE(c.name);
    ShardedIndex<EnteredHookTree> index(2, {kSplit});
    // Shard 0: 4000 even keys, height 2; shard 1: 50 keys, one leaf.
    for (uint64_t k = 0; k < 8000; k += 2) index.Insert(k, ValueOf(k));
    for (uint64_t k = kSplit; k < kSplit + 100; k += 2) {
      index.Insert(k, ValueOf(k));
    }
    const int height =
        index.WithShardRead(0, [](const SegTree64& t) { return t.height(); });
    ASSERT_EQ(height, 2);
    // 400 keys of shard 0 (from 1000 on, odd ones miss) and 10 of
    // shard 1, interleaved in caller order.
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 400; ++i) {
      keys.push_back(1000 + 3 * i);
      if (i % 40 == 0) keys.push_back(kSplit + 2 * (i / 40));
    }
    ASSERT_GE(400u, static_cast<size_t>(height) * kGroupedMinBatchPerLevel);
    // Inner: 300 appends past shard 0's last key, more than a leaf
    // holds, so the last leaf splits under the root. Leaf: a
    // relinearizing insert into the first leaf the batch enters.
    WriterInNode::at_leaf = c.at_leaf;
    WriterInNode::writer = [&index, &c] {
      if (c.at_leaf) {
        index.Insert(1001, ValueOf(1001));
      } else {
        for (uint64_t k = 8001; k < 8001 + 2 * 300; k += 2) {
          index.Insert(k, ValueOf(k));
        }
      }
    };
    const obs::OlcMetrics m = obs::OlcMetrics::Register();
    const uint64_t r0 = m.read_retries->Get();
    const uint64_t f0 = m.fallback_acquisitions->Get();
    EnteredHookTree::grouped_calls = 0;
    std::vector<std::optional<uint64_t>> out(keys.size());
    index.FindBatch(keys.data(), keys.size(), out.data());
    const uint64_t retries = m.read_retries->Get() - r0;
    if (!index.WithShardRead(
            0, [](const SegTree64& t) { return t.concurrent_reads_enabled(); })) {
      WriterInNode::writer = nullptr;
      GTEST_SKIP() << "optimistic reads not armed";
    }
    EXPECT_EQ(EnteredHookTree::grouped_calls, 1);
    EXPECT_FALSE(WriterInNode::writer) << "writer never ran";
    EXPECT_EQ(m.fallback_acquisitions->Get(), f0);
    if (c.at_leaf) {
      EXPECT_GT(retries, 0u);
      EXPECT_LT(retries, 400u);
    } else {
      EXPECT_EQ(retries, 400u);  // the whole slice, once
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      const size_t s = index.ShardOf(keys[i]);
      const auto locked = index.WithShardRead(
          s, [&](const SegTree64& t) { return t.Find(keys[i]); });
      EXPECT_EQ(out[i], locked) << "key " << keys[i];
    }
    EXPECT_TRUE(index.Validate());
  }
}

// --- optimistic reads on the SIMD key store ---------------------------------
//
// The optimistic and Plain descents against the locked reads on Seg-Trees
// of both layouts and two key widths, on a quiescent tree whose shape
// exercises every leaf-level case: a duplicate run spanning many leaves,
// stale separators left by erased keys (previous-leaf hops), and gaps at
// every leaf end (right-edge misses).

template <typename T>
class SegTreeOptimistic : public ::testing::Test {};

using SegTrees = ::testing::Types<
    segtree::SegTree<uint32_t, uint64_t, kary::Layout::kBreadthFirst>,
    segtree::SegTree<uint32_t, uint64_t, kary::Layout::kDepthFirst>,
    segtree::SegTree<uint64_t, uint64_t, kary::Layout::kBreadthFirst>,
    segtree::SegTree<uint64_t, uint64_t, kary::Layout::kDepthFirst>>;
TYPED_TEST_SUITE(SegTreeOptimistic, SegTrees);

TYPED_TEST(SegTreeOptimistic, MatchesLockedReads) {
  using Key = typename TypeParam::KeyType;
  TypeParam tree(/*capacity=*/16);
  if (!tree.EnableConcurrentReads()) GTEST_SKIP() << "arena disabled";
  constexpr Key kDup = 4500;
  std::vector<Key> model;
  // Multiples of 3 (gaps at every leaf end), a 200-long run of kDup,
  // then about a fifth of the keys erased.
  for (Key k = 0; k < 9000; k += 3) tree.Insert(k, ValueOf(k));
  for (int i = 0; i < 200; ++i) tree.Insert(kDup, ValueOf(kDup));
  for (Key k = 0; k < 9000; k += 3) {
    if (k != kDup && (k / 3) % 5 == 2) {
      ASSERT_TRUE(tree.Erase(k));
    }
  }
  ASSERT_TRUE(tree.Validate());
  for (auto it = tree.begin(); it.valid(); ++it) model.push_back(it.key());

  std::vector<Key> probes;
  for (Key q = 0; q < 9010; ++q) probes.push_back(q);
  olc::EpochGuard pin;

  // Single-key: FindOptimistic against Find; LowerBoundIter against the
  // model. The data must exercise the previous-leaf hop.
  const int height = tree.height();
  size_t hops = 0;
  for (const Key q : probes) {
    std::optional<uint64_t> opt;
    ASSERT_EQ(tree.FindOptimistic(q, &opt), olc::ReadResult::kOk);
    ASSERT_EQ(opt, tree.Find(q)) << "key " << q;
    SearchCounters counters;
    tree.FindCounted(q, &counters);
    if (counters.nodes_visited > static_cast<uint64_t>(height)) ++hops;
    const auto it = tree.LowerBoundIter(q);
    const auto lb = std::lower_bound(model.begin(), model.end(), q);
    ASSERT_EQ(it.valid(), lb != model.end()) << "key " << q;
    if (it.valid()) {
      ASSERT_EQ(it.key(), *lb) << "key " << q;
    }
  }
  EXPECT_GT(hops, 0u);

  // Grouped: the optimistic find against Find, the lower bound against
  // LowerBoundIter.
  std::vector<std::optional<uint64_t>> out(probes.size());
  std::vector<uint32_t> failed;
  tree.FindBatchGroupedOptimistic(probes.data(), probes.size(), out.data(),
                                  &failed);
  EXPECT_TRUE(failed.empty());
  using Iter = typename TypeParam::ConstIterator;
  std::vector<Iter> its(probes.size());
  tree.LowerBoundBatchGrouped(probes.data(), probes.size(), its.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i], tree.Find(probes[i])) << "key " << probes[i];
    ASSERT_TRUE(its[i] == tree.LowerBoundIter(probes[i]))
        << "key " << probes[i];
  }

  // Scans, through the duplicate run and across erased keys.
  const std::pair<Key, Key> ranges[] = {
      {0, 9010}, {4499, 4501}, {kDup, kDup}, {7, 29}, {8995, 9010}};
  for (const auto& [lo, hi] : ranges) {
    for (const bool inclusive : {false, true}) {
      std::vector<std::pair<Key, uint64_t>> locked, optimistic;
      tree.ScanRange(
          lo, hi, [&](Key k, const uint64_t& v) { locked.emplace_back(k, v); },
          inclusive);
      Key resume = lo;
      uint32_t skip = 0;
      ASSERT_EQ(tree.ScanRangeOptimistic(hi, inclusive, &resume, &skip,
                                         [&](Key k, const uint64_t& v) {
                                           optimistic.emplace_back(k, v);
                                         }),
                olc::ReadResult::kOk);
      EXPECT_EQ(optimistic, locked)
          << "[" << lo << ", " << hi << (inclusive ? "]" : ")");
    }
  }
}

}  // namespace
}  // namespace simdtree
