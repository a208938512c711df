// Range-partitioned concurrent wrapper for any simdtree index.
//
// The paper's evaluation is single-threaded and names concurrency as
// future work ("the impact of SIMD instructions on concurrently used
// index structures is an ongoing research task", Section 7).
// ShardedIndex makes the structures shareable: N range-partitioned
// shards, each an independent Index instance behind its own
// shared_mutex, so writers to different key ranges proceed in parallel.
// One shard is the coarse wrapper: the whole key domain behind one
// reader/writer lock (ShardedIndex(1), or ShardedIndex(index) to move
// an existing index in).
//
// Partitioning is static and rebalance-free: N-1 sorted splitter keys
// divide the key domain; shard i owns [splitter[i-1], splitter[i]) (a
// key equal to a splitter belongs to the shard on its right). The shard
// count is rounded up to a power of two. Splitters come from either a
// uniform division of the integral key domain (default constructor) or
// sample quantiles (SplittersFromSample), matching a bulk-load
// distribution.
//
// Consistency model: each operation is atomic within one shard.
// Multi-shard operations (size, ScanRange, FindBatch, Clear) visit one
// shard at a time in ascending shard order, so they see a per-shard
// snapshot, not a global one — a concurrent writer may land between two
// shard visits. This is the usual contract of partitioned stores;
// callers needing a global quiescent view must stop writers first.
// Deadlock-free by construction: no operation ever holds two shard
// locks at once.
//
// ScanRange stitches results across shard boundaries: shards are
// visited in key order and each shard only stores keys of its own
// range, so the callback still observes keys in globally ascending
// order. FindBatch is one memory-parallel pass over the whole batch:
// the index's interleaved descent (btree/batch_descent.h) starts each
// key at its own shard's root, so the misses of keys on different
// shards overlap in one window. A batch large enough for some shard's
// slice to take the grouped (level-wise) descent is sorted once and cut
// at the splitters instead, and its values scatter back once; a one-key
// batch is a Find.
//
// The read ladder. Every read — Find/Contains and a ScanRange piece on
// one shard (ReadShard), a whole FindBatch (OptimisticBatch, then
// RetryFailed) — climbs the same ladder:
//   1. when the index supports optimistic lock coupling (the B+-trees
//      with trivially copyable payloads in arena mode, generic_btree.h),
//      pin a reclamation epoch (core/olc.h) and descend WITHOUT the
//      shard locks, validating per-node versions;
//   2. retry what a writer invalidated, key by key, up to
//      olc::kMaxReadRetries attempts in all;
//   3. take a shard's shared lock once for whatever is left on it.
// Bounding the retries is also the writer-starvation fix: glibc's rwlock
// is reader-preferring, and with OLC readers rarely touch it, so writers
// acquire the exclusive lock promptly. Indexes without the optimistic
// reads (tries, heap-mode trees) and SIMDTREE_FORCE_SHARD_LOCKS=1 use
// rung 3 alone. Conflict and fallback volume is exported as the olc.*
// counters (obs/metrics.h).
//
// A read under an armed request trace (obs/request_trace.h) climbs the
// same ladder. It marks its spans into the thread's SpanCollector and
// fills the collector's descent section on the rung that answers: a
// single-key read the levels of its answering attempt (a conflicted
// attempt's levels are discarded), a grouped pass its per-level record,
// rung 3 its lock wait. An interleaved batch records spans only.

#ifndef SIMDTREE_CORE_SHARDED_H_
#define SIMDTREE_CORE_SHARDED_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/batch_sort.h"
#include "core/descent_observer.h"
#include "core/olc.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "util/cycle_timer.h"

namespace simdtree {

template <typename Index>
class ShardedIndex {
 public:
  using KeyType = typename Index::KeyType;
  using ValueType = typename Index::ValueType;

  // num_shards is rounded up to a power of two. Splitters divide the
  // full integral key domain uniformly — the right default for the
  // uniform-random and full-domain workloads of the paper's evaluation.
  explicit ShardedIndex(size_t num_shards = kDefaultShards)
      : ShardedIndex(RoundUpShards(num_shards),
                     UniformSplitters(RoundUpShards(num_shards))) {}

  // Explicit splitters: must be sorted, size == num_shards - 1. Equal
  // adjacent splitters are allowed and simply leave a shard empty.
  ShardedIndex(size_t num_shards, std::vector<KeyType> splitters)
      : splitters_(std::move(splitters)),
        olc_metrics_(obs::OlcMetrics::Register()) {
    num_shards = RoundUpShards(num_shards);
    assert(splitters_.size() == num_shards - 1);
    assert(std::is_sorted(splitters_.begin(), splitters_.end()));
    shards_.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
    ArmOptimisticReads();
  }

  // One shard holding an existing index, moved in (e.g. one loaded from
  // a serialized blob): no splitters, lock-free reads armed as for any
  // shard.
  explicit ShardedIndex(Index index)
      : olc_metrics_(obs::OlcMetrics::Register()) {
    shards_.push_back(std::make_unique<Shard>(std::move(index)));
    ArmOptimisticReads();
  }

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  // Splitter keys at the sample's quantiles, for key distributions that
  // a uniform domain division would skew (e.g. clustered bulk loads).
  // The sample is copied and sorted; n may be zero (falls back to the
  // uniform division).
  static std::vector<KeyType> SplittersFromSample(const KeyType* sample,
                                                  size_t n,
                                                  size_t num_shards) {
    num_shards = RoundUpShards(num_shards);
    if (n == 0) return UniformSplitters(num_shards);
    std::vector<KeyType> sorted(sample, sample + n);
    std::sort(sorted.begin(), sorted.end());
    std::vector<KeyType> splitters;
    splitters.reserve(num_shards - 1);
    for (size_t s = 1; s < num_shards; ++s) {
      splitters.push_back(sorted[s * n / num_shards]);
    }
    return splitters;
  }

  size_t num_shards() const { return shards_.size(); }
  const std::vector<KeyType>& splitters() const { return splitters_; }

  // Starts recording per-operation metrics under "<prefix>.*" in the
  // global registry (obs/metrics.h): read/write op counters, batch-size
  // histogram, lock-hold-time histograms, and a per-shard imbalance
  // gauge updated on every FindBatch (max shard share / perfectly even
  // share; 1.0 = balanced). Call before sharing across threads —
  // enabling is not synchronized against in-flight operations.
  void EnableMetrics(const std::string& prefix) {
    metrics_ = obs::IndexMetrics::Register(prefix);
  }

  // Shard owning `key` (upper bound over the splitters: a key equal to
  // a splitter goes right).
  size_t ShardOf(KeyType key) const {
    return static_cast<size_t>(
        std::upper_bound(splitters_.begin(), splitters_.end(), key) -
        splitters_.begin());
  }

  // --- writers ----------------------------------------------------------

  auto Insert(KeyType key, ValueType value) {
    if (metrics_) metrics_->writes->Add();
    Shard& shard = *shards_[ShardOf(key)];
    std::unique_lock lock(shard.mutex);
    obs::ScopedDurationNs hold(metrics_ ? metrics_->write_lock_ns : nullptr);
    return shard.index.Insert(key, std::move(value));
  }

  bool Erase(KeyType key) {
    if (metrics_) metrics_->writes->Add();
    Shard& shard = *shards_[ShardOf(key)];
    std::unique_lock lock(shard.mutex);
    obs::ScopedDurationNs hold(metrics_ ? metrics_->write_lock_ns : nullptr);
    return shard.index.Erase(key);
  }

  void Clear() {
    if (metrics_) metrics_->writes->Add();
    for (auto& shard : shards_) {
      std::unique_lock lock(shard->mutex);
      obs::ScopedDurationNs hold(metrics_ ? metrics_->write_lock_ns
                                          : nullptr);
      shard->index.Clear();
    }
  }

  // --- readers ----------------------------------------------------------

  std::optional<ValueType> Find(KeyType key) const {
    if (metrics_) metrics_->reads->Add();
    return FindIn(ShardOf(key), key);
  }

  bool Contains(KeyType key) const { return Find(key).has_value(); }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::shared_lock lock(shard->mutex);
      total += shard->index.size();
    }
    return total;
  }

  // Batched point lookup: out[i] = value of keys[i] or nullopt. Values
  // are copies, so the results stay valid after concurrent writers
  // proceed. One key costs what Find costs. With lock-free reads armed,
  // one optimistic pass under one epoch pin serves the whole batch
  // (OptimisticBatch); otherwise each shard's slice is read under its
  // shared lock (LockedBatch).
  void FindBatch(const KeyType* keys, size_t n,
                 std::optional<ValueType>* out) const {
    if (n == 0) return;
    if (metrics_) {
      metrics_->batches->Add();
      metrics_->batch_keys->Add(n);
      metrics_->batch_size->Record(n);
    }
    if (n == 1) {
      // Request-span hooks (obs/request_trace.h), as for any batch: the
      // shard choice is the fan-out, the lookup is the descent.
      size_t s = 0;
      if (shards_.size() > 1) {
        obs::CollectedSpanScope fanout_span(obs::RequestSpanKind::kShardFanout);
        s = ShardOf(keys[0]);
      }
      if (metrics_) {
        metrics_->shard_imbalance->Set(static_cast<double>(shards_.size()));
      }
      obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
      out[0] = FindIn(s, keys[0]);
      return;
    }
    [[maybe_unused]] obs::DescentTrace* t = obs::BeginCollectedDescent();
    if constexpr (HasOptimisticReads<Index, KeyType, ValueType>) {
      if (olc_enabled_) {
        olc::EpochGuard epoch;
        // An exhausted epoch registry (256+ reader threads) sends the
        // batch to the locks without counting a fallback.
        if (epoch.pinned()) {
          OptimisticBatch(keys, n, out, t);
          return;
        }
      }
    }
    LockedBatch(keys, n, out);
  }

  // Merged arena occupancy across all shards (all-zero when the index
  // type is not arena-backed), one shared lock at a time — the same
  // per-shard snapshot semantics as size().
  mem::ArenaStats MemStats() const {
    mem::ArenaStats total;
    ForEachShardRead([&total](size_t, const Index& index) {
      total.Merge(mem::IndexMemStats(index));
    });
    if (metrics_) metrics_->PublishArena(total);
    return total;
  }

  // Runs fn(key, value) over [lo, hi) (or [lo, hi] when hi_inclusive)
  // in globally ascending key order, stitching across shard boundaries:
  // shards intersecting the range are visited in key order, each up the
  // read ladder. fn must not call back into this index. The scan is
  // atomic per shard, not across shards (see the consistency note
  // above).
  template <typename Fn>
  void ScanRange(KeyType lo, KeyType hi, Fn fn,
                 bool hi_inclusive = false) const {
    if (!hi_inclusive && lo >= hi) return;
    const size_t last = ShardOf(hi);
    for (size_t s = ShardOf(lo); s <= last; ++s) {
      // A conflicted optimistic attempt resumes after the pairs it has
      // delivered: from `resume`, skipping `skip` occurrences of it, so
      // fn never sees a pair twice.
      KeyType resume = lo;
      uint32_t skip = 0;
      ReadShard(
          s,
          [&](const auto& index) -> size_t {
            return index.ScanRangeOptimistic(
                       hi, hi_inclusive, &resume, &skip,
                       [&fn](KeyType k, const ValueType& v) { fn(k, v); }) ==
                           olc::ReadResult::kOk
                       ? 0
                       : 1;
          },
          [&](const Index& index) {
            uint32_t seen = 0;
            index.ScanRange(
                resume, hi,
                [&](KeyType k, const ValueType& v) {
                  if (k == resume && seen++ < skip) return;
                  fn(k, v);
                },
                hi_inclusive);
          });
    }
  }

  // Read-only access to one shard's index under its shared lock.
  template <typename Fn>
  auto WithShardRead(size_t shard, Fn fn) const {
    std::shared_lock lock(shards_[shard]->mutex);
    return fn(static_cast<const Index&>(shards_[shard]->index));
  }

  // Mutating access to one shard's index under its exclusive lock.
  template <typename Fn>
  auto WithShardWrite(size_t shard, Fn fn) {
    std::unique_lock lock(shards_[shard]->mutex);
    return fn(shards_[shard]->index);
  }

  // fn(shard_id, const Index&) for every shard, one shared lock at a
  // time in ascending order (per-shard snapshot semantics).
  template <typename Fn>
  void ForEachShardRead(Fn fn) const {
    for (size_t s = 0; s < shards_.size(); ++s) {
      std::shared_lock lock(shards_[s]->mutex);
      fn(s, static_cast<const Index&>(shards_[s]->index));
    }
  }

  // Every shard's structural invariants plus the partition invariant:
  // all keys of shard i lie in [splitter[i-1], splitter[i]).
  bool Validate() const {
    bool ok = true;
    ForEachShardRead([&](size_t s, const Index& index) {
      if (!index.Validate()) ok = false;
      const KeyType lo = s == 0 ? std::numeric_limits<KeyType>::min()
                                : splitters_[s - 1];
      const KeyType hi = s + 1 == shards_.size()
                             ? std::numeric_limits<KeyType>::max()
                             : splitters_[s];
      index.ScanRange(
          std::numeric_limits<KeyType>::min(),
          std::numeric_limits<KeyType>::max(),
          [&](KeyType k, const ValueType&) {
            if (k < lo || (s + 1 < shards_.size() && k >= hi)) ok = false;
          },
          /*hi_inclusive=*/true);
    });
    return ok;
  }

 private:
  // Arms lock-free reads when the index supports them and
  // SIMDTREE_FORCE_SHARD_LOCKS does not force the locked path. All
  // shards must arm (heap mode refuses) or none do — mixed modes would
  // complicate the read ladder for no benefit.
  void ArmOptimisticReads() {
    if constexpr (HasOptimisticReads<Index, KeyType, ValueType>) {
      if (olc::ForceShardLocks()) return;
      bool all = true;
      for (auto& shard : shards_) {
        all = shard->index.EnableConcurrentReads() && all;
      }
      olc_enabled_ = all;
    }
  }

  // Find's body: the read ladder of shard s for one key. Under an armed
  // request trace, the answering attempt's levels fill the descent
  // section.
  std::optional<ValueType> FindIn(size_t s, KeyType key) const {
    std::optional<ValueType> out;
    obs::DescentTrace* t = obs::BeginCollectedDescent();
    if (t != nullptr) t->shard = static_cast<uint16_t>(s);
    ReadShard(
        s,
        [&](const auto& index) -> size_t {
          olc::ReadResult r;
          if (t == nullptr) {
            r = index.FindOptimistic(key, &out);
          } else {
            t->levels = 0;  // drop a conflicted attempt's levels
            r = index.FindOptimistic(key, &out, descent::Trace{t});
          }
          return r == olc::ReadResult::kOk ? 0 : 1;
        },
        [&](const Index& index) {
          if (t == nullptr) {
            out = index.Find(key);
            return;
          }
          t->levels = 0;
          out = index.FindTraced(key, t);
        });
    return out;
  }

  // The read ladder of shard s (see the class comment). attempt(index)
  // makes one optimistic pass and returns how many of its reads a
  // writer invalidated; locked(index) finishes the read under the
  // shared lock.
  template <typename Attempt, typename Locked>
  void ReadShard(size_t s, Attempt attempt, Locked locked) const {
    if constexpr (HasOptimisticReads<Index, KeyType, ValueType>) {
      if (olc_enabled_) {
        olc::EpochGuard epoch;
        // An exhausted epoch registry (256+ reader threads) sends the
        // read to the lock without counting a fallback.
        if (epoch.pinned()) {
          for (int i = 0; i < olc::kMaxReadRetries; ++i) {
            const size_t conflicted = attempt(shards_[s]->index);
            if (conflicted == 0) return;
            olc_metrics_.read_retries->Add(conflicted);
          }
          olc_metrics_.fallback_acquisitions->Add();
        }
      }
    }
    LockedRead(s, locked);
  }

  // Rung 3: locked(index) under shard s's shared lock, recording the hold
  // time into the metrics and, under an armed request trace, the lock
  // wait into the descent section.
  template <typename Locked>
  void LockedRead(size_t s, Locked& locked) const {
    const Shard& shard = *shards_[s];
    obs::SpanCollector* c = obs::ActiveSpanCollector();
    const uint64_t lock_start = c != nullptr ? CycleTimer::Now() : 0;
    std::shared_lock lock(shard.mutex);
    if (c != nullptr) {
      c->descent.lock_wait_ns += static_cast<uint64_t>(
          CycleTimer::ToNanoseconds(CycleTimer::Now() - lock_start));
    }
    obs::ScopedDurationNs hold(metrics_ ? metrics_->read_lock_ns : nullptr);
    locked(shard.index);
  }

  // Shard of every key (*shard_of) and the key count per shard
  // (*count), publishing the batch's imbalance when metrics are on: the
  // largest shard's count relative to a perfectly even split (1.0 =
  // balanced, num_shards = everything on one shard).
  void CountShards(const KeyType* keys, size_t n,
                   std::vector<uint32_t>* shard_of,
                   std::vector<size_t>* count) const {
    const size_t num = shards_.size();
    shard_of->resize(n);
    count->assign(num, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t s = ShardOf(keys[i]);
      (*shard_of)[i] = static_cast<uint32_t>(s);
      ++(*count)[s];
    }
    if (metrics_) {
      const size_t max_count = *std::max_element(count->begin(), count->end());
      metrics_->shard_imbalance->Set(static_cast<double>(max_count * num) /
                                     static_cast<double>(n));
    }
  }

  // FindBatch's optimistic rungs; the caller holds the epoch pin. One
  // interleaved pass (btree/batch_descent.h) runs the whole batch, each
  // key starting at its own shard's root. A batch large enough for some
  // shard's slice to clear UseGroupedDescent is sorted once instead
  // (SortedOptimisticBatch). Keys either pass could not resolve climb
  // the rest of the ladder (RetryFailed). A non-null `t` (an armed
  // request trace's descent section) gets the first grouped pass's
  // per-level record.
  void OptimisticBatch(const KeyType* keys, size_t n,
                       std::optional<ValueType>* out,
                       obs::DescentTrace* t) const {
    const size_t num = shards_.size();
    std::vector<uint32_t> failed;
    if (num == 1) {
      if (metrics_) metrics_->shard_imbalance->Set(1.0);
      obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
      const Index& index = shards_[0]->index;
      if (UseGroupedDescent(n, OptimisticLevels(index))) {
        if (t != nullptr) t->shard = 0;
        index.FindBatchGroupedOptimistic(keys, n, out, &failed, t);
      } else {
        Index::FindBatchOptimisticOver([&](uint32_t) { return &index; },
                                       keys, n, out, &failed);
      }
    } else if (n >= MinGroupedSlice()) {
      SortedOptimisticBatch(keys, n, out, &failed, t);
    } else {
      // Shard ids are only materialized for the imbalance gauge;
      // otherwise each key's shard is chosen as it starts.
      std::vector<uint32_t> shard_of;
      {
        obs::CollectedSpanScope fanout_span(
            obs::RequestSpanKind::kShardFanout);
        if (metrics_) {
          std::vector<size_t> count;
          CountShards(keys, n, &shard_of, &count);
        }
      }
      obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
      Index::FindBatchOptimisticOver(
          [&](uint32_t i) {
            return &shards_[shard_of.empty() ? ShardOf(keys[i]) : shard_of[i]]
                        ->index;
          },
          keys, n, out, &failed);
    }
    RetryFailed(keys, out, &failed);
  }

  // The smallest slice with which some shard takes the grouped descent
  // (SIZE_MAX when every shard is empty).
  size_t MinGroupedSlice() const {
    size_t min = std::numeric_limits<size_t>::max();
    for (const auto& shard : shards_) {
      const int levels = OptimisticLevels(shard->index);
      if (levels > 0) {
        min = std::min(min, static_cast<size_t>(levels) *
                                static_cast<size_t>(kGroupedMinBatchPerLevel));
      }
    }
    return min;
  }

  // The optimistic pass over a sorted batch: sorted once
  // (core/batch_sort.h) and cut at the splitters, since a shard's keys
  // form one contiguous range of the sorted batch. A shard whose range
  // clears UseGroupedDescent gets it, already ascending, through its
  // grouped engine; the other shards' ranges share one interleaved
  // pass. Answers land in sorted order and scatter back once, through
  // the permutation; conflicted keys go to *failed by batch index. A
  // non-null `t` gets the first grouped shard's per-level record.
  void SortedOptimisticBatch(const KeyType* keys, size_t n,
                             std::optional<ValueType>* out,
                             std::vector<uint32_t>* failed,
                             obs::DescentTrace* t) const {
    const size_t num = shards_.size();
    SortedBatch<KeyType> sorted;
    // Shard s owns sorted keys [cut[s], cut[s + 1]); a key equal to a
    // splitter goes right.
    std::vector<uint32_t> cut(num + 1);
    {
      obs::CollectedSpanScope fanout_span(obs::RequestSpanKind::kShardFanout);
      SortBatchWithPermutation(keys, n, &sorted);
      cut[num] = static_cast<uint32_t>(n);
      for (size_t s = 1; s < num; ++s) {
        cut[s] = static_cast<uint32_t>(
            std::lower_bound(sorted.keys.begin() + cut[s - 1],
                             sorted.keys.end(), splitters_[s - 1]) -
            sorted.keys.begin());
      }
      if (metrics_) {
        uint32_t max_count = 0;
        for (size_t s = 0; s < num; ++s) {
          max_count = std::max(max_count, cut[s + 1] - cut[s]);
        }
        metrics_->shard_imbalance->Set(static_cast<double>(max_count * num) /
                                       static_cast<double>(n));
      }
    }
    obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
    const KeyType* skeys = sorted.keys.data();
    std::vector<std::optional<ValueType>> vals(n);
    std::vector<uint32_t> conflicted;  // sorted positions
    std::vector<uint8_t> grouped(num, 0);
    bool interleaved = false;
    for (size_t s = 0; s < num; ++s) {
      const uint32_t lo = cut[s], m = cut[s + 1] - cut[s];
      if (m == 0) continue;
      const Index& index = shards_[s]->index;
      if (!UseGroupedDescent(m, OptimisticLevels(index))) {
        interleaved = true;
        continue;
      }
      grouped[s] = 1;
      const size_t before = conflicted.size();
      if (t != nullptr) t->shard = static_cast<uint16_t>(s);
      index.FindBatchGroupedOptimistic(skeys + lo, m, vals.data() + lo,
                                       &conflicted, t);
      t = nullptr;
      for (size_t c = before; c < conflicted.size(); ++c) conflicted[c] += lo;
    }
    if (interleaved) {
      Index::FindBatchOptimisticOver(
          [&](uint32_t j) -> const Index* {
            const size_t s = static_cast<size_t>(
                std::upper_bound(cut.begin() + 1, cut.end(), j) -
                (cut.begin() + 1));
            return grouped[s] != 0 ? nullptr : &shards_[s]->index;
          },
          skeys, n, vals.data(), &conflicted);
    }
    for (const uint32_t j : conflicted) failed->push_back(sorted.perm[j]);
    for (size_t j = 0; j < n; ++j) out[sorted.perm[j]] = std::move(vals[j]);
  }

  // Runs fn(s, slice_keys, m, slice_vals) for every shard s with keys in
  // the batch: the shard's keys in caller order (a counting sort on
  // shard_of). The slices' values then scatter back to out.
  template <typename Fn>
  void ForEachSlice(const KeyType* keys, size_t n,
                    const std::vector<uint32_t>& shard_of,
                    std::optional<ValueType>* out, Fn fn) const {
    const size_t num = shards_.size();
    std::vector<size_t> start(num + 1, 0);
    for (size_t i = 0; i < n; ++i) ++start[shard_of[i] + 1];
    for (size_t s = 0; s < num; ++s) start[s + 1] += start[s];
    std::vector<KeyType> skeys(n);
    std::vector<uint32_t> spos(n);
    {
      std::vector<size_t> fill(start.begin(), start.end() - 1);
      for (size_t i = 0; i < n; ++i) {
        const size_t at = fill[shard_of[i]]++;
        skeys[at] = keys[i];
        spos[at] = static_cast<uint32_t>(i);
      }
    }
    std::vector<std::optional<ValueType>> vals(n);
    for (size_t s = 0; s < num; ++s) {
      const size_t lo = start[s], hi = start[s + 1];
      if (lo == hi) continue;
      fn(s, skeys.data() + lo, hi - lo, vals.data() + lo);
    }
    for (size_t j = 0; j < n; ++j) out[spos[j]] = std::move(vals[j]);
  }

  // Rungs 2 and 3 for the batch keys the optimistic pass left in
  // *failed: per-key optimistic retries, up to olc::kMaxReadRetries
  // attempts in all, then one shared lock per shard that still has keys.
  void RetryFailed(const KeyType* keys, std::optional<ValueType>* out,
                   std::vector<uint32_t>* failed) const {
    if (failed->empty()) return;
    olc_metrics_.read_retries->Add(failed->size());
    for (int i = 1; i < olc::kMaxReadRetries; ++i) {
      std::erase_if(*failed, [&](uint32_t j) {
        return shards_[ShardOf(keys[j])]->index.FindOptimistic(
                   keys[j], &out[j]) == olc::ReadResult::kOk;
      });
      if (failed->empty()) return;
      olc_metrics_.read_retries->Add(failed->size());
    }
    const auto shard = [&](uint32_t j) { return ShardOf(keys[j]); };
    std::sort(failed->begin(), failed->end(),
              [&](uint32_t x, uint32_t y) { return shard(x) < shard(y); });
    for (auto lo = failed->begin(); lo != failed->end();) {
      const size_t s = shard(*lo);
      const auto hi = std::find_if(lo, failed->end(),
                                   [&](uint32_t j) { return shard(j) != s; });
      olc_metrics_.fallback_acquisitions->Add();
      auto locked = [&](const Index& index) {
        for (auto it = lo; it != hi; ++it) out[*it] = index.Find(keys[*it]);
      };
      LockedRead(s, locked);
      lo = hi;
    }
  }

  // FindBatch under the shard locks: each shard's slice of the batch
  // (ForEachSlice; the whole batch when there is one shard) is looked
  // up under its shard's shared lock (FindLocked).
  void LockedBatch(const KeyType* keys, size_t n,
                   std::optional<ValueType>* out) const {
    if (shards_.size() == 1) {
      if (metrics_) metrics_->shard_imbalance->Set(1.0);
      obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
      auto locked = [&](const Index& index) {
        FindLocked(index, keys, n, out);
      };
      LockedRead(0, locked);
      return;
    }
    // Request-span hooks: counting keys per shard is the shard_fanout
    // span; the slices' descents and the scatter back are the descent.
    std::vector<uint32_t> shard_of;
    {
      obs::CollectedSpanScope fanout_span(obs::RequestSpanKind::kShardFanout);
      std::vector<size_t> count;
      CountShards(keys, n, &shard_of, &count);
    }
    obs::CollectedSpanScope descent_span(obs::RequestSpanKind::kDescent);
    ForEachSlice(
        keys, n, shard_of, out,
        [&](size_t s, const KeyType* skeys, size_t m,
            std::optional<ValueType>* vals) {
          auto locked = [&](const Index& index) {
            FindLocked(index, skeys, m, vals);
          };
          LockedRead(s, locked);
        });
  }

  // A sub-batch under the shard lock: the grouped (level-wise,
  // sort-once) descent when the index has one and the sub-batch clears
  // UseGroupedDescent, else the interleaved FindBatch in 256-key chunks.
  static void FindLocked(const Index& index, const KeyType* keys, size_t m,
                         std::optional<ValueType>* vals) {
    if constexpr (HasGroupedFindBatch<Index, KeyType, ValueType>) {
      if (UseGroupedDescent(m, BatchLevels(index))) {
        std::vector<const ValueType*> ptrs(m);
        index.FindBatchGrouped(keys, m, ptrs.data());
        CopyValues(ptrs.data(), m, vals);
        return;
      }
    }
    constexpr size_t kChunk = 256;
    const ValueType* ptrs[kChunk];
    for (size_t off = 0; off < m; off += kChunk) {
      const size_t g = std::min(kChunk, m - off);
      index.FindBatch(keys + off, g, ptrs);
      CopyValues(ptrs, g, vals + off);
    }
  }

  static void CopyValues(const ValueType* const* ptrs, size_t m,
                         std::optional<ValueType>* vals) {
    for (size_t j = 0; j < m; ++j) {
      if (ptrs[j] != nullptr) {
        vals[j] = *ptrs[j];
      } else {
        vals[j] = std::nullopt;
      }
    }
  }

  static constexpr size_t kDefaultShards = 8;
  // Shard ids must stay below obs::kTraceNoShard, the descent section's
  // "no shard" sentinel.
  static constexpr size_t kMaxShards = 1u << 15;
  static_assert(kMaxShards - 1 < obs::kTraceNoShard);

  struct Shard {
    Shard() = default;
    explicit Shard(Index moved) : index(std::move(moved)) {}
    mutable std::shared_mutex mutex;
    Index index;
  };

  static size_t RoundUpShards(size_t n) {
    if (n < 1) n = 1;
    if (n > kMaxShards) n = kMaxShards;
    return std::bit_ceil(n);
  }

  // Splitters dividing the full integral domain into num_shards equal
  // ranges. Signed keys are handled by stepping through the unsigned
  // image of the domain (same trick as the SIMD layer's sign-bit flip).
  static std::vector<KeyType> UniformSplitters(size_t num_shards) {
    static_assert(std::is_integral_v<KeyType>,
                  "default splitters need an integral key; pass explicit "
                  "splitters (e.g. SplittersFromSample) otherwise");
    using U = std::make_unsigned_t<KeyType>;
    assert(std::countr_zero(num_shards) < std::numeric_limits<U>::digits &&
           "more shards than distinct keys in the domain");
    std::vector<KeyType> splitters;
    splitters.reserve(num_shards - 1);
    const int shift =
        std::numeric_limits<U>::digits - std::countr_zero(num_shards);
    const U base = static_cast<U>(std::numeric_limits<KeyType>::min());
    for (size_t s = 1; s < num_shards; ++s) {
      splitters.push_back(
          static_cast<KeyType>(base + (static_cast<U>(s) << shift)));
    }
    return splitters;
  }

  std::vector<KeyType> splitters_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::optional<obs::IndexMetrics> metrics_;
  // Lock-free read state: armed by the constructor when every shard's
  // index accepted EnableConcurrentReads (see class comment). The olc.*
  // counters are process-global and pre-resolved so the conflict paths
  // pay one relaxed add each.
  bool olc_enabled_ = false;
  obs::OlcMetrics olc_metrics_;
};

}  // namespace simdtree

#endif  // SIMDTREE_CORE_SHARDED_H_
