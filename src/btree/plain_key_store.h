// Baseline in-node key storage: a plain sorted array searched with scalar
// binary search (the paper's baseline) or sequential search (ablation).
//
// This is one of the two interchangeable key-store policies of
// GenericBPlusTree (see generic_btree.h for the policy contract); the
// other is the linearized SIMD store in src/segtree/seg_key_store.h.
//
// Storage: the store is a view over a fixed array of
// Context::key_storage_slots() keys. Inside a tree the array is a slice
// of the node's arena block (keys share the node's cache lines);
// standalone stores (tests, fixtures) own a buffer themselves.

#ifndef SIMDTREE_BTREE_PLAIN_KEY_STORE_H_
#define SIMDTREE_BTREE_PLAIN_KEY_STORE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/batch.h"
#include "kary/scalar_search.h"
#include "obs/trace.h"

namespace simdtree::btree {

// Resumable upper-bound state of a plain store (see
// PlainKeyStore::StepUpperBound): the open interval [pos, hi) of
// candidate positions; pos is the answer once the search is done.
struct PlainCursor {
  int64_t pos;
  int64_t hi;
};

// In-node scalar search algorithms (paper Section 1: "search strategies
// range from sequential over binary to exploration search"). Each also
// has a resumable form: Step advances a PlainCursor and returns the key
// the next Step reads first (nullptr once c->pos is the upper bound);
// Probe is that key for a cursor.
struct BinarySearchTag {
  static constexpr const char* kName = "binary";
  template <typename Key>
  static int64_t UpperBound(const Key* keys, int64_t n, Key v) {
    return kary::BinaryUpperBound(keys, n, v);
  }
  template <typename Key>
  static int64_t UpperBoundCounted(const Key* keys, int64_t n, Key v,
                                   SearchCounters* counters) {
    return kary::BinaryUpperBoundCounted(keys, n, v, counters);
  }
  // BinaryUpperBound's probes, up to the first one in another cache
  // line than the probe before it; returns that probe, or nullptr once
  // c->pos is the upper bound.
  template <typename Key>
  static const Key* Step(const Key* keys, PlainCursor* c, Key v) {
    const Key* probe = Probe(keys, *c);
    for (;;) {
      if (*probe > v) {
        c->hi = probe - keys;
      } else {
        c->pos = probe - keys + 1;
      }
      if (c->pos >= c->hi) return nullptr;
      const Key* next = Probe(keys, *c);
      if (!SameCacheLine(probe, next)) return next;
      probe = next;
    }
  }
  template <typename Key>
  static const Key* Probe(const Key* keys, const PlainCursor& c) {
    return keys + c.pos + (c.hi - c.pos) / 2;
  }
};

struct SequentialSearchTag {
  static constexpr const char* kName = "sequential";
  template <typename Key>
  static int64_t UpperBound(const Key* keys, int64_t n, Key v) {
    return kary::SequentialUpperBound(keys, n, v);
  }
  template <typename Key>
  static int64_t UpperBoundCounted(const Key* keys, int64_t n, Key v,
                                   SearchCounters* counters) {
    return kary::SequentialUpperBoundCounted(keys, n, v, counters);
  }
  // The whole scan in one step: it reads consecutive lines, which the
  // hardware prefetcher already streams.
  template <typename Key>
  static const Key* Step(const Key* keys, PlainCursor* c, Key v) {
    c->pos = kary::SequentialUpperBound(keys, c->hi, v);
    return nullptr;
  }
  template <typename Key>
  static const Key* Probe(const Key* keys, const PlainCursor&) {
    return keys;
  }
};

template <typename Key, typename SearchTag = BinarySearchTag>
class PlainKeyStore {
  static_assert(std::is_trivially_copyable_v<Key>,
                "keys move with memcpy/memmove");

 public:
  // Shared per-tree state for one node kind. The plain store only needs
  // the node capacity.
  struct Context {
    explicit Context(int64_t capacity_in) : capacity(capacity_in) {}
    int64_t capacity;
    // Physical Key slots a node block reserves for this store.
    int64_t key_storage_slots() const { return capacity; }
  };

  // Standalone store owning its key storage (tests, fixtures).
  explicit PlainKeyStore(const Context& ctx)
      : ctx_(&ctx),
        owned_(static_cast<size_t>(ctx.key_storage_slots())),
        keys_(owned_.data()) {}

  // In-node store over external storage of ctx.key_storage_slots() keys
  // (a slice of the node's arena block, see generic_btree.h).
  PlainKeyStore(const Context& ctx, Key* storage)
      : ctx_(&ctx), keys_(storage) {}

  int64_t count() const { return count_; }
  int64_t capacity() const { return ctx_->capacity; }

  Key At(int64_t pos) const {
    assert(pos >= 0 && pos < count());
    return keys_[static_cast<size_t>(pos)];
  }

  // Index of the first key > v.
  int64_t UpperBound(Key v) const {
    return SearchTag::template UpperBound<Key>(keys_, count_, v);
  }

  // Identical result, counting scalar comparisons (trace hooks).
  int64_t UpperBoundCounted(Key v, SearchCounters* counters) const {
    return SearchTag::template UpperBoundCounted<Key>(keys_, count_, v,
                                                      counters);
  }

  // Trace layout id (obs/trace.h kTraceLayoutPlain) and the tree family
  // a trace of a tree over this store reports.
  uint8_t TraceLayoutId() const { return 0; }
  static constexpr obs::TraceBackend kTraceBackend =
      obs::TraceBackend::kBPlusTree;

  // Index of the first key >= v.
  int64_t LowerBound(Key v) const {
    if (v == std::numeric_limits<Key>::min()) return 0;
    return UpperBound(static_cast<Key>(v - 1));
  }

  // Resumable UpperBound for the interleaved batch descent
  // (btree/batch_descent.h), with SegKeyStore's contract: each
  // StepUpperBound call takes the search tag's probes up to the first
  // one in another cache line and returns that line (nullptr once done),
  // and the answer equals UpperBound. The plain store has no SIMD step,
  // so WithCompareStep passes an empty one. PrefetchTop fetches the
  // tag's first probe of a full node over `storage`.
  using Cursor = PlainCursor;
  struct NoCompareStep {};
  template <typename Fn>
  static void WithCompareStep(Fn&& fn) {
    fn(NoCompareStep{});
  }
  static void PrefetchTop(const Key* storage, int64_t capacity) {
    PrefetchRead(SearchTag::Probe(storage, PlainCursor{0, capacity}));
  }
  const Key* BeginUpperBound(Cursor* c) const {
    c->pos = 0;
    c->hi = count_;
    return c->hi <= 0 ? nullptr : SearchTag::Probe(keys_, *c);
  }
  template <typename Step>
  const Key* StepUpperBound(Key v, Cursor* c, const Step&) const {
    return SearchTag::Step(keys_, c, v);
  }

  void InsertAt(int64_t pos, Key k) {
    assert(pos >= 0 && pos <= count());
    assert(count() < capacity());
    std::memmove(keys_ + pos + 1, keys_ + pos,
                 static_cast<size_t>(count_ - pos) * sizeof(Key));
    keys_[pos] = k;
    ++count_;
  }

  void RemoveAt(int64_t pos) {
    assert(pos >= 0 && pos < count());
    std::memmove(keys_ + pos, keys_ + pos + 1,
                 static_cast<size_t>(count_ - pos - 1) * sizeof(Key));
    --count_;
  }

  void AssignSorted(const Key* keys, int64_t n) {
    assert(n <= capacity());
    std::memcpy(keys_, keys, static_cast<size_t>(n) * sizeof(Key));
    count_ = n;
  }

  void Clear() { count_ = 0; }

  // Moves keys [from, count) into the empty store `dst` (node split).
  void MoveSuffixTo(PlainKeyStore& dst, int64_t from) {
    assert(dst.count() == 0);
    std::memcpy(dst.keys_, keys_ + from,
                static_cast<size_t>(count_ - from) * sizeof(Key));
    dst.count_ = count_ - from;
    count_ = from;
  }

  // Appends all keys of `src` (node merge); src is left empty.
  void AppendFrom(PlainKeyStore& src) {
    assert(count() + src.count() <= capacity());
    std::memcpy(keys_ + count_, src.keys_,
                static_cast<size_t>(src.count_) * sizeof(Key));
    count_ += src.count_;
    src.count_ = 0;
  }

  size_t MemoryBytes() const {
    return static_cast<size_t>(ctx_->capacity) * sizeof(Key);
  }

 private:
  const Context* ctx_;
  std::vector<Key> owned_;  // standalone mode only; empty when external
  Key* keys_;
  int64_t count_ = 0;
};

}  // namespace simdtree::btree

#endif  // SIMDTREE_BTREE_PLAIN_KEY_STORE_H_
