// k-ary SIMD search over linearized key arrays
// (paper Section 3.1, Algorithms 4 and 5).
//
// Both searches return the *upper bound* of the probe in the logical
// sorted order: the number of keys <= v, i.e. the index of the first key
// strictly greater than v (== n when no key is greater). This is exactly
// the position a B+-Tree uses to select the child pointer, and it matches
// std::upper_bound on the original sorted list — the paper's "pLevel is
// equal to the search result of a binary search on the same list of keys".
//
// The k-1 keys of each logical node are adjacent in the linearized array,
// so each level costs one SIMD load + compare + movemask + bitmask
// evaluation. Padding slots hold PadValue<T>() (greater than every real
// key, or equal to it when the maximum key is itself the type maximum —
// the final clamp to n makes both cases correct; see linearize.h).

#ifndef SIMDTREE_KARY_KARY_SEARCH_H_
#define SIMDTREE_KARY_KARY_SEARCH_H_

#include <algorithm>
#include <cstdint>

#include "kary/dispatch_kernels.h"
#include "kary/layout.h"
#include "simd/bitmask_eval.h"
#include "simd/dispatch.h"
#include "simd/simd128.h"
#include "simd/simd256.h"
#include "simd/simd512.h"
#include "util/counters.h"

// Every search entry point below accepts Backend::kDispatch (the
// default backend) and routes it at runtime: width 128 to the inline
// SSE instantiation, width 256 to inline AVX2 when this TU was compiled
// with it or else to the kernels_avx2.cc registry, width 512 to the
// kernels_avx512.cc registry — falling back to the scalar image of the
// same width whenever the CPU lacks the ISA (simd::DispatchWantsNative)
// or the binary lacks the kernels (null registry slot). The routing is
// an if-constexpr prologue so Ops<T, kDispatch, W> — deliberately an
// incomplete type — is never instantiated.

namespace simdtree::kary {

// One SIMD comparison step: loads k-1 keys at `keys`, compares them against
// the broadcast probe register, and evaluates the bitmask to the index of
// the first key greater than the probe (paper Section 2.1, steps 1-5).
template <typename T, typename Eval, simd::Backend B, int kBits = 128>
inline int CompareNode(const T* keys,
                       const typename simd::Ops<T, B, kBits>::Reg& probe) {
  using Ops = simd::Ops<T, B, kBits>;
  const auto node = Ops::LoadUnaligned(keys);
  const auto mask = Ops::MoveMask(Ops::CmpGt(node, probe));
  return Eval::template Position<T, kBits>(mask);
}

// The same step with the broadcast folded in — the shape registered in
// the native-kernel tables (dispatch_kernels.h) so baseline-compiled
// engines can take one wider-ISA comparison per probe through a
// function pointer.
template <typename T, typename Eval, simd::Backend B, int kBits>
int CompareStep(const T* node_keys, T v) {
  using Ops = simd::Ops<T, B, kBits>;
  return CompareNode<T, Eval, B, kBits>(node_keys, Ops::Set1(v));
}

// Calls fn(step) with the one-level comparison step `int step(const T*
// node_keys, T v)` that the backend dispatch routes this width to: the
// inline CompareStep of a concrete backend or of a native width the
// baseline build carries, the registered compare_step kernel otherwise,
// and the scalar image when the CPU or the binary lacks the width. The
// decision is made once per call, so an engine that takes many steps
// (the interleaved B+-tree batch descent) instantiates its loop per
// route and pays no per-step dispatch.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128,
          typename Fn>
void WithCompareStep(Fn&& fn) {
  if constexpr (B == simd::Backend::kDispatch) {
    if (simd::DispatchWantsNative(kBits)) {
      if constexpr (kBits == 128) {
        if constexpr (simd::kHaveSse) {
          return WithCompareStep<T, Eval, simd::Backend::kSse, 128>(fn);
        }
      } else if constexpr (kBits == 256 && simd::kHaveAvx2) {
        return WithCompareStep<T, Eval, simd::Backend::kSse, 256>(fn);
      } else {
        const auto step = NativeKernels<T, Eval, kBits>::instance.compare_step;
        if (step != nullptr) return fn(step);
      }
    }
    return WithCompareStep<T, Eval, simd::Backend::kScalar, kBits>(fn);
  } else {
    fn([](const T* node_keys, T v) {
      return CompareStep<T, Eval, B, kBits>(node_keys, v);
    });
  }
}

// Algorithm 5: search on a breadth-first linearized array.
//
// `stored_slots` is the number of materialized key slots — either the
// perfect k^r - 1 or the truncated node-granular prefix (StoredSlots).
// A descent into a node beyond the stored prefix can only happen when the
// answer is already >= n (the pruned subtree contains only padding), so it
// returns n directly.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
int64_t UpperBoundBf(const T* lin, int64_t stored_slots, int64_t n, T v) {
  if constexpr (B == simd::Backend::kDispatch) {
    if (simd::DispatchWantsNative(kBits)) {
      if constexpr (kBits == 128) {
        if constexpr (simd::kHaveSse) {
          return UpperBoundBf<T, Eval, simd::Backend::kSse, 128>(
              lin, stored_slots, n, v);
        }
      } else if constexpr (kBits == 256 && simd::kHaveAvx2) {
        return UpperBoundBf<T, Eval, simd::Backend::kSse, 256>(
            lin, stored_slots, n, v);
      } else {
        const auto fn = NativeKernels<T, Eval, kBits>::instance.upper_bound_bf;
        if (fn != nullptr) return fn(lin, stored_slots, n, v);
      }
    }
    return UpperBoundBf<T, Eval, simd::Backend::kScalar, kBits>(
        lin, stored_slots, n, v);
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;  // k - 1
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;  // k

    const auto probe = Ops::Set1(v);
    int64_t position = 0;        // pLevel: node index, then key position
    int64_t level_base = 0;      // nextBasePtr: first slot of current level
    int64_t level_nodes = 1;     // lvlCnt: node count on current level
    while (level_base < stored_slots) {
      const int64_t key_off = level_base + position * kLanes;
      position *= kArity;
      if (key_off >= stored_slots) return n;  // pruned all-padding subtree
      position += CompareNode<T, Eval, B, kBits>(lin + key_off, probe);
      level_base += level_nodes * kLanes;
      level_nodes *= kArity;
    }
    return std::min(position, n);
  }
}

// Algorithm 4: search on a depth-first linearized array. Requires the
// perfect materialization (`perfect_slots` = k^r - 1): the offset
// arithmetic jumps over `position` complete child subtrees per level.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
int64_t UpperBoundDf(const T* lin, int64_t perfect_slots, int64_t n, T v) {
  if constexpr (B == simd::Backend::kDispatch) {
    if (simd::DispatchWantsNative(kBits)) {
      if constexpr (kBits == 128) {
        if constexpr (simd::kHaveSse) {
          return UpperBoundDf<T, Eval, simd::Backend::kSse, 128>(
              lin, perfect_slots, n, v);
        }
      } else if constexpr (kBits == 256 && simd::kHaveAvx2) {
        return UpperBoundDf<T, Eval, simd::Backend::kSse, 256>(
            lin, perfect_slots, n, v);
      } else {
        const auto fn = NativeKernels<T, Eval, kBits>::instance.upper_bound_df;
        if (fn != nullptr) return fn(lin, perfect_slots, n, v);
      }
    }
    return UpperBoundDf<T, Eval, simd::Backend::kScalar, kBits>(
        lin, perfect_slots, n, v);
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;  // k - 1
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;  // k

    const auto probe = Ops::Set1(v);
    int64_t position = 0;
    int64_t sub_size = perfect_slots;  // keys in the current subtree
    int64_t key_off = 0;
    while (sub_size > 0) {
      position *= kArity;
      sub_size = (sub_size - (kArity - 1)) / kArity;  // child subtree keys
      const int pos = CompareNode<T, Eval, B, kBits>(lin + key_off, probe);
      key_off += kLanes;             // skip this node's keys
      key_off += sub_size * pos;     // skip `pos` child subtrees
      position += pos;
    }
    return std::min(position, n);
  }
}

// Equality-termination extension (discussed in paper Section 3.1): each
// level additionally compares for equality and stops the descent on a hit.
// Exact for distinct keys; with duplicates it may return a smaller count
// of equal keys than UpperBoundBf (still a valid containment witness).
// The paper expects — and Figure-9-style measurements confirm — no benefit
// on flat trees; provided for the ablation bench.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
int64_t UpperBoundBfWithEquality(const T* lin, const KaryShape& shape,
                                 int64_t stored_slots, int64_t n, T v) {
  if constexpr (B == simd::Backend::kDispatch) {
    // Bench-only extension: inline native widths only, no registry slot —
    // a 512-bit dispatch without global AVX-512 flags runs the scalar
    // image (correctness is identical; ablation_equality is 128-bit).
    if (simd::DispatchWantsNative(kBits)) {
      if constexpr (kBits == 128) {
        if constexpr (simd::kHaveSse) {
          return UpperBoundBfWithEquality<T, Eval, simd::Backend::kSse, 128>(
              lin, shape, stored_slots, n, v);
        }
      } else if constexpr (kBits == 256 && simd::kHaveAvx2) {
        return UpperBoundBfWithEquality<T, Eval, simd::Backend::kSse, 256>(
            lin, shape, stored_slots, n, v);
      }
    }
    return UpperBoundBfWithEquality<T, Eval, simd::Backend::kScalar, kBits>(
        lin, shape, stored_slots, n, v);
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;

    const auto probe = Ops::Set1(v);
    int64_t position = 0;
    int64_t level_base = 0;
    int64_t level_nodes = 1;
    // Sorted positions spanned by one child subtree on the current level.
    int64_t child_span = (shape.slots + 1) / kArity;  // k^(r-1)
    while (level_base < stored_slots) {
      const int64_t key_off = level_base + position * kLanes;
      const int64_t node_lo = position * child_span * kArity;
      position *= kArity;
      if (key_off >= stored_slots) return n;

      const auto node = Ops::LoadUnaligned(lin + key_off);
      const auto eq_mask = Ops::MoveMask(Ops::CmpEq(node, probe));
      if (eq_mask != 0) {
        // Separator i sits at sorted position node_lo + (i+1)*child_span - 1;
        // upper bound of a matched distinct key is that position + 1.
        const int lane =
            simd::CountTrailingZeros64(static_cast<uint64_t>(eq_mask)) /
            simd::LaneTraits<T, kBits>::kMaskBitsPerLane;
        return std::min(node_lo + (lane + 1) * child_span, n);
      }
      const auto gt_mask = Ops::MoveMask(Ops::CmpGt(node, probe));
      position += Eval::template Position<T, kBits>(gt_mask);
      level_base += level_nodes * kLanes;
      level_nodes *= kArity;
      child_span /= kArity;
    }
    return std::min(position, n);
  }
}

// Instrumented variant of UpperBoundBf: identical result, additionally
// counts the SIMD comparison steps (exactly one per k-ary level touched)
// into `counters`. Used by the complexity tests; the uninstrumented
// function stays branch-free of bookkeeping.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
int64_t UpperBoundBfCounted(const T* lin, int64_t stored_slots, int64_t n,
                            T v, SearchCounters* counters) {
  if constexpr (B == simd::Backend::kDispatch) {
    if (simd::DispatchWantsNative(kBits)) {
      if constexpr (kBits == 128) {
        if constexpr (simd::kHaveSse) {
          return UpperBoundBfCounted<T, Eval, simd::Backend::kSse, 128>(
              lin, stored_slots, n, v, counters);
        }
      } else if constexpr (kBits == 256 && simd::kHaveAvx2) {
        return UpperBoundBfCounted<T, Eval, simd::Backend::kSse, 256>(
            lin, stored_slots, n, v, counters);
      } else {
        const auto fn =
            NativeKernels<T, Eval, kBits>::instance.upper_bound_bf_counted;
        if (fn != nullptr) return fn(lin, stored_slots, n, v, counters);
      }
    }
    return UpperBoundBfCounted<T, Eval, simd::Backend::kScalar, kBits>(
        lin, stored_slots, n, v, counters);
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;

    const auto probe = Ops::Set1(v);
    int64_t position = 0;
    int64_t level_base = 0;
    int64_t level_nodes = 1;
    while (level_base < stored_slots) {
      const int64_t key_off = level_base + position * kLanes;
      position *= kArity;
      if (key_off >= stored_slots) return n;
      ++counters->simd_comparisons;
      position += CompareNode<T, Eval, B, kBits>(lin + key_off, probe);
      level_base += level_nodes * kLanes;
      level_nodes *= kArity;
    }
    return std::min(position, n);
  }
}

// Instrumented variant of UpperBoundDf: identical result, counting one
// SIMD comparison per level (the depth-first descent always walks the
// full perfect height; there is no pruned-subtree early exit).
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
int64_t UpperBoundDfCounted(const T* lin, int64_t perfect_slots, int64_t n,
                            T v, SearchCounters* counters) {
  if constexpr (B == simd::Backend::kDispatch) {
    if (simd::DispatchWantsNative(kBits)) {
      if constexpr (kBits == 128) {
        if constexpr (simd::kHaveSse) {
          return UpperBoundDfCounted<T, Eval, simd::Backend::kSse, 128>(
              lin, perfect_slots, n, v, counters);
        }
      } else if constexpr (kBits == 256 && simd::kHaveAvx2) {
        return UpperBoundDfCounted<T, Eval, simd::Backend::kSse, 256>(
            lin, perfect_slots, n, v, counters);
      } else {
        const auto fn =
            NativeKernels<T, Eval, kBits>::instance.upper_bound_df_counted;
        if (fn != nullptr) return fn(lin, perfect_slots, n, v, counters);
      }
    }
    return UpperBoundDfCounted<T, Eval, simd::Backend::kScalar, kBits>(
        lin, perfect_slots, n, v, counters);
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;

    const auto probe = Ops::Set1(v);
    int64_t position = 0;
    int64_t sub_size = perfect_slots;
    int64_t key_off = 0;
    while (sub_size > 0) {
      position *= kArity;
      sub_size = (sub_size - (kArity - 1)) / kArity;
      ++counters->simd_comparisons;
      const int pos = CompareNode<T, Eval, B, kBits>(lin + key_off, probe);
      key_off += kLanes;
      key_off += sub_size * pos;
      position += pos;
    }
    return std::min(position, n);
  }
}

// Lower bound on top of the upper-bound primitive: the index of the first
// key >= v. For integers, lower_bound(v) == upper_bound(v - 1) when v has
// a predecessor, and 0 when v is the type minimum.
template <typename T, typename UpperBoundFn>
int64_t LowerBoundFromUpperBound(T v, UpperBoundFn&& upper_bound) {
  if (v == std::numeric_limits<T>::min()) return 0;
  return upper_bound(static_cast<T>(v - 1));
}

}  // namespace simdtree::kary

#endif  // SIMDTREE_KARY_KARY_SEARCH_H_
