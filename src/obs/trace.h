// Per-level descent record: the vocabulary of one tree descent inside a
// request trace.
//
// The metrics registry (obs/metrics.h) answers "how fast are we on
// average"; a request trace (obs/request_trace.h) answers "which request
// was slow and which serving layer took the time". Its descent section,
// a DescentTrace, answers where inside the tree descent that time went:
// the backend, the shard, and one LevelSpan per tree level touched — the
// node's compressed reference, the key-store layout it was searched
// with, the SIMD/scalar comparison counts of that level's in-node
// search, the arena slab the node block lives in, and the cycles the
// level took. The paper's tuning story (layout x bitmask-eval x node
// size, Sections 3-5) is machine- and workload-dependent; this record is
// how a production deployment sees those per-level costs on live
// traffic instead of in offline benches.
//
// Every family's FindTraced fills one through the descent::Trace
// observer (core/descent_observer.h); ShardedIndex fills the armed
// request's copy on the read-ladder rung the read actually takes.

#ifndef SIMDTREE_OBS_TRACE_H_
#define SIMDTREE_OBS_TRACE_H_

#include <cstdint>
#include <type_traits>

#include "util/counters.h"

namespace simdtree::obs {

// Index structure a trace descended. One byte in the trace schema.
enum class TraceBackend : uint8_t {
  kUnknown = 0,
  kBPlusTree = 1,         // GenericBPlusTree + PlainKeyStore
  kSegTree = 2,           // GenericBPlusTree + SegKeyStore
  kSegTrie = 3,
  kOptimizedSegTrie = 4,  // lazy-expansion trie
  kCompressedSegTrie = 5,
  kKaryArray = 6,
};

const char* TraceBackendName(uint8_t backend);

// Key-store layout searched at one level.
inline constexpr uint8_t kTraceLayoutPlain = 0;         // sorted array
inline constexpr uint8_t kTraceLayoutBreadthFirst = 1;  // linearized k-ary BF
inline constexpr uint8_t kTraceLayoutDepthFirst = 2;    // linearized k-ary DF
inline constexpr uint8_t kTraceLayoutTrieNode = 3;      // compact trie node

const char* TraceLayoutName(uint8_t layout);

inline constexpr uint8_t kTraceSlabUnknown = 0xff;
inline constexpr uint16_t kTraceNoShard = 0xffff;
inline constexpr uint32_t kTraceNoNodeRef = 0xffffffffu;

// One level of a descent. 16 bytes; a full trace stays cache-friendly.
struct LevelSpan {
  uint32_t node_ref = kTraceNoNodeRef;  // compressed node ref (arena slot);
                                        // grouped descents: nodes visited
                                        // at this level (saturated)
  uint32_t cycles = 0;                  // TSC cycles spent at this level
  uint16_t simd_cmps = 0;               // SIMD compare steps in the node
  uint16_t scalar_cmps = 0;             // scalar compare steps in the node
  uint8_t layout = kTraceLayoutPlain;   // kTraceLayout* of the key store
  uint8_t arena_slab = kTraceSlabUnknown;  // slab index of the node block
  uint16_t group_size = 0;  // queries sharing this level (grouped descent;
                            // 0 for single-query spans)
};
static_assert(sizeof(LevelSpan) == 16);

// Deep enough for every backend: a 16M-key B+-Tree is 4-5 levels, a
// 64-bit 8-bit-segment trie is 8, a 4-bit-segment trie is 16.
inline constexpr int kMaxTraceLevels = 20;

// One descent. Trivially copyable (request-trace rings store it
// word-wise through atomics) and fixed-size (no allocation on the
// record path). Timing, ids and retention live on the enclosing
// RequestTrace.
struct DescentTrace {
  uint64_t key = 0;           // probed key (a grouped pass: its first
                              // key), cast to its unsigned image
  uint64_t lock_wait_ns = 0;  // shard lock wait of the fallback rung
  uint16_t shard = kTraceNoShard;  // owning shard (sharded wrapper only)
  uint8_t backend = static_cast<uint8_t>(TraceBackend::kUnknown);
  uint8_t levels = 0;         // valid entries in level[]
  uint8_t found = 0;          // 1 if the key was present
  uint8_t reserved[3] = {};
  LevelSpan level[kMaxTraceLevels];
};
static_assert(std::is_trivially_copyable_v<DescentTrace>);
static_assert(sizeof(DescentTrace) % sizeof(uint64_t) == 0);

// Appends one level span; silently drops levels beyond kMaxTraceLevels
// (deeper structures keep the first kMaxTraceLevels levels).
inline void AppendTraceLevel(DescentTrace* t, uint32_t node_ref,
                             uint8_t layout, uint8_t arena_slab,
                             const SearchCounters& cmps, uint64_t cycles,
                             uint16_t group_size = 0) {
  if (t->levels >= kMaxTraceLevels) return;
  LevelSpan& s = t->level[t->levels++];
  s.node_ref = node_ref;
  s.cycles = cycles > 0xffffffffu ? 0xffffffffu
                                  : static_cast<uint32_t>(cycles);
  s.simd_cmps = static_cast<uint16_t>(
      cmps.simd_comparisons > 0xffff ? 0xffff : cmps.simd_comparisons);
  s.scalar_cmps = static_cast<uint16_t>(
      cmps.scalar_comparisons > 0xffff ? 0xffff : cmps.scalar_comparisons);
  s.layout = layout;
  s.arena_slab = arena_slab;
  s.group_size = group_size;
}

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_TRACE_H_
