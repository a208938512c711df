// Observers for the single-key descents of the index families.
//
// Each tree and trie has one root-to-leaf descent, templated on an
// observer that watches it (GenericBPlusTree::FindLeafPos,
// SegTrie::Find, CompressedSegTrie::Find):
//
//   None      the plain lookup: every hook is empty and inlines away,
//             so the descent compiles to the uninstrumented loop
//   Counters  nodes visited plus in-node comparisons (util/counters.h)
//   Trace     one obs::LevelSpan per node searched, plus the probed
//             key, backend and found flag (obs/trace.h)
//
// The descent calls Start once, Search for every node it searches,
// Hop for a node it enters without searching (the B+-tree's step into
// the previous leaf), and Found with its answer. Search receives three
// callables: the plain in-node search, the same search counting its
// comparisons into a SearchCounters, and a description of the node for
// the trace. Each observer calls only what it needs.

#ifndef SIMDTREE_CORE_DESCENT_OBSERVER_H_
#define SIMDTREE_CORE_DESCENT_OBSERVER_H_

#include <cstdint>

#include "obs/trace.h"
#include "util/counters.h"
#include "util/cycle_timer.h"

namespace simdtree::descent {

// What a trace records about one searched node.
struct NodeInfo {
  uint32_t ref;    // compressed node ref, or the block address's low bits
  uint8_t layout;  // obs::kTraceLayout*
  uint8_t slab;    // arena slab, or obs::kTraceSlabUnknown
};

struct None {
  void Start(uint64_t /*key*/, obs::TraceBackend /*backend*/) {}
  template <typename Plain, typename Counted, typename Describe>
  int64_t Search(Plain&& plain, Counted&& /*counted*/,
                 Describe&& /*describe*/) {
    return plain();
  }
  void Hop() {}
  void Found(bool /*found*/) {}
};

struct Counters {
  SearchCounters* counters;

  void Start(uint64_t /*key*/, obs::TraceBackend /*backend*/) {}
  template <typename Plain, typename Counted, typename Describe>
  int64_t Search(Plain&& /*plain*/, Counted&& counted,
                 Describe&& /*describe*/) {
    ++counters->nodes_visited;
    return counted(counters);
  }
  void Hop() { ++counters->nodes_visited; }
  void Found(bool /*found*/) {}
};

struct Trace {
  obs::DescentTrace* trace;

  void Start(uint64_t key, obs::TraceBackend backend) {
    trace->key = key;
    trace->backend = static_cast<uint8_t>(backend);
  }
  template <typename Plain, typename Counted, typename Describe>
  int64_t Search(Plain&& /*plain*/, Counted&& counted, Describe&& describe) {
    const uint64_t start = CycleTimer::Now();
    SearchCounters cmps;
    const int64_t result = counted(&cmps);
    const NodeInfo node = describe();
    obs::AppendTraceLevel(trace, node.ref, node.layout, node.slab, cmps,
                          CycleTimer::Now() - start);
    return result;
  }
  void Hop() {}
  void Found(bool found) { trace->found = found ? 1 : 0; }
};

}  // namespace simdtree::descent

#endif  // SIMDTREE_CORE_DESCENT_OBSERVER_H_
