#include "obs/trace.h"

namespace simdtree::obs {

const char* TraceBackendName(uint8_t backend) {
  switch (static_cast<TraceBackend>(backend)) {
    case TraceBackend::kBPlusTree: return "bplustree";
    case TraceBackend::kSegTree: return "segtree";
    case TraceBackend::kSegTrie: return "segtrie";
    case TraceBackend::kOptimizedSegTrie: return "optimized_segtrie";
    case TraceBackend::kCompressedSegTrie: return "compressed_segtrie";
    case TraceBackend::kKaryArray: return "kary_array";
    case TraceBackend::kUnknown: break;
  }
  return "unknown";
}

const char* TraceLayoutName(uint8_t layout) {
  switch (layout) {
    case kTraceLayoutPlain: return "plain";
    case kTraceLayoutBreadthFirst: return "breadth_first";
    case kTraceLayoutDepthFirst: return "depth_first";
    case kTraceLayoutTrieNode: return "trie_node";
  }
  return "unknown";
}

}  // namespace simdtree::obs
