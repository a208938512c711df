// simdtree — SIMD-accelerated tree index structures.
//
// Umbrella header for the public API, reproducing "Adapting Tree
// Structures for Processing with SIMD Instructions" (Zeuch, Huber,
// Freytag; EDBT 2014):
//
//   btree::BPlusTree        — baseline B+-Tree, scalar in-node search
//   segtree::SegTree        — B+-Tree with SIMD k-ary in-node search
//   segtrie::SegTrie        — segment trie with SIMD in-node search
//   segtrie::OptimizedSegTrie — lazy-expansion variant
//   segtrie::AdaptedSegTrie — trie over signed/float keys via codecs
//   kary::KaryArray         — standalone linearized SIMD dictionary
//   ShardedIndex            — range-partitioned shards, per-shard locks,
//                             lock-free reads (one shard: coarse wrapper)
//   io::Serialize/Load*     — portable binary persistence
//   obs::PerfCounterGroup   — hardware counters via perf_event_open
//   obs::LogHistogram       — lock-free log-bucketed latency histogram
//   obs::MetricsRegistry    — named counters/gauges/histograms + JSON
//
// Quickstart:
//
//   #include "core/simdtree.h"
//   simdtree::segtree::SegTree<uint32_t, uint64_t> index;
//   index.Insert(42, 4200);
//   if (auto v = index.Find(42)) use(*v);
//
// See README.md for the architecture overview and bench/ for the
// paper-reproduction harness.

#ifndef SIMDTREE_CORE_SIMDTREE_H_
#define SIMDTREE_CORE_SIMDTREE_H_

#include "btree/batch_descent.h"         // IWYU pragma: export
#include "btree/btree.h"                 // IWYU pragma: export
#include "core/batch.h"                  // IWYU pragma: export
#include "core/serialize.h"              // IWYU pragma: export
#include "core/sharded.h"                // IWYU pragma: export
#include "core/version.h"                // IWYU pragma: export
#include "kary/batch_search.h"           // IWYU pragma: export
#include "obs/histogram.h"               // IWYU pragma: export
#include "obs/metrics.h"                 // IWYU pragma: export
#include "obs/perf_counters.h"           // IWYU pragma: export
#include "kary/kary_array.h"             // IWYU pragma: export
#include "kary/kary_search.h"            // IWYU pragma: export
#include "kary/linearize.h"              // IWYU pragma: export
#include "segtree/segtree.h"             // IWYU pragma: export
#include "segtrie/compressed_segtrie.h"  // IWYU pragma: export
#include "segtrie/key_codec.h"           // IWYU pragma: export
#include "segtrie/segtrie.h"             // IWYU pragma: export
#include "simd/bitmask_eval.h"           // IWYU pragma: export
#include "simd/cpu_features.h"           // IWYU pragma: export
#include "simd/simd128.h"                // IWYU pragma: export
#include "simd/simd256.h"                // IWYU pragma: export
#include "util/counters.h"               // IWYU pragma: export

#endif  // SIMDTREE_CORE_SIMDTREE_H_
