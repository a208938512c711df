// The in-process half of the per-layer ledger: the same probe stream is
// replayed through each layer's public entry point in turn, from the
// in-node kernel up to ShardedIndex::FindBatch, so the gap between two
// adjacent rungs is the cost of the outer layer:
//
//   kary.node_search_ns          KaryArray::UpperBound over one node
//   descent.find_ns              per-shard Index::Find
//   descent.pipelined_ns_per_key per-shard Index::FindBatch
//   descent.grouped_ns_per_key   per-shard Index::FindBatchGrouped
//   sharded.find_batch_ns_per_key ShardedIndex::FindBatch
//
// plus exact descent counts from the counted batch calls and the traced
// single-key descent. Protocol encode/decode is timed on frames built
// from the same stream.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common.h"
#include "btree/btree.h"
#include "core/sharded.h"
#include "kary/kary_array.h"
#include "obs/trace.h"
#include "util/counters.h"

namespace perfbench {

// Runs `pass` until at least 20 ms elapsed, five times, and returns the
// median nanoseconds of one pass.
template <typename Fn>
double MedianPassNs(Fn pass) {
  constexpr int kReps = 5;
  constexpr uint64_t kMinNs = 20'000'000;
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    uint64_t passes = 0;
    const uint64_t t0 = NowNs();
    uint64_t el = 0;
    do {
      pass();
      ++passes;
      el = NowNs() - t0;
    } while (el < kMinNs);
    v.push_back(static_cast<double>(el) / static_cast<double>(passes));
  }
  return Median(v);
}

// Ladder over one index. `stream` is the probe stream in the order the
// workload sent it; `batch` is the workload's batch size (1 for
// single-key calls, the coalesced size for served reads). Counts cover
// the whole stream, so they repeat exactly for a fixed stream.
template <typename Tree>
void RunIndexLadder(const simdtree::ShardedIndex<Tree>& index,
                    const std::vector<typename Tree::KeyType>& stream,
                    size_t batch, MetricSink* out) {
  using Key = typename Tree::KeyType;
  using Value = typename Tree::ValueType;
  const size_t n = stream.size();
  const size_t shards = index.num_shards();
  if (batch < 1) batch = 1;
  volatile uint64_t sink = 0;

  // Per-shard sub-batches of the stream, cut the way
  // ShardedIndex::FindBatch cuts each workload batch.
  struct Partition {
    std::vector<std::vector<Key>> keys;
    std::vector<std::vector<size_t>> cuts;  // sub-batch boundaries
  };
  size_t max_sub = 1;
  auto partition = [&] {
    Partition p{std::vector<std::vector<Key>>(shards),
                std::vector<std::vector<size_t>>(shards, {0})};
    for (size_t off = 0; off < n; off += batch) {
      const size_t end = std::min(n, off + batch);
      for (size_t i = off; i < end; ++i) {
        p.keys[index.ShardOf(stream[i])].push_back(stream[i]);
      }
      for (size_t s = 0; s < shards; ++s) {
        const size_t m = p.keys[s].size() - p.cuts[s].back();
        if (m == 0) continue;
        p.cuts[s].push_back(p.keys[s].size());
        max_sub = std::max(max_sub, m);
      }
    }
    return p;
  };
  const Partition all = partition();
  std::vector<const Value*> ptrs(max_sub);

  // Runs `engine(tree, keys, m)` over every sub-batch of every shard,
  // one shard read lock per shard.
  auto per_shard = [&](const Partition& p, auto engine) {
    for (size_t s = 0; s < shards; ++s) {
      index.WithShardRead(s, [&](const Tree& tree) {
        const auto& cuts = p.cuts[s];
        for (size_t c = 1; c < cuts.size(); ++c) {
          engine(tree, p.keys[s].data() + cuts[c - 1], cuts[c] - cuts[c - 1]);
        }
        return 0;
      });
    }
  };
  auto ns_per_key = [&](double pass_ns) {
    return n ? pass_ns / static_cast<double>(n) : 0.0;
  };

  std::vector<std::optional<Value>> outs(batch);
  out->Add("sharded.find_batch_ns_per_key",
           ns_per_key(MedianPassNs([&] {
             for (size_t off = 0; off < n; off += batch) {
               const size_t m = std::min(batch, n - off);
               index.FindBatch(stream.data() + off, m, outs.data());
               sink = sink + (outs[0].has_value() ? 1 : 0);
             }
           })),
           "ns", n);
  out->Add("descent.find_ns", ns_per_key(MedianPassNs([&] {
             per_shard(all, [&](const Tree& t, const Key* k, size_t m) {
               for (size_t i = 0; i < m; ++i) {
                 sink = sink + (t.Find(k[i]).has_value() ? 1 : 0);
               }
             });
           })),
           "ns", n);
  out->Add("descent.pipelined_ns_per_key", ns_per_key(MedianPassNs([&] {
             per_shard(all, [&](const Tree& t, const Key* k, size_t m) {
               for (size_t off = 0; off < m; off += 256) {
                 const size_t g = std::min<size_t>(256, m - off);
                 t.FindBatch(k + off, g, ptrs.data());
                 sink = sink + (ptrs[0] != nullptr ? 1 : 0);
               }
             });
           })),
           "ns", n);
  out->Add("descent.grouped_ns_per_key", ns_per_key(MedianPassNs([&] {
             per_shard(all, [&](const Tree& t, const Key* k, size_t m) {
               t.FindBatchGrouped(k, m, ptrs.data());
               sink = sink + (ptrs[0] != nullptr ? 1 : 0);
             });
           })),
           "ns", n);

  // Exact counts over the stream: nodes visited by the pipelined
  // engine (equal to summed single-key descents), distinct nodes loaded
  // by the grouped engine on the workload's batches, and the SIMD
  // compare steps of traced single-key descents.
  simdtree::SearchCounters piped, grouped;
  uint64_t counted = 0;
  uint64_t simd_cmps = 0;
  per_shard(all, [&](const Tree& t, const Key* k, size_t m) {
    t.FindBatch(k, m, ptrs.data(), simdtree::kDefaultBatchGroup, &piped);
    t.FindBatchGrouped(k, m, ptrs.data(), &grouped);
    for (size_t i = 0; i < m; ++i) {
      simdtree::obs::DescentTrace tr;
      t.FindTraced(k[i], &tr);
      for (int l = 0; l < tr.levels; ++l) simd_cmps += tr.level[l].simd_cmps;
    }
    counted += m;
  });
  const double cn = counted ? static_cast<double>(counted) : 1.0;
  out->Add("descent.nodes_visited_per_key",
           static_cast<double>(piped.nodes_visited) / cn, "count", counted);
  out->Add("descent.nodes_loaded_per_key",
           static_cast<double>(grouped.nodes_loaded) / cn, "count", counted);
  out->Add("descent.simd_cmp_per_key", static_cast<double>(simd_cmps) / cn,
           "count", counted);

  // The kernel alone: one node-sized k-ary array (the tree's node
  // capacity, keys spread over the stored range) probed with the stream.
  const int64_t cap = simdtree::btree::PaperNodeCapacity(sizeof(Key));
  std::vector<Key> node_keys;
  {
    std::vector<Key> sorted(stream.begin(), stream.end());
    std::sort(sorted.begin(), sorted.end());
    for (int64_t i = 0; i < cap && !sorted.empty(); ++i) {
      node_keys.push_back(sorted[static_cast<size_t>(i) * sorted.size() /
                                 static_cast<size_t>(cap)]);
    }
  }
  const simdtree::kary::KaryArray<Key> node(std::move(node_keys),
                                            simdtree::kary::Layout::kBreadthFirst);
  out->Add("kary.node_search_ns", ns_per_key(MedianPassNs([&] {
             for (size_t i = 0; i < n; ++i) {
               sink = sink + static_cast<uint64_t>(node.UpperBound(stream[i]));
             }
           })),
           "ns", n);
}

// Protocol layer: DecodeRequest over request frames and
// AppendResponseFrame for their replies, built from the workload's
// recorded GET keys and LOWER_BOUND probes.
void RunProtocolLadder(const std::vector<uint64_t>& read_keys,
                       const std::vector<uint64_t>& lb_keys, MetricSink* out);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
