// Overhead of the query-trace flight recorder (obs/trace.h) on Seg-Tree
// point lookups.
//
// The acceptance bar for the tracing subsystem is that compiling the
// hooks in but leaving sampling disabled costs <= 2% throughput versus a
// descent with no tracing code at all. Four modes over the same 16M-key
// Seg-Tree and probe set:
//
//   absent  plain SegTree::Find — no sampling branch anywhere
//   off     sampling branch compiled in, rate 0 (the shipped default)
//   s1024   1-in-1024 sampled traced descents
//   s16     1-in-16 sampled traced descents
//
// Modes are measured round-robin for `--reps` rounds (default 7) and
// each mode's fastest round is reported — interleaving cancels slow
// frequency/thermal drift and min-of-rounds guards against
// timer/scheduler noise. --keys=N shrinks the tree for quick runs.
//
// JSON lines (--json): cycles_per_lookup and mlookups_per_s per mode,
// plus overhead_pct for each mode relative to `absent` — the
// off-vs-absent line is the one EXPERIMENTS.md records.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/simdtree.h"
#include "obs/trace.h"

namespace {

using simdtree::CycleTimer;
using simdtree::bench::CyclesPerOp;
using simdtree::bench::EmitJson;
using Tree = simdtree::segtree::SegTree<uint64_t, uint64_t>;

// One traced-or-not lookup, replicating the wrapper hook
// (core/sharded.h) without its shard lock so the measurement
// isolates the tracing machinery itself.
inline bool LookupWithHook(const Tree& tree, uint64_t key) {
  if (simdtree::obs::TraceShouldSample()) [[unlikely]] {
    simdtree::obs::TraceScope scope;
    const auto v = tree.FindTraced(key, scope.trace());
    scope.Finish();
    return v.has_value();
  }
  return tree.Find(key).has_value();
}

double OneRound(const Tree& tree, const std::vector<uint64_t>& probes,
                bool hook) {
  if (hook) {
    return CyclesPerOp(probes, [&tree](uint64_t k) {
      return LookupWithHook(tree, k) ? 1 : 0;
    });
  }
  return CyclesPerOp(
      probes, [&tree](uint64_t k) { return tree.Find(k).has_value() ? 1 : 0; });
}

}  // namespace

int main(int argc, char** argv) {
  simdtree::bench::ParseBenchArgs(argc, argv);
  size_t num_keys = 16u * 1000 * 1000;
  int reps = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      num_keys = static_cast<size_t>(std::atoll(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
      if (reps < 1) reps = 1;
    }
  }

  simdtree::bench::PrintBenchHeader("trace overhead (flight recorder)");
  std::printf("building Seg-Tree with %zu keys...\n", num_keys);
  Tree tree;
  {
    // Sorted bulk insert of even keys; odd probes miss, even probes hit.
    for (size_t i = 0; i < num_keys; ++i) {
      tree.Insert(static_cast<uint64_t>(i) * 2, static_cast<uint64_t>(i));
    }
  }
  simdtree::Rng rng(42);
  std::vector<uint64_t> probes(simdtree::bench::kProbeCount);
  for (auto& p : probes) p = rng.NextBounded(2 * num_keys);

  struct Mode {
    const char* name;
    uint32_t rate;
    bool hook;
  };
  const Mode modes[] = {
      {"absent", 0, false},
      {"off", 0, true},
      {"s1024", 1024, true},
      {"s16", 16, true},
  };

  constexpr size_t kModes = sizeof(modes) / sizeof(modes[0]);
  double best[kModes] = {};
  for (int r = 0; r < reps; ++r) {
    for (size_t m = 0; m < kModes; ++m) {
      simdtree::obs::EnableTracing(modes[m].rate);
      const double c = OneRound(tree, probes, modes[m].hook);
      simdtree::obs::EnableTracing(0);
      if (r == 0 || c < best[m]) best[m] = c;
    }
  }

  const double ghz = CycleTimer::CyclesPerSecond() / 1e9;
  const double absent_cycles = best[0];
  std::printf("%-8s %16s %14s %12s\n", "mode", "cycles/lookup",
              "Mlookups/s", "vs absent");
  for (size_t m = 0; m < kModes; ++m) {
    const double cycles = best[m];
    const double mlps = ghz * 1e3 / cycles;
    const double overhead = (cycles / absent_cycles - 1.0) * 100.0;
    std::printf("%-8s %16.1f %14.2f %+11.2f%%\n", modes[m].name, cycles,
                mlps, overhead);
    EmitJson("bb_trace_overhead", modes[m].name, "cycles_per_lookup",
             cycles);
    EmitJson("bb_trace_overhead", modes[m].name, "mlookups_per_s", mlps);
    EmitJson("bb_trace_overhead", modes[m].name, "overhead_pct", overhead);
  }
  std::printf("\ntraces recorded: %llu (slow: %llu)\n",
              static_cast<unsigned long long>(
                  simdtree::obs::Tracer::Global().recorded()),
              static_cast<unsigned long long>(
                  simdtree::obs::Tracer::Global().slow_recorded()));
  return 0;
}
