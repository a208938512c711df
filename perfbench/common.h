// Shared pieces of the perfbench driver: the seeded key universe, the
// value encoding every reply is checked against, sample statistics and
// the metric sink that becomes the driver's JSON result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// SplitMix64 finalizer: a bijective 64-bit mix.
inline uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// The stored keys of a workload: key(i) = i * 1024 + jitter(i), with the
// jitter in [0, 1024) drawn from the seed. Keys are strictly increasing
// in i, so the i-th smallest stored key, the owner of any probe value
// (probe >> 10) and the answer to a lower-bound probe are all computed
// without a reference map, and the gaps between keys give misses.
class KeyUniverse {
 public:
  static constexpr int kStrideBits = 10;

  KeyUniverse(uint64_t n, uint64_t seed) : n_(n), seed_(Mix64(seed)) {}

  uint64_t size() const { return n_; }
  uint64_t Key(uint64_t i) const {
    return (i << kStrideBits) |
           (Mix64(i ^ seed_) & ((uint64_t{1} << kStrideBits) - 1));
  }
  // Index of the stored key equal to `key`, or n when `key` is none.
  uint64_t IndexOf(uint64_t key) const {
    const uint64_t i = key >> kStrideBits;
    return i < n_ && Key(i) == key ? i : n_;
  }
  // Index of the smallest stored key >= probe (n when none).
  uint64_t LowerBoundIndex(uint64_t probe) const {
    const uint64_t i = probe >> kStrideBits;
    if (i >= n_) return n_;
    return Key(i) >= probe ? i : i + 1;
  }

  // Value written for `key` at `version`: the version sits in the top
  // 24 bits, a key digest in the low 40, so any reply value can be
  // traced back to the (key, version) that produced it.
  static constexpr int kDigestBits = 40;
  uint64_t Value(uint64_t key, uint64_t version) const {
    return (version << kDigestBits) | Digest(key);
  }
  uint64_t Digest(uint64_t key) const {
    return Mix64(key ^ ~seed_) & ((uint64_t{1} << kDigestBits) - 1);
  }
  static uint64_t VersionOf(uint64_t value) { return value >> kDigestBits; }

 private:
  uint64_t n_;
  uint64_t seed_;
};

// Percentile of a sample (nearest rank on the sorted copy); 0 when empty.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Timing statistics are taken per round: the timed window is cut into
// fixed rounds and each round yields its own figure. On a shared host a
// neighbour that takes the CPU for a few milliseconds wrecks the rounds
// it lands in and leaves the others alone, so the figure reported is the
// median round's (typical behaviour) or the best round's (what the
// program does undisturbed), never one pooled over every disturbance.
struct Rounds {
  uint64_t from_ns = 0;
  uint64_t to_ns = 0;
  uint64_t round_ns = 500'000'000;
  size_t count() const {
    return to_ns > from_ns ? static_cast<size_t>((to_ns - from_ns) / round_ns)
                           : 0;
  }
  // Round of a timestamp, or count() when outside every full round.
  size_t Of(uint64_t t) const {
    if (t < from_ns) return count();
    const size_t k = static_cast<size_t>((t - from_ns) / round_ns);
    return k < count() ? k : count();
  }
};

// The q-quantile of each round's samples (rounds with fewer than 100
// samples are skipped), then the across-quantile of those figures: 0.5
// for the median round, 0 for the lowest.
inline double RoundPercentile(const Rounds& r, const std::vector<uint64_t>& t_ns,
                              const std::vector<double>& v, double q,
                              double across) {
  constexpr size_t kMinSamples = 100;
  std::vector<std::vector<double>> per(r.count());
  for (size_t i = 0; i < v.size() && i < t_ns.size(); ++i) {
    const size_t k = r.Of(t_ns[i]);
    if (k < per.size()) per[k].push_back(v[i]);
  }
  std::vector<double> figures;
  for (auto& x : per) {
    if (x.size() >= kMinSamples) figures.push_back(Percentile(std::move(x), q));
  }
  return Percentile(std::move(figures), across);
}

// Events per second in each round (one event at each t_ns[i]), then
// the across-quantile: 1 for the best round.
inline double RoundRate(const Rounds& r, const std::vector<uint64_t>& t_ns,
                        double across) {
  std::vector<double> per(r.count(), 0.0);
  for (const uint64_t t : t_ns) {
    const size_t k = r.Of(t);
    if (k < per.size()) per[k] += 1.0;
  }
  for (double& x : per) x /= static_cast<double>(r.round_ns) * 1e-9;
  return Percentile(std::move(per), across);
}

// Ids of this process's threads.
inline std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
    }
    closedir(d);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Moves the calling thread to the next CPU of its CPU set at each round,
// and the `others` threads (a server's workers) to the CPU after it, so
// the two sides never share a CPU; the destructor restores the set. On
// a shared host a thread left on one CPU measures that CPU's neighbours
// for the whole run, and which CPUs a run lands on then decides its
// result. Cycling lets every run's rounds see every CPU.
class CpuCycler {
 public:
  explicit CpuCycler(std::vector<pid_t> others = {})
      : others_(std::move(others)) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
      }
    }
  }
  ~CpuCycler() { Restore(); }

  void Round(size_t k) {
    if (k == round_ || cpus_.size() < 2) return;
    round_ = k;
    Pin(0, cpus_[k % cpus_.size()]);
    for (pid_t t : others_) Pin(t, cpus_[(k + 1) % cpus_.size()]);
  }
  void Restore() {
    if (round_ == kNone) return;
    round_ = kNone;
    sched_setaffinity(0, sizeof(saved_), &saved_);
    for (pid_t t : others_) sched_setaffinity(t, sizeof(saved_), &saved_);
  }

 private:
  static constexpr size_t kNone = ~size_t{0};
  static void Pin(pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof(one), &one);
  }
  std::vector<pid_t> others_;
  cpu_set_t saved_;
  std::vector<int> cpus_;
  size_t round_ = kNone;
};

// Named metrics in insertion order, printed as the result line's
// "metrics" object. Every value carries its unit and, for timings, the
// sample count behind it (shown on the human-readable lines only).
class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    entries_.push_back({name, value, unit, samples});
  }
  // Value of a metric added earlier (0 when absent).
  double Get(const std::string& name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return e.value;
    }
    return 0;
  }
  void PrintHuman(FILE* out) const {
    for (const auto& e : entries_) {
      if (e.samples > 0) {
        std::fprintf(out, "  %-36s %16.6f %-6s (n=%llu)\n", e.name.c_str(),
                     e.value, e.unit.c_str(),
                     static_cast<unsigned long long>(e.samples));
      } else {
        std::fprintf(out, "  %-36s %16.6f %s\n", e.name.c_str(), e.value,
                     e.unit.c_str());
      }
    }
  }
  std::string Json() const {
    std::string s = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      std::snprintf(buf, sizeof(buf), "%.9g", e.value);
      s += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
