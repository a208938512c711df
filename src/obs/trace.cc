#include "obs/trace.h"

#include <algorithm>
#include <cstdlib>

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

namespace trace_internal {

namespace {

uint32_t EnvSampleRate() {
  const char* env = std::getenv("SIMDTREE_TRACE_SAMPLE");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  if (v <= 0) return 0;
  return static_cast<uint32_t>(v);
}

uint64_t EnvSlowThresholdNs() {
  const char* env = std::getenv("SIMDTREE_TRACE_SLOW_NS");
  if (env == nullptr || *env == '\0') return 0;
  const long long v = std::strtoll(env, nullptr, 10);
  if (v <= 0) return 0;
  return static_cast<uint64_t>(v);
}

// Per-thread countdown to the next sampled query. Deterministic: with
// rate N, exactly every N-th query on each thread is traced.
thread_local uint32_t t_sample_countdown = 0;

}  // namespace

std::atomic<uint32_t> g_sample_rate{EnvSampleRate()};

constinit thread_local uint32_t g_conn_id = 0;
constinit thread_local uint32_t g_request_id = 0;

bool SampleSlowPath(uint32_t rate) {
  if (++t_sample_countdown >= rate) {
    t_sample_countdown = 0;
    return true;
  }
  return false;
}

void ResetThreadSampleCountdown() { t_sample_countdown = 0; }

}  // namespace trace_internal

void EnableTracing(uint32_t rate) {
  trace_internal::g_sample_rate.store(rate, std::memory_order_relaxed);
}

uint32_t TraceSampleRate() {
  return trace_internal::g_sample_rate.load(std::memory_order_relaxed);
}

Tracer::Tracer()
    : instance_id_([] {
        static std::atomic<uint64_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed) + 1;
      }()) {}

Tracer& Tracer::Global() {
  // Leaked like MetricsRegistry::Global(): threads recording during
  // process teardown must never observe a destroyed tracer.
  static Tracer* instance = [] {
    auto* t = new Tracer();
    t->SetSlowThresholdNs(trace_internal::EnvSlowThresholdNs());
    return t;
  }();
  return *instance;
}

Tracer::ThreadSlot Tracer::SlotForThisThread() {
  // Cache keyed by the tracer's process-unique instance id (never by
  // address — a stack tracer at a reused address must not inherit a
  // destroyed instance's ring). Tests constructing their own Tracer
  // thus get rings distinct from the global one. The small thread id is
  // the ring's index in the registry.
  thread_local struct {
    uint64_t owner_id = 0;  // 0 = empty; instance ids start at 1
    ThreadSlot slot{};
  } cached;
  if (cached.owner_id == instance_id_) return cached.slot;
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<TraceRing>());
  cached.owner_id = instance_id_;
  cached.slot = {rings_.back().get(),
                 static_cast<uint32_t>(rings_.size() - 1)};
  return cached.slot;
}

void Tracer::Record(DescentTrace t) {
  const ThreadSlot slot = SlotForThisThread();
  t.thread_id = slot.id;
  const uint64_t threshold =
      slow_threshold_ns_.load(std::memory_order_relaxed);
  if (threshold != 0 && t.latency_ns >= threshold) {
    t.slow = 1;  // set before the ring write so the ring copy agrees
  }
  slot.ring->Write(t);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (t.slow) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slow_.size() < kSlowCapacity) {
      slow_.push_back(t);
    } else {
      slow_[slow_next_ % kSlowCapacity] = t;  // drop-oldest retention
    }
    ++slow_next_;
    slow_recorded_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<DescentTrace> Tracer::Snapshot(size_t max_traces) const {
  std::vector<const TraceRing*> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  std::vector<DescentTrace> out;
  for (const TraceRing* ring : rings) {
    const uint64_t head = ring->head();
    const uint64_t n = std::min<uint64_t>(head, TraceRing::kCapacity);
    for (uint64_t i = head - n; i < head; ++i) {
      DescentTrace t;
      if (ring->TryRead(static_cast<size_t>(i % TraceRing::kCapacity), &t)) {
        out.push_back(t);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DescentTrace& a, const DescentTrace& b) {
              return a.start_ns < b.start_ns;
            });
  if (max_traces != 0 && out.size() > max_traces) {
    out.erase(out.begin(),
              out.end() - static_cast<ptrdiff_t>(max_traces));
  }
  return out;
}

std::vector<DescentTrace> Tracer::SlowSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DescentTrace> out;
  out.reserve(slow_.size());
  // Oldest first: slow_ is a ring once full, rotating at slow_next_.
  const size_t n = slow_.size();
  const size_t start = n < kSlowCapacity ? 0 : slow_next_ % kSlowCapacity;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(slow_[(start + i) % n]);
  }
  return out;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Rings are reset in place, never freed: quiescent threads still hold
  // cached pointers to them.
  for (auto& r : rings_) r->ResetForTest();
  slow_.clear();
  slow_next_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
  slow_recorded_.store(0, std::memory_order_relaxed);
  trace_internal::ResetThreadSampleCountdown();
}

}  // namespace simdtree::obs
