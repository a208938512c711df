#include "obs/request_trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace simdtree::obs {

const char* RequestSpanKindName(uint8_t kind) {
  switch (static_cast<RequestSpanKind>(kind)) {
    case RequestSpanKind::kSocketRead: return "socket_read";
    case RequestSpanKind::kCoalesceWait: return "coalesce_wait";
    case RequestSpanKind::kShardFanout: return "shard_fanout";
    case RequestSpanKind::kDescent: return "descent";
    case RequestSpanKind::kWriteFlush: return "write_flush";
  }
  return "unknown";
}

namespace request_internal {

constinit thread_local SpanCollector* g_collector = nullptr;

namespace {

// One environment knob: 0 when unset or empty, else a plain decimal
// integer in [1, max]; anything else clears *ok after one stderr line.
uint64_t ParseEnv(const char* name, uint64_t max, bool* ok) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return 0;
  const char* end = env + std::strlen(env);
  uint64_t v = 0;
  const auto [stop, ec] = std::from_chars(env, end, v);
  if (ec != std::errc() || stop != end || v == 0 || v > max) {
    std::fprintf(stderr,
                 "simdtree: ignoring %s=\"%s\" (want an integer in "
                 "1..%llu); request tracing stays disarmed\n",
                 name, env, static_cast<unsigned long long>(max));
    *ok = false;
    return 0;
  }
  return v;
}

}  // namespace
}  // namespace request_internal

RequestTracer::RequestTracer()
    : instance_id_([] {
        static std::atomic<uint64_t> counter{0};
        return counter.fetch_add(1, std::memory_order_relaxed) + 1;
      }()) {}

RequestTracer& RequestTracer::Global() {
  // Leaked: worker threads finishing requests at process teardown must
  // never observe a destroyed recorder.
  static RequestTracer* instance = [] {
    auto* t = new RequestTracer();
    t->ConfigureFromEnv();
    return t;
  }();
  return *instance;
}

bool RequestTracer::ConfigureFromEnv() {
  bool ok = true;
  const uint64_t rate = request_internal::ParseEnv(
      "SIMDTREE_REQUEST_SAMPLE", std::numeric_limits<uint32_t>::max(), &ok);
  const uint64_t slow = request_internal::ParseEnv(
      "SIMDTREE_REQUEST_SLOW_NS", std::numeric_limits<uint64_t>::max(), &ok);
  if (!ok) return false;
  if (rate != 0 || slow != 0) Configure(static_cast<uint32_t>(rate), slow);
  return true;
}

void RequestTracer::Configure(uint32_t head_rate,
                              uint64_t slow_threshold_ns) {
  head_rate_.store(head_rate, std::memory_order_relaxed);
  slow_threshold_ns_.store(slow_threshold_ns, std::memory_order_relaxed);
  armed_.store(head_rate != 0 || slow_threshold_ns != 0,
               std::memory_order_relaxed);
}

RequestTracer::ThreadSlot RequestTracer::SlotForThisThread() {
  thread_local struct {
    uint64_t owner_id = 0;  // 0 = empty; instance ids start at 1
    ThreadSlot slot{};
  } cached;
  if (cached.owner_id == instance_id_) return cached.slot;
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(std::make_unique<Ring>());
  cached.owner_id = instance_id_;
  cached.slot = {rings_.back().get(),
                 static_cast<uint32_t>(rings_.size() - 1)};
  return cached.slot;
}

bool RequestTracer::Finish(RequestTrace* t) {
  // The sequence number doubles as the head-sampling clock: with rate
  // N, exactly every N-th completed request process-wide is retained —
  // deterministic, so tests can assert exact counts.
  const uint64_t seq = completed_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t threshold =
      slow_threshold_ns_.load(std::memory_order_relaxed);
  const bool slow = threshold != 0 && t->latency_ns >= threshold;
  const uint32_t rate = head_rate_.load(std::memory_order_relaxed);
  const bool head = rate != 0 && seq % rate == 0;
  if (!slow && !head) return false;

  const ThreadSlot slot = SlotForThisThread();
  t->thread_id = slot.id;
  t->slow = slow ? 1 : 0;
  slot.ring->Write(*t);
  retained_.fetch_add(1, std::memory_order_relaxed);
  if (slow) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slow_.size() < kSlowCapacity) {
      slow_.push_back(*t);
    } else {
      slow_[slow_next_ % kSlowCapacity] = *t;  // drop-oldest retention
    }
    ++slow_next_;
    slow_retained_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

std::vector<RequestTrace> RequestTracer::Snapshot(size_t max_traces) const {
  std::vector<const Ring*> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  std::vector<RequestTrace> out;
  for (const Ring* ring : rings) {
    const uint64_t head = ring->head();
    const uint64_t n = std::min<uint64_t>(head, Ring::kCapacity);
    for (uint64_t i = head - n; i < head; ++i) {
      RequestTrace t;
      if (ring->TryRead(static_cast<size_t>(i % Ring::kCapacity), &t)) {
        out.push_back(t);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.start_ns < b.start_ns;
            });
  if (max_traces != 0 && out.size() > max_traces) {
    out.erase(out.begin(),
              out.end() - static_cast<ptrdiff_t>(max_traces));
  }
  return out;
}

std::vector<RequestTrace> RequestTracer::SlowSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RequestTrace> out;
  out.reserve(slow_.size());
  const size_t n = slow_.size();
  const size_t start = n < kSlowCapacity ? 0 : slow_next_ % kSlowCapacity;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(slow_[(start + i) % n]);
  }
  return out;
}

void RequestTracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& r : rings_) r->ResetForTest();
  slow_.clear();
  slow_next_ = 0;
  completed_.store(0, std::memory_order_relaxed);
  retained_.store(0, std::memory_order_relaxed);
  slow_retained_.store(0, std::memory_order_relaxed);
}

}  // namespace simdtree::obs
