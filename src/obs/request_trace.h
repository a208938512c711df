// End-to-end KV request traces with tail-based sampling.
//
// One trace explains one request: for a slow p999 wire request, was the
// time spent in socket backpressure, waiting behind earlier frames in
// the pipeline, shard fan-out, the SIMD descent itself, or flushing the
// reply — and inside the descent, on which tree level? Each request gets
// a trace id at frame parse (net/server.cc) and accumulates up to
// kMaxRequestSpans spans as it moves through the serving path:
//
//   socket_read    recv() drain that delivered the request's frame
//   coalesce_wait  queueing behind earlier frames of the same pipeline
//                  (writes are barriers, so reads can wait on a PUT)
//   shard_fanout   counting-sort partition/scatter across shards
//                  (ShardedIndex::FindBatch passes 1-2)
//   descent        the in-shard batched tree descent (pass 3), or the
//                  whole index call for single-key ops
//   write_flush    send() loop that pushed the reply toward the socket
//
// plus one descent section (obs/trace.h DescentTrace), the descent
// span's per-level children: node ref, layout, comparisons and cycles
// per level of a single-key read, or per level of a grouped pass the
// nodes it loaded and the queries sharing them. An interleaved batch
// leaves it empty: its keys' levels interleave and no one key owns them.
//
// Sampling is TAIL-BASED: spans are recorded for every request while
// the recorder is armed (a handful of timestamp reads — the cheap
// part), and the retention decision happens at request completion, when
// the end-to-end latency is known. Requests breaching the slow
// threshold are ALWAYS retained (promoted to a bounded slow log); the
// rest are head-sampled deterministically 1-in-N into per-thread rings.
// Disarmed, the serving path pays one relaxed atomic load per pipeline
// drain.
//
// Index-internal spans (shard_fanout, descent) and the descent section
// are recorded through a thread-local SpanCollector the caller arms
// around the index call: the wrapper (core/sharded.h) marks its
// sub-phases into it, on the same read-ladder rung an unarmed read
// takes, without knowing anything about the serving path. One coalesced
// batch serves many wire requests; each retained request carries a copy
// of the batch's fan-out/descent spans plus its batch_keys size, which
// is the honest attribution — those cycles were genuinely shared.
// In-process callers (tools, tests) trace a call with TraceCall.
//
// /requestz (obs/stats_server.cc) renders both rings as JSON; retained
// trace ids also surface as OpenMetrics exemplars on the per-op latency
// histograms (obs/metrics.h ExemplarStore), so a scrape's p999 bucket
// links straight to an inspectable trace.

#ifndef SIMDTREE_OBS_REQUEST_TRACE_H_
#define SIMDTREE_OBS_REQUEST_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "obs/seqlock_ring.h"
#include "obs/trace.h"
#include "util/cycle_timer.h"

namespace simdtree::obs {

// Span kinds, in pipeline order. One byte in the trace schema.
enum class RequestSpanKind : uint8_t {
  kSocketRead = 0,
  kCoalesceWait = 1,
  kShardFanout = 2,
  kDescent = 3,
  kWriteFlush = 4,
};
inline constexpr int kNumRequestSpanKinds = 5;

const char* RequestSpanKindName(uint8_t kind);

// Enough for one of each kind plus headroom (a request whose pipeline
// drain splits across two recv gulps records two socket_read spans).
inline constexpr int kMaxRequestSpans = 8;

struct RequestSpan {
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint8_t kind = 0;  // RequestSpanKind image
  uint8_t reserved[7] = {};
};
static_assert(sizeof(RequestSpan) == 24);

// One wire request's life. Trivially copyable and fixed-size: the rings
// store it word-wise through atomics, and the record path allocates
// nothing.
struct RequestTrace {
  uint64_t trace_id = 0;    // process-unique, assigned at frame parse
  uint64_t start_ns = 0;    // recv-gulp start (end-to-end clock zero)
  uint64_t latency_ns = 0;  // gulp start -> reply flushed
  uint64_t service_ns = 0;  // execute-only latency — the value recorded
                            // into the per-op histogram, so an exemplar
                            // built from it lands in the right bucket
  uint32_t conn_id = 0;
  uint32_t request_id = 0;  // wire request id (per-connection sequence)
  uint32_t batch_keys = 0;  // keys in the coalesced FindBatch (reads)
  uint32_t thread_id = 0;   // recorder-assigned small id (ring index)
  uint8_t opcode = 0;       // net::Opcode image
  uint8_t status = 0;       // net::Status image
  uint8_t slow = 0;         // 1 if retained via the slow threshold
  uint8_t num_spans = 0;    // valid entries in spans[]
  uint8_t reserved[4] = {};
  RequestSpan spans[kMaxRequestSpans];
  DescentTrace descent;     // the descent span's per-level children
};
static_assert(std::is_trivially_copyable_v<RequestTrace>);
static_assert(sizeof(RequestTrace) % sizeof(uint64_t) == 0);

// Appends one span; silently drops past kMaxRequestSpans (the first
// spans of a pathological pipeline are the interesting ones).
inline void AppendRequestSpan(RequestTrace* t, RequestSpanKind kind,
                              uint64_t start_ns, uint64_t duration_ns) {
  if (t->num_spans >= kMaxRequestSpans) return;
  RequestSpan& s = t->spans[t->num_spans++];
  s.start_ns = start_ns;
  s.duration_ns = duration_ns;
  s.kind = static_cast<uint8_t>(kind);
}

// --- index-internal span collection ------------------------------------

// Scratch the caller arms (thread-locally) around an index call; the
// concurrency wrappers mark their sub-phases and the descent section
// into it. Fixed-size: a FindBatch records at most fan-out + descent.
// Arm it Reset (or fresh): calls that record no descent (writes, lower
// bounds) leave the section as they found it.
struct SpanCollector {
  RequestSpan spans[4];
  int count = 0;
  DescentTrace descent;

  void Add(RequestSpanKind kind, uint64_t start_ns, uint64_t duration_ns) {
    if (count >= 4) return;
    spans[count].start_ns = start_ns;
    spans[count].duration_ns = duration_ns;
    spans[count].kind = static_cast<uint8_t>(kind);
    ++count;
  }

  void Reset() {
    count = 0;
    descent = DescentTrace{};
  }
};

namespace request_internal {
// Only the owning thread reads or writes the collector pointer. constinit
// makes every access a direct TLS load: without it, an including TU
// reaches the variable through a TLS wrapper function that may run
// dynamic initialization, and UBSan's null check flags that path.
extern constinit thread_local SpanCollector* g_collector;
}  // namespace request_internal

inline SpanCollector* ActiveSpanCollector() {
  return request_internal::g_collector;
}
inline void SetActiveSpanCollector(SpanCollector* c) {
  request_internal::g_collector = c;
}

// RAII sub-phase marker for the wrappers. When no collector is armed
// (every non-serving caller) the constructor is one thread-local load
// and a predictable branch; no timestamps are read.
class CollectedSpanScope {
 public:
  explicit CollectedSpanScope(RequestSpanKind kind)
      : collector_(ActiveSpanCollector()), kind_(kind) {
    if (collector_ != nullptr) [[unlikely]] {
      start_cycles_ = CycleTimer::Now();
    }
  }

  CollectedSpanScope(const CollectedSpanScope&) = delete;
  CollectedSpanScope& operator=(const CollectedSpanScope&) = delete;

  ~CollectedSpanScope() { Finish(); }

  void Finish() {
    if (collector_ == nullptr) return;
    const uint64_t start_ns = static_cast<uint64_t>(
        CycleTimer::ToNanoseconds(start_cycles_));
    const uint64_t dur_ns = static_cast<uint64_t>(
        CycleTimer::ToNanoseconds(CycleTimer::Now() - start_cycles_));
    collector_->Add(kind_, start_ns, dur_ns);
    collector_ = nullptr;
  }

 private:
  SpanCollector* collector_;
  RequestSpanKind kind_;
  uint64_t start_cycles_ = 0;
};

// The armed collector's descent section, cleared for the read call
// about to fill it, or nullptr when no collector is armed (one
// thread-local load and a predictable branch). The wrapper clears it on
// every read call, so it never shows a previous call's levels whoever
// armed the collector.
inline DescentTrace* BeginCollectedDescent() {
  SpanCollector* c = ActiveSpanCollector();
  if (c == nullptr) [[likely]] {
    return nullptr;
  }
  c->descent = DescentTrace{};
  return &c->descent;
}

// Copies what the wrappers marked into the collector — the sub-phase
// spans (shard_fanout, descent) and the descent section — onto one
// request's trace.
inline void AppendCollected(RequestTrace* t, const SpanCollector& c) {
  for (int s = 0; s < c.count; ++s) {
    AppendRequestSpan(t, static_cast<RequestSpanKind>(c.spans[s].kind),
                      c.spans[s].start_ns, c.spans[s].duration_ns);
  }
  t->descent = c.descent;
}

// --- the recorder ------------------------------------------------------

// Process-wide request-trace sink: per-thread rings for head-sampled
// requests plus a bounded slow log for tail-retained ones. Like
// MetricsRegistry, the global instance is leaked, so threads finishing
// requests at process teardown never touch a dead object.
class RequestTracer {
 public:
  static constexpr size_t kRingCapacity = 256;  // per recording thread
  static constexpr size_t kSlowCapacity = 128;

  using Ring = SeqlockRing<RequestTrace, kRingCapacity>;

  static RequestTracer& Global();

  RequestTracer();
  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  // Arms the recorder. head_rate: keep 1 in N completed requests
  // (0 = none); slow_threshold_ns: always keep requests at or above
  // this end-to-end latency (0 = none). Both zero disarms. Global()
  // takes its defaults from ConfigureFromEnv.
  void Configure(uint32_t head_rate, uint64_t slow_threshold_ns);

  // Configures from SIMDTREE_REQUEST_SAMPLE (head rate, 1..UINT32_MAX)
  // and SIMDTREE_REQUEST_SLOW_NS (threshold, 1..UINT64_MAX); an unset or
  // empty variable leaves its knob off. A value that is not a plain
  // decimal integer in range (a sign, trailing characters, overflow)
  // gets one stderr line and leaves the recorder untouched; returns
  // false then.
  bool ConfigureFromEnv();

  // The serving path's arm check: one relaxed load per pipeline drain.
  bool enabled() const {
    return armed_.load(std::memory_order_relaxed);
  }
  uint32_t head_rate() const {
    return head_rate_.load(std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  // Hands over one completed request: stamps the slow bit and thread
  // id, decides retention (always-keep on slow-threshold breach, else
  // deterministic 1-in-head_rate), and writes the rings. Returns true
  // iff the trace was retained — the caller uses that to publish the
  // trace id as a histogram exemplar, so every rendered exemplar is
  // inspectable in /requestz.
  bool Finish(RequestTrace* t);

  // Process-unique nonzero trace ids.
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Racy merged snapshot of the head-sampled rings, oldest first.
  std::vector<RequestTrace> Snapshot(size_t max_traces = 0) const;
  // The tail-retained slow log, oldest first.
  std::vector<RequestTrace> SlowSnapshot() const;

  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t retained() const {
    return retained_.load(std::memory_order_relaxed);
  }
  uint64_t slow_retained() const {
    return slow_retained_.load(std::memory_order_relaxed);
  }

  // Test isolation only: clears rings and counters; requires recording
  // threads to be quiescent.
  void Reset();

 private:
  struct ThreadSlot {
    Ring* ring = nullptr;
    uint32_t id = 0;
  };
  ThreadSlot SlotForThisThread();

  // Process-unique id keying the per-thread ring cache: an address
  // alone could alias a destroyed instance at a reused address (stack
  // recorders in consecutive tests), handing back a freed ring.
  const uint64_t instance_id_;

  std::atomic<bool> armed_{false};
  std::atomic<uint32_t> head_rate_{0};
  std::atomic<uint64_t> slow_threshold_ns_{0};
  std::atomic<uint64_t> next_trace_id_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> retained_{0};
  std::atomic<uint64_t> slow_retained_{0};

  mutable std::mutex mutex_;  // guards rings_ growth + slow log
  std::vector<std::unique_ptr<Ring>> rings_;  // never shrunk
  std::vector<RequestTrace> slow_;
  size_t slow_next_ = 0;
};

// Traces one in-process call the way the KV server traces a wire
// request: arms a collector around fn(), then hands the trace — the
// wrappers' spans and descent section, the call's latency — to Finish.
// Disarmed, fn() runs after one relaxed load. Returns Finish's verdict
// (false when disarmed).
template <typename Fn>
bool TraceCall(RequestTracer& tracer, Fn&& fn) {
  if (!tracer.enabled()) {
    fn();
    return false;
  }
  SpanCollector collector;
  SetActiveSpanCollector(&collector);
  const uint64_t start = CycleTimer::Now();
  fn();
  const uint64_t cycles = CycleTimer::Now() - start;
  SetActiveSpanCollector(nullptr);
  RequestTrace t;
  t.trace_id = tracer.NextTraceId();
  t.start_ns = static_cast<uint64_t>(CycleTimer::ToNanoseconds(start));
  t.latency_ns = static_cast<uint64_t>(CycleTimer::ToNanoseconds(cycles));
  t.service_ns = t.latency_ns;
  AppendCollected(&t, collector);
  return tracer.Finish(&t);
}

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_REQUEST_TRACE_H_
