// Request-trace recorder tests (obs/request_trace.h): ring wraparound,
// deterministic head sampling, strict environment configuration,
// slow-log promotion and bounded retention, multi-thread ring merge (the
// concurrent record/merge soak is the TSan target for the seqlock ring
// scheme), plus the end-to-end differential acceptance test for the
// observability path: a deliberately stalled request (KvServerOptions
// test hook) must be tail-retained with all five span kinds and its
// per-level descent, appear in the /requestz payload, and surface its
// trace id as an OpenMetrics exemplar in the per-op latency bucket that
// contains its service time. Also covers the drain-aware /healthz
// surface.

#include "obs/request_trace.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "segtree/segtree.h"

namespace simdtree::obs {
namespace {

using Tree = segtree::SegTree<uint64_t, uint64_t>;

RequestTrace MakeTrace(RequestTracer& tracer, uint64_t latency_ns) {
  RequestTrace t;
  t.trace_id = tracer.NextTraceId();
  t.latency_ns = latency_ns;
  t.service_ns = latency_ns / 2;
  AppendRequestSpan(&t, RequestSpanKind::kSocketRead, 0, 100);
  return t;
}

// A trace whose fields all derive from `id`, so a torn ring read shows.
RequestTrace KeyedTrace(uint64_t id, uint64_t start_ns, uint64_t latency_ns) {
  RequestTrace t;
  t.trace_id = id;
  t.start_ns = start_ns;
  t.latency_ns = latency_ns;
  t.descent.key = id;
  return t;
}

// --- the ring -------------------------------------------------------------

TEST(RequestRingTest, FreshSlotsAreUnreadable) {
  RequestTracer::Ring ring;
  RequestTrace out;
  EXPECT_EQ(ring.head(), 0u);
  EXPECT_FALSE(ring.TryRead(0, &out));
  EXPECT_FALSE(ring.TryRead(RequestTracer::Ring::kCapacity - 1, &out));
}

TEST(RequestRingTest, WrapAroundRetainsNewest) {
  RequestTracer::Ring ring;
  const uint64_t total = RequestTracer::Ring::kCapacity + 37;
  for (uint64_t i = 0; i < total; ++i) {
    ring.Write(KeyedTrace(/*id=*/i, /*start_ns=*/i * 10, /*latency_ns=*/i));
  }
  EXPECT_EQ(ring.head(), total);
  // The newest kCapacity writes are all readable with intact payloads;
  // older ones were overwritten in place.
  RequestTrace out;
  for (uint64_t i = total - RequestTracer::Ring::kCapacity; i < total; ++i) {
    ASSERT_TRUE(ring.TryRead(i % RequestTracer::Ring::kCapacity, &out)) << i;
    EXPECT_EQ(out.trace_id, i);
    EXPECT_EQ(out.start_ns, i * 10);
    EXPECT_EQ(out.descent.key, i);
  }
}

// --- the recorder ---------------------------------------------------------

TEST(RequestTracerTest, DisarmedByDefaultAndAfterZeroConfigure) {
  auto& tracer = RequestTracer::Global();
  tracer.Reset();
  tracer.Configure(0, 0);
  EXPECT_FALSE(tracer.enabled());

  // Finish on a disarmed tracer retains nothing.
  RequestTrace t = MakeTrace(tracer, 1000);
  EXPECT_FALSE(tracer.Finish(&t));
  EXPECT_EQ(tracer.retained(), 0u);
}

TEST(RequestTracerTest, HeadSamplingIsDeterministic1InN) {
  auto& tracer = RequestTracer::Global();
  tracer.Reset();
  tracer.Configure(4, 0);
  ASSERT_TRUE(tracer.enabled());

  int kept = 0;
  for (int i = 0; i < 100; ++i) {
    RequestTrace t = MakeTrace(tracer, 1000);
    if (tracer.Finish(&t)) ++kept;
  }
  // Deterministic modulo on the completed counter: exactly 1 in 4.
  EXPECT_EQ(kept, 25);
  EXPECT_EQ(tracer.completed(), 100u);
  EXPECT_EQ(tracer.retained(), 25u);
  EXPECT_EQ(tracer.slow_retained(), 0u);
  EXPECT_EQ(tracer.Snapshot().size(), 25u);
  tracer.Configure(0, 0);
}

TEST(RequestTracerTest, SlowThresholdAlwaysRetains) {
  auto& tracer = RequestTracer::Global();
  tracer.Reset();
  // Head sampling off: only the slow threshold retains.
  tracer.Configure(0, 5000);
  ASSERT_TRUE(tracer.enabled());

  for (int i = 0; i < 20; ++i) {
    RequestTrace fast = MakeTrace(tracer, 1000);
    EXPECT_FALSE(tracer.Finish(&fast));
  }
  RequestTrace slow = MakeTrace(tracer, 9000);
  const uint64_t slow_id = slow.trace_id;
  EXPECT_TRUE(tracer.Finish(&slow));
  EXPECT_EQ(slow.slow, 1u);

  EXPECT_EQ(tracer.slow_retained(), 1u);
  const auto log = tracer.SlowSnapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].trace_id, slow_id);
  EXPECT_EQ(log[0].latency_ns, 9000u);
  tracer.Configure(0, 0);
}

// The environment knobs take plain decimal integers in range only; any
// other value leaves the recorder disarmed, with one stderr line.
TEST(RequestTracerTest, EnvConfigIsParsedStrictly) {
  struct Case {
    const char* sample;  // nullptr: unset
    const char* slow_ns;
    bool ok;
    uint32_t rate;
    uint64_t slow;
  };
  const Case cases[] = {
      {"4294967297", nullptr, false, 0, 0},  // wraps to 1 if truncated
      {"4294967296", nullptr, false, 0, 0},  // wraps to 0 if truncated
      {"64k", nullptr, false, 0, 0},
      {"0", nullptr, false, 0, 0},
      {"-1", nullptr, false, 0, 0},
      {"+8", nullptr, false, 0, 0},
      {" 8", nullptr, false, 0, 0},
      {"8", "5000us", false, 0, 0},  // one bad knob keeps both off
      {nullptr, "18446744073709551616", false, 0, 0},
      {"4294967295", nullptr, true, std::numeric_limits<uint32_t>::max(), 0},
      {"64", "5000", true, 64, 5000},
      {nullptr, "18446744073709551615", true, 0,
       std::numeric_limits<uint64_t>::max()},
      {"", "", true, 0, 0},
      {nullptr, nullptr, true, 0, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.sample ? c.sample : "(unset)") + " / " +
                 (c.slow_ns ? c.slow_ns : "(unset)"));
    if (c.sample) {
      setenv("SIMDTREE_REQUEST_SAMPLE", c.sample, 1);
    } else {
      unsetenv("SIMDTREE_REQUEST_SAMPLE");
    }
    if (c.slow_ns) {
      setenv("SIMDTREE_REQUEST_SLOW_NS", c.slow_ns, 1);
    } else {
      unsetenv("SIMDTREE_REQUEST_SLOW_NS");
    }
    RequestTracer tracer;
    testing::internal::CaptureStderr();
    const bool ok = tracer.ConfigureFromEnv();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(ok, c.ok);
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), c.ok ? 0 : 1) << err;
    EXPECT_EQ(tracer.enabled(), c.rate != 0 || c.slow != 0);
    EXPECT_EQ(tracer.head_rate(), c.rate);
    EXPECT_EQ(tracer.slow_threshold_ns(), c.slow);
  }
  unsetenv("SIMDTREE_REQUEST_SAMPLE");
  unsetenv("SIMDTREE_REQUEST_SLOW_NS");
}

TEST(RequestTracerTest, SlowPromotionHonorsThreshold) {
  RequestTracer tracer;
  tracer.Configure(/*head_rate=*/1, /*slow_threshold_ns=*/1000);
  RequestTrace t = KeyedTrace(1, 10, /*latency_ns=*/999);
  EXPECT_TRUE(tracer.Finish(&t));
  EXPECT_EQ(tracer.retained(), 1u);
  EXPECT_EQ(tracer.slow_retained(), 0u);

  t = KeyedTrace(2, 20, /*latency_ns=*/1000);  // at threshold
  tracer.Finish(&t);
  t = KeyedTrace(3, 30, /*latency_ns=*/5000);
  tracer.Finish(&t);
  EXPECT_EQ(tracer.slow_retained(), 2u);
  const auto slow = tracer.SlowSnapshot();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].trace_id, 2u);
  EXPECT_EQ(slow[1].trace_id, 3u);
  EXPECT_EQ(slow[0].slow, 1);  // the promoted flag is set on the copy
  // The ring copy agrees with the slow copy on the flag.
  const auto recent = tracer.Snapshot();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].slow, 0);
  EXPECT_EQ(recent[1].slow, 1);
  EXPECT_EQ(recent[2].slow, 1);

  // Threshold 0 disables promotion entirely.
  tracer.Configure(/*head_rate=*/1, /*slow_threshold_ns=*/0);
  t = KeyedTrace(4, 40, /*latency_ns=*/~uint64_t{0});
  tracer.Finish(&t);
  EXPECT_EQ(tracer.slow_retained(), 2u);
}

TEST(RequestTracerTest, SlowRetentionDropsOldest) {
  RequestTracer tracer;
  tracer.Configure(/*head_rate=*/0, /*slow_threshold_ns=*/1);
  const uint64_t total = RequestTracer::kSlowCapacity + 10;
  for (uint64_t i = 0; i < total; ++i) {
    RequestTrace t = KeyedTrace(/*id=*/i, /*start_ns=*/i, /*latency_ns=*/100);
    tracer.Finish(&t);
  }
  EXPECT_EQ(tracer.slow_retained(), total);
  const auto slow = tracer.SlowSnapshot();
  ASSERT_EQ(slow.size(), RequestTracer::kSlowCapacity);
  // Oldest first, and the 10 oldest entries were dropped.
  for (size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].trace_id, 10 + i);
  }
}

TEST(RequestTracerTest, SnapshotMergesThreadRingsInStartOrder) {
  RequestTracer tracer;
  tracer.Configure(/*head_rate=*/1, /*slow_threshold_ns=*/0);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t id = static_cast<uint64_t>(t) * 1000 + i;
        // start_ns == id makes the global sort order checkable.
        RequestTrace tr = KeyedTrace(id, /*start_ns=*/id, /*latency_ns=*/1);
        tracer.Finish(&tr);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(tracer.retained(), kThreads * kPerThread);
  const auto all = tracer.Snapshot();
  ASSERT_EQ(all.size(), kThreads * kPerThread);
  std::set<uint64_t> ids;
  std::set<uint32_t> thread_ids;
  for (size_t i = 0; i < all.size(); ++i) {
    ids.insert(all[i].trace_id);
    thread_ids.insert(all[i].thread_id);
    if (i > 0) {
      EXPECT_GE(all[i].start_ns, all[i - 1].start_ns);
    }
  }
  EXPECT_EQ(ids.size(), kThreads * kPerThread);  // nothing lost or torn
  EXPECT_EQ(thread_ids.size(), static_cast<size_t>(kThreads));

  // A capped snapshot keeps the newest by start time.
  const auto newest = tracer.Snapshot(/*max_traces=*/50);
  ASSERT_EQ(newest.size(), 50u);
  EXPECT_EQ(newest.back().start_ns, all.back().start_ns);
  EXPECT_GE(newest.front().start_ns, all[all.size() - 50].start_ns);
}

// TSan soak: writers hammer their rings (with slow promotions mixed in)
// while readers continuously take merged snapshots. Every trace a
// reader observes must be internally consistent — a torn seqlock read
// would break the id/start_ns/latency_ns/descent relation.
TEST(RequestTracerTest, ConcurrentRecordAndMergeSoak) {
  RequestTracer tracer;
  tracer.Configure(/*head_rate=*/1,
                   /*slow_threshold_ns=*/7 * 1900);  // promotes ~5%
  constexpr int kWriters = 4;
  const uint64_t per_writer = 20000;
  std::atomic<int> writers_done{0};
  std::atomic<uint64_t> torn{0};

  auto check = [&torn](const RequestTrace& t) {
    if (t.start_ns != t.trace_id * 3 ||
        t.latency_ns != 7 * (t.trace_id % 2000) ||
        t.descent.key != t.trace_id) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&tracer, &writers_done, w, per_writer] {
      for (uint64_t i = 0; i < per_writer; ++i) {
        const uint64_t id = static_cast<uint64_t>(w) * per_writer + i;
        RequestTrace t = KeyedTrace(id, /*start_ns=*/id * 3,
                                    /*latency_ns=*/7 * (id % 2000));
        tracer.Finish(&t);
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&tracer, &writers_done, &check] {
      while (writers_done.load() < kWriters) {
        for (const RequestTrace& t : tracer.Snapshot()) check(t);
        for (const RequestTrace& t : tracer.SlowSnapshot()) check(t);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(tracer.retained(), kWriters * per_writer);
  // Final quiescent snapshot: full rings, all consistent.
  const auto all = tracer.Snapshot();
  EXPECT_EQ(all.size(), kWriters * RequestTracer::Ring::kCapacity);
  for (const RequestTrace& t : all) check(t);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(tracer.SlowSnapshot().size(), RequestTracer::kSlowCapacity);
}

TEST(RequestTracerTest, TraceIdsAreUniqueAndNonzero) {
  auto& tracer = RequestTracer::Global();
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = tracer.NextTraceId();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(CollectedSpanScopeTest, DisarmedRecordsNothing) {
  SetActiveSpanCollector(nullptr);
  { CollectedSpanScope scope(RequestSpanKind::kDescent); }
  // Nothing to observe — the contract is simply "no crash, no
  // collector writes"; an armed collector below proves the positive.
  SUCCEED();
}

TEST(CollectedSpanScopeTest, ArmedCollectsKindsInOrder) {
  SpanCollector collector;
  SetActiveSpanCollector(&collector);
  { CollectedSpanScope fanout(RequestSpanKind::kShardFanout); }
  { CollectedSpanScope descent(RequestSpanKind::kDescent); }
  SetActiveSpanCollector(nullptr);

  ASSERT_EQ(collector.count, 2);
  EXPECT_EQ(collector.spans[0].kind,
            static_cast<uint8_t>(RequestSpanKind::kShardFanout));
  EXPECT_EQ(collector.spans[1].kind,
            static_cast<uint8_t>(RequestSpanKind::kDescent));
  // Spans carry monotone timestamps.
  EXPECT_GE(collector.spans[1].start_ns, collector.spans[0].start_ns);
}

TEST(CollectedSpanScopeTest, CollectorCapsAtFixedSize) {
  SpanCollector collector;
  SetActiveSpanCollector(&collector);
  for (int i = 0; i < 10; ++i) {
    CollectedSpanScope scope(RequestSpanKind::kDescent);
  }
  SetActiveSpanCollector(nullptr);
  EXPECT_EQ(collector.count, 4);
}

// --- end-to-end: the stalled-request differential test -----------------

class RequestSpanEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RequestTracer::Global().Reset();
    keys_.resize(512);
    for (size_t i = 0; i < keys_.size(); ++i) keys_[i] = 2 * (i + 1);
    index_ = std::make_unique<ShardedIndex<Tree>>(
        4, ShardedIndex<Tree>::SplittersFromSample(keys_.data(),
                                                   keys_.size(), 4));
    for (uint64_t k : keys_) index_->Insert(k, k * 10);
    backend_ = std::make_unique<net::ShardedKvBackend<Tree>>(index_.get());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    RequestTracer::Global().Configure(0, 0);
    SetHealthDraining(false);
  }

  void StartServer(net::KvServerOptions opts) {
    server_ = std::make_unique<net::KvServer>(backend_.get());
    ASSERT_TRUE(server_->Start(opts)) << server_->error();
  }

  std::vector<uint64_t> keys_;
  std::unique_ptr<ShardedIndex<Tree>> index_;
  std::unique_ptr<net::ShardedKvBackend<Tree>> backend_;
  std::unique_ptr<net::KvServer> server_;
};

std::string TraceIdHex(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

TEST_F(RequestSpanEndToEndTest, StalledRequestRetainedWithAllSpanKinds) {
  const uint64_t slow_key = keys_[37];
  net::KvServerOptions opts;
  // Head sampling OFF: every retained trace below is tail-retained.
  // The threshold is far above any loopback GET (even one that eats a
  // scheduler preemption), and the stall is far above the threshold.
  opts.request_sample = 0;
  opts.request_slow_ns = 25'000'000;       // 25 ms threshold
  opts.test_slow_key = slow_key;           // the deliberate stall hook
  opts.test_slow_ns = 100'000'000;         // 100 ms, far past the bar
  StartServer(opts);
  ASSERT_TRUE(RequestTracer::Global().enabled());

  net::KvClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.error();

  // Fast traffic first: none of it may be retained.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client.Get(keys_[static_cast<size_t>(i)]).has_value());
  }

  // The stalled request.
  const std::optional<uint64_t> v = client.Get(slow_key);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, slow_key * 10);

  // Finish runs after the reply flush; give the worker a beat.
  auto& tracer = RequestTracer::Global();
  for (int i = 0; i < 200 && tracer.slow_retained() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(tracer.slow_retained(), 1u);

  // Our request is identifiable by the stall: no loopback GET takes
  // 100 ms on its own (a preempted one might still breach the 25 ms
  // bar, which is fine — it is genuinely slow and belongs in the log).
  const auto slow_log = tracer.SlowSnapshot();
  const RequestTrace* found = nullptr;
  for (const RequestTrace& entry : slow_log) {
    if (entry.latency_ns >= opts.test_slow_ns) found = &entry;
  }
  ASSERT_NE(found, nullptr) << slow_log.size() << " slow traces";
  const RequestTrace& t = *found;
  EXPECT_EQ(t.opcode, net::kOpGet);
  EXPECT_EQ(t.status, net::kStatusOk);
  EXPECT_EQ(t.slow, 1u);
  EXPECT_GE(t.latency_ns, opts.test_slow_ns);
  EXPECT_GE(t.service_ns, opts.test_slow_ns);

  // All five span kinds must be present on the one stalled request.
  std::set<uint8_t> kinds;
  for (int i = 0; i < t.num_spans; ++i) kinds.insert(t.spans[i].kind);
  for (int k = 0; k < kNumRequestSpanKinds; ++k) {
    EXPECT_TRUE(kinds.count(static_cast<uint8_t>(k)))
        << "missing span kind " << RequestSpanKindName(
               static_cast<uint8_t>(k));
  }

  // The descent span's per-level children: the GET ran as a one-key
  // FindBatch, Find's path, so the descent section holds one level per
  // tree level of the key's shard, searched with the Seg-Tree's layout.
  const DescentTrace& d = t.descent;
  const size_t shard = index_->ShardOf(slow_key);
  EXPECT_EQ(d.backend, static_cast<uint8_t>(TraceBackend::kSegTree));
  EXPECT_EQ(d.key, slow_key);
  EXPECT_EQ(d.found, 1);
  EXPECT_EQ(d.shard, shard);
  const int height = index_->WithShardRead(
      shard, [](const Tree& tree) { return tree.height(); });
  ASSERT_GT(height, 0);
  EXPECT_EQ(d.levels, height);
  for (int l = 0; l < d.levels; ++l) {
    EXPECT_GT(d.level[l].simd_cmps + d.level[l].scalar_cmps, 0) << l;
    EXPECT_NE(d.level[l].node_ref, kTraceNoNodeRef) << l;
  }

  // The /requestz payload carries the trace with named span kinds and
  // its descent.
  const std::string requestz = RenderRequestzJson(tracer);
  EXPECT_NE(requestz.find("\"backend\":\"segtree\""), std::string::npos);
  EXPECT_NE(requestz.find(TraceIdHex(t.trace_id)), std::string::npos);
  for (int k = 0; k < kNumRequestSpanKinds; ++k) {
    EXPECT_NE(requestz.find(RequestSpanKindName(static_cast<uint8_t>(k))),
              std::string::npos)
        << RequestSpanKindName(static_cast<uint8_t>(k));
  }

  // The trace id surfaces as an exemplar on the GET latency histogram,
  // in the bucket whose range contains the recorded service time.
  const std::string om =
      RenderOpenMetrics(MetricsRegistry::Global().Snap());
  const std::string needle =
      "trace_id=\"" + TraceIdHex(t.trace_id) + "\"";
  const size_t pos = om.find(needle);
  ASSERT_NE(pos, std::string::npos) << om.substr(0, 2000);
  const size_t line_start = om.rfind('\n', pos) + 1;
  const size_t line_end = om.find('\n', pos);
  const std::string line = om.substr(line_start, line_end - line_start);
  EXPECT_EQ(line.rfind("net_op_get_ns_bucket{le=\"", 0), 0u) << line;
  const double le = std::strtod(line.c_str() + 25, nullptr);
  const double ex_value =
      std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  EXPECT_EQ(ex_value, static_cast<double>(t.service_ns)) << line;
  EXPECT_LE(ex_value, le) << line;  // the OpenMetrics in-range rule
}

TEST_F(RequestSpanEndToEndTest, FastTrafficHeadSamplesWithoutSlowLog) {
  net::KvServerOptions opts;
  opts.request_sample = 8;
  opts.request_slow_ns = 10ULL * 1000 * 1000 * 1000;  // never breached
  StartServer(opts);

  net::KvClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()))
      << client.error();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(client.Get(keys_[static_cast<size_t>(i) % keys_.size()])
                    .has_value());
  }

  auto& tracer = RequestTracer::Global();
  for (int i = 0; i < 200 && tracer.completed() < 400; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(tracer.completed(), 400u);
  EXPECT_GT(tracer.retained(), 0u);
  // 1-in-8 of everything this process completed (other tests reset).
  EXPECT_LE(tracer.retained(), tracer.completed() / 8 + 1);
  EXPECT_EQ(tracer.slow_retained(), 0u);

  // Retained traces are real requests with spans attached.
  const auto snap = tracer.Snapshot();
  ASSERT_FALSE(snap.empty());
  for (const RequestTrace& t : snap) {
    EXPECT_NE(t.trace_id, 0u);
    EXPECT_GT(t.num_spans, 0);
  }
}

// --- /healthz drain awareness ------------------------------------------

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(RequestSpanEndToEndTest, HealthzFlipsTo503WhileDraining) {
  StartServer(net::KvServerOptions{});
  StatsServer stats;
  ASSERT_TRUE(stats.Start(0)) << stats.error();

  // Serving: healthy.
  std::string resp = HttpGet(stats.port(), "/healthz");
  EXPECT_NE(resp.find("200"), std::string::npos);
  EXPECT_NE(resp.find("ok"), std::string::npos);

  // Drain begins the moment Stop() lands.
  server_->Stop();
  EXPECT_TRUE(HealthDraining());
  resp = HttpGet(stats.port(), "/healthz");
  EXPECT_NE(resp.find("503"), std::string::npos);
  EXPECT_NE(resp.find("draining"), std::string::npos);

  // /requestz stays scrapeable during and after the drain.
  EXPECT_NE(HttpGet(stats.port(), "/requestz").find("200"),
            std::string::npos);
  stats.Stop();
}

}  // namespace
}  // namespace simdtree::obs
