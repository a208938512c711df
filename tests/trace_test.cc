// Descent-record tests (obs/trace.h): the OpenMetrics/JSON exposition
// round trip (obs/export.h) including a request trace's descent section,
// an armed request trace's per-level descent through ShardedIndex, the
// Find/FindCounted/FindTraced parity of every index family, and the
// stats server's endpoints over a real socket (obs/stats_server.h). The
// request recorder's ring, sampling and slow log are request_trace_test's.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "segtree/segtree.h"
#include "segtrie/compressed_segtrie.h"
#include "segtrie/segtrie.h"
#include "util/counters.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using obs::DescentTrace;

// --- exposition -----------------------------------------------------------

TEST(ExportTest, SanitizeAndValidateNames) {
  EXPECT_EQ(obs::SanitizeMetricName("cli.profile.read_lock_ns"),
            "cli_profile_read_lock_ns");
  EXPECT_EQ(obs::SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(obs::SanitizeMetricName("a-b c"), "a_b_c");
  EXPECT_EQ(obs::SanitizeMetricName(""), "_");
  EXPECT_EQ(obs::SanitizeMetricName("ok:name_1"), "ok:name_1");

  EXPECT_TRUE(obs::IsValidMetricName("ok:name_1"));
  EXPECT_TRUE(obs::IsValidMetricName("_private"));
  EXPECT_FALSE(obs::IsValidMetricName(""));
  EXPECT_FALSE(obs::IsValidMetricName("9lives"));
  EXPECT_FALSE(obs::IsValidMetricName("has.dot"));
  // Sanitize always produces a valid name.
  for (const char* raw : {"a.b", "-", "..", "x y z", "0"}) {
    EXPECT_TRUE(obs::IsValidMetricName(obs::SanitizeMetricName(raw))) << raw;
  }
}

TEST(ExportTest, EscapeLabelValue) {
  EXPECT_EQ(obs::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ExportTest, OpenMetricsGoldenRoundTrip) {
  obs::MetricsRegistry reg;
  reg.GetCounter("req.count")->Add(42);
  reg.GetGauge("load-avg")->Set(1.5);
  obs::LogHistogram* h = reg.GetHistogram("lat.ns");
  h->Record(5);
  h->Record(5);
  h->Record(5);
  h->Record(10);

  // Exact-region values: bucket 5 has edge 6, bucket 10 has edge 11.
  const std::string expected =
      "# TYPE req_count counter\n"
      "req_count_total 42\n"
      "# TYPE load_avg gauge\n"
      "load_avg 1.5\n"
      "# TYPE lat_ns histogram\n"
      "lat_ns_bucket{le=\"6\"} 3\n"
      "lat_ns_bucket{le=\"11\"} 4\n"
      "lat_ns_bucket{le=\"+Inf\"} 4\n"
      "lat_ns_count 4\n"
      "lat_ns_sum 25\n"
      "# EOF\n";
  EXPECT_EQ(obs::RenderOpenMetrics(reg.Snap()), expected);
}

TEST(ExportTest, CollidingNamesAreDeduplicated) {
  obs::MetricsRegistry reg;
  reg.GetCounter("a.b")->Add(1);
  reg.GetCounter("a_b")->Add(2);
  const std::string text = obs::RenderOpenMetrics(reg.Snap());
  // Registry order is lexicographic: "a.b" sanitizes first and keeps
  // the clean name; "a_b" collides and gets the numbered suffix.
  EXPECT_NE(text.find("# TYPE a_b counter\na_b_total 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE a_b_2 counter\na_b_2_total 2\n"),
            std::string::npos)
      << text;
}

TEST(ExportTest, RequestzJsonCarriesDescentPath) {
  obs::RequestTracer tracer;
  tracer.Configure(/*head_rate=*/1, /*slow_threshold_ns=*/100);
  obs::RequestTrace t;
  t.trace_id = tracer.NextTraceId();
  t.latency_ns = 200;
  DescentTrace& d = t.descent;
  d.key = 7;
  d.shard = 3;
  d.lock_wait_ns = 40;
  d.backend = static_cast<uint8_t>(obs::TraceBackend::kSegTree);
  d.found = 1;
  SearchCounters cmps;
  cmps.simd_comparisons = 4;
  cmps.scalar_comparisons = 1;
  obs::AppendTraceLevel(&d, /*node_ref=*/99, obs::kTraceLayoutBreadthFirst,
                        /*arena_slab=*/2, cmps, /*cycles=*/150);
  ASSERT_TRUE(tracer.Finish(&t));

  const std::string json = obs::RenderRequestzJson(tracer);
  for (const char* needle :
       {"\"latency_ns\":200", "\"descent\":{\"key\":7", "\"shard\":3",
        "\"backend\":\"segtree\"", "\"found\":true",
        "\"lock_wait_ns\":40", "\"node_ref\":99",
        "\"layout\":\"breadth_first\"", "\"arena_slab\":2",
        "\"simd_cmps\":4", "\"scalar_cmps\":1", "\"cycles\":150"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n"
                                                    << json;
  }
  // The slow trace appears in both arrays.
  EXPECT_NE(json.find("\"recent\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow\":[{"), std::string::npos) << json;
}

// --- end-to-end: a traced read's descent through the wrapper -------------

TEST(RequestDescentTest, TracedFindRecordsFullDescent) {
  using Tree = segtree::SegTree<uint64_t, uint64_t>;
  ShardedIndex<Tree> index(1);
  for (uint64_t k = 0; k < 50000; ++k) index.Insert(k * 2, k);

  obs::RequestTracer tracer;
  tracer.Configure(/*head_rate=*/1, /*slow_threshold_ns=*/0);
  obs::TraceCall(tracer, [&] {
    EXPECT_EQ(index.Find(2468), std::optional<uint64_t>(1234));
  });
  obs::TraceCall(tracer, [&] { EXPECT_FALSE(index.Find(1).has_value()); });

  const auto traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  const DescentTrace& hit = traces[0].descent;
  EXPECT_EQ(hit.key, 2468u);
  EXPECT_EQ(hit.found, 1);
  EXPECT_EQ(hit.shard, 0);
  EXPECT_EQ(hit.backend, static_cast<uint8_t>(obs::TraceBackend::kSegTree));
  ASSERT_GT(hit.levels, 1);  // 50k keys: at least root + leaf
  for (int l = 0; l < hit.levels; ++l) {
    EXPECT_GT(hit.level[l].simd_cmps + hit.level[l].scalar_cmps, 0) << l;
    EXPECT_NE(hit.level[l].node_ref, obs::kTraceNoNodeRef) << l;
  }
  EXPECT_EQ(traces[1].descent.found, 0);
  EXPECT_EQ(traces[1].descent.key, 1u);
}

// --- Find, FindCounted and FindTraced agree in every family -------------

// One row per index family: the trace backend it reports, and whether
// its descent can step into the previous leaf (the B+-tree family, whose
// upper-bound navigation may land one past a key's last occurrence).
template <typename I, obs::TraceBackend kB, bool kPrevLeaf>
struct DescentCase {
  using Index = I;
  static constexpr obs::TraceBackend kBackend = kB;
  static constexpr bool kStepsIntoPreviousLeaf = kPrevLeaf;
};

using DescentCases = ::testing::Types<
    DescentCase<btree::BPlusTree<uint64_t, uint64_t>,
                obs::TraceBackend::kBPlusTree, true>,
    DescentCase<segtree::SegTree<uint64_t, uint64_t>,
                obs::TraceBackend::kSegTree, true>,
    DescentCase<segtrie::SegTrie<uint64_t, uint64_t>,
                obs::TraceBackend::kSegTrie, false>,
    DescentCase<segtrie::OptimizedSegTrie<uint64_t, uint64_t>,
                obs::TraceBackend::kOptimizedSegTrie, false>,
    DescentCase<segtrie::CompressedSegTrie<uint64_t, uint64_t>,
                obs::TraceBackend::kCompressedSegTrie, false>>;

template <typename Case>
class DescentParityTest : public ::testing::Test {};
TYPED_TEST_SUITE(DescentParityTest, DescentCases);

template <typename Case>
typename Case::Index MakeDescentIndex() {
  // Small tree nodes: several levels and many leaf boundaries.
  if constexpr (Case::kStepsIntoPreviousLeaf) {
    return typename Case::Index(8);
  } else {
    return typename Case::Index();
  }
}

TYPED_TEST(DescentParityTest, AllThreeDescentsAgree) {
  using Case = TypeParam;
  auto index = MakeDescentIndex<Case>();
  std::vector<uint64_t> probes = {0, 1, ~uint64_t{0}};
  auto check_all = [&](bool empty) {
    size_t prev_leaf_steps = 0;
    for (const uint64_t key : probes) {
      const auto plain = index.Find(key);
      SearchCounters counters;
      const auto counted = index.FindCounted(key, &counters);
      DescentTrace trace;
      const auto traced = index.FindTraced(key, &trace);
      ASSERT_EQ(counted, plain) << "key=" << key;
      ASSERT_EQ(traced, plain) << "key=" << key;
      EXPECT_EQ(trace.key, key);
      EXPECT_EQ(trace.found, plain.has_value() ? 1 : 0) << "key=" << key;
      if (empty) {
        EXPECT_EQ(counters.nodes_visited, 0u);
        EXPECT_EQ(trace.levels, 0);
        continue;
      }
      EXPECT_EQ(trace.backend, static_cast<uint8_t>(Case::kBackend));
      // Every node searched is one traced level; the B+-tree family
      // also counts its unsearched step into the previous leaf.
      const uint64_t levels = trace.levels;
      if constexpr (Case::kStepsIntoPreviousLeaf) {
        EXPECT_EQ(levels, static_cast<uint64_t>(index.height()));
        ASSERT_GE(counters.nodes_visited, levels) << "key=" << key;
        ASSERT_LE(counters.nodes_visited, levels + 1) << "key=" << key;
        prev_leaf_steps += counters.nodes_visited - levels;
      } else {
        ASSERT_EQ(counters.nodes_visited, levels) << "key=" << key;
      }
    }
    if constexpr (Case::kStepsIntoPreviousLeaf) {
      if (!empty) {
        EXPECT_GT(prev_leaf_steps, 0u);
      }
    }
  };
  check_all(/*empty=*/true);

  // Shared-prefix clusters (deep trie paths, early trie misses) and
  // full-width keys; every tenth key stored three times (duplicates in
  // the multimap trees, overwrites in the tries).
  Rng rng(41);
  std::vector<uint64_t> stored;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k =
        i % 2 == 0 ? rng.NextBounded(1 << 14) * 3 : rng.Next() | 1;
    const int copies = i % 10 == 0 ? 3 : 1;
    for (int c = 0; c < copies; ++c) index.Insert(k, k + c);
    stored.push_back(k);
    probes.push_back(k);      // hit
    probes.push_back(k + 1);  // mostly misses, some neighbours' hits
    probes.push_back(k ^ (uint64_t{1} << 40));
  }
  // Erasing keys leaves tree separators above the first key of their
  // right-hand leaf, so probes for them land in the leaf after the one
  // that would hold them: the previous-leaf step.
  for (size_t i = 0; i < stored.size(); i += 5) index.Erase(stored[i]);
  check_all(/*empty=*/false);
}

// --- stats server over a real socket --------------------------------------

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
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(StatsServerTest, ServesAllEndpointsOverSocket) {
  obs::MetricsRegistry::Global().GetCounter("trace_test.pings")->Add(3);
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(/*port=*/0)) << server.error();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos) << health;

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("trace_test_pings_total 3"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# EOF\n"), std::string::npos);

  const std::string json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(json.find("\"registry\":"), std::string::npos) << json;
  const std::string requestz = HttpGet(server.port(), "/requestz?max=5");
  EXPECT_NE(requestz.find("\"recent\":["), std::string::npos) << requestz;
  EXPECT_NE(HttpGet(server.port(), "/tracez").find("404"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(StatsServerTest, HandleRequestRoutesWithoutSocket) {
  EXPECT_NE(obs::StatsServer::HandleRequest("/healthz").find("ok\n"),
            std::string::npos);
  EXPECT_NE(obs::StatsServer::HandleRequest("/metrics").find("# EOF"),
            std::string::npos);
  EXPECT_NE(obs::StatsServer::HandleRequest("/requestz").find("\"slow\":["),
            std::string::npos);
  EXPECT_NE(obs::StatsServer::HandleRequest("/absent").find("404"),
            std::string::npos);
}

}  // namespace
}  // namespace simdtree
