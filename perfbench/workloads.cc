#include "workloads.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <map>
#include <mutex>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/olc.h"
#include "core/sharded.h"
#include "ledger.h"
#include "loadgen.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "segtree/segtree.h"
#include "timing_backend.h"
#include "util/cycle_timer.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace net = simdtree::net;
namespace obs = simdtree::obs;
using simdtree::CycleTimer;
using simdtree::Rng;
using simdtree::ShardedIndex;
using KvTree = simdtree::segtree::SegTree<uint64_t, uint64_t>;
using NodeTree = simdtree::segtree::SegTree<uint32_t, uint64_t>;

// ---- workload parameters (NOTES.md gives the reason for each) ----------

constexpr uint64_t kBigKeys = uint64_t{16} << 20;  // far larger than L3
constexpr uint64_t kWriteKeys = uint64_t{1} << 20;
constexpr uint64_t kNodeKeys = uint64_t{1} << 16;  // ~2 MB: one core's L2
constexpr size_t kShards = 8;
// One server worker: the saturated rate then measures the server, not
// the single generator thread, and the run keeps two CPUs busy, not three
// (on a shared 4-CPU host the third busy CPU is the one the host takes).
constexpr int kWorkers = 1;
constexpr double kReadRate = 20000;   // kv-read offered rate, requests/s
constexpr double kWriteRate = 20000;  // kv-write offered rate
constexpr size_t kBatchRuns = 256;        // index-batch: runs per batch
constexpr size_t kRunKeys = 16;           // adjacent stored keys per run
constexpr size_t kLadderKeys = 65536;     // keys replayed by the ledger
constexpr uint64_t kSlowNs = 5'000'000;   // traced run: slow-log threshold

// The layers of the ledger that only the served workloads reach; the
// in-process workloads report 0 for them (the layer does no work).
const std::pair<const char*, const char*> kServedOnlyMetrics[] = {
    {"client.send_lag_p99_us", "us"},     {"client.descheduled_ms", "ms"},
    {"client.saturated_idle_pct", "%"},   {"client.flushes_per_req", "count"},
    {"client.failed_frac", "ratio"},
    {"client.write_p99_us", "us"},        {"protocol.decode_ns_per_frame", "ns"},
    {"protocol.encode_ns_per_reply", "ns"}, {"server.socket_read_us", "us"},
    {"server.coalesce_wait_us", "us"},    {"server.execute_self_us", "us"},
    {"server.write_flush_us", "us"},      {"server.coalesced_keys_p50", "count"},
    {"server.service_p99_us", "us"},      {"backend.find_batch_ns_per_key", "ns"},
    {"backend.put_p99_us", "us"},         {"backend.del_p99_us", "us"},
    {"backend.lower_bound_ns", "ns"},     {"backend.contract_violations", "count"},
};

// ---- span log -----------------------------------------------------------

// Spans recorded by the traced run, kept in memory and written out as
// JSON lines at exit. A bounded ring: a long run keeps its last spans.
class SpanLog {
 public:
  void Add(uint64_t req, const char* name, const char* parent,
           uint64_t start_ns, uint64_t dur_ns) {
    Rec r{req, name, parent, start_ns, dur_ns};
    if (recs_.size() < kCap) {
      recs_.push_back(r);
    } else {
      recs_[next_++ % kCap] = r;
    }
  }
  void Write(const RunArgs& a) const {
    if (a.trace_dir.empty()) return;
    const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    for (const Rec& r : recs_) {
      std::fprintf(f,
                   "{\"req\": %llu, \"span\": \"%s\", \"parent\": \"%s\", "
                   "\"start_ns\": %llu, \"dur_ns\": %llu}\n",
                   static_cast<unsigned long long>(r.req), r.name, r.parent,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.dur_ns));
    }
    std::fclose(f);
    std::printf("spans: %zu written to %s\n", recs_.size(), path.c_str());
  }

 private:
  static constexpr size_t kCap = 200000;
  struct Rec {
    uint64_t req;
    const char* name;
    const char* parent;
    uint64_t start_ns;
    uint64_t dur_ns;
  };
  std::vector<Rec> recs_;
  size_t next_ = 0;
};

// ---- server span ledger -----------------------------------------------

// Self time per layer of served requests, from the request tracer's
// spans. execute is the backend call region (service_ns); its children
// are shard_fanout and descent. The request root's own time is what no
// span covers: frame decode, reply encode and bookkeeping.
struct ServerLedger {
  struct Parts {
    double socket_read = 0, coalesce_wait = 0, execute_self = 0,
           shard_fanout = 0, descent = 0, write_flush = 0, root_self = 0;
  };
  Parts sum;
  uint64_t requests = 0;
  uint64_t fanout_spans = 0;

  static Parts Split(const obs::RequestTrace& t) {
    Parts p;
    for (int i = 0; i < t.num_spans; ++i) {
      const double d = static_cast<double>(t.spans[i].duration_ns);
      switch (static_cast<obs::RequestSpanKind>(t.spans[i].kind)) {
        case obs::RequestSpanKind::kSocketRead: p.socket_read += d; break;
        case obs::RequestSpanKind::kCoalesceWait: p.coalesce_wait += d; break;
        case obs::RequestSpanKind::kShardFanout: p.shard_fanout += d; break;
        case obs::RequestSpanKind::kDescent: p.descent += d; break;
        case obs::RequestSpanKind::kWriteFlush: p.write_flush += d; break;
      }
    }
    const double exec = static_cast<double>(t.service_ns);
    p.execute_self = std::max(0.0, exec - p.shard_fanout - p.descent);
    p.root_self = std::max(0.0, static_cast<double>(t.latency_ns) -
                                    p.socket_read - p.coalesce_wait - exec -
                                    p.write_flush);
    return p;
  }

  // The span with the largest self time: where a slow request's time
  // went.
  static const char* Owner(const obs::RequestTrace& t) {
    const Parts p = Split(t);
    const std::pair<double, const char*> c[] = {
        {p.socket_read, "server.socket_read"},
        {p.coalesce_wait, "server.coalesce_wait"},
        {p.execute_self, "server.execute"},
        {p.shard_fanout, "sharded.shard_fanout"},
        {p.descent, "descent"},
        {p.write_flush, "server.write_flush"},
        {p.root_self, "server.request"},
    };
    const auto* best = &c[0];
    for (const auto& x : c) {
      if (x.first > best->first) best = &x;
    }
    return best->second;
  }

  void Add(const obs::RequestTrace& t, SpanLog* log) {
    const Parts p = Split(t);
    sum.socket_read += p.socket_read;
    sum.coalesce_wait += p.coalesce_wait;
    sum.execute_self += p.execute_self;
    sum.shard_fanout += p.shard_fanout;
    sum.descent += p.descent;
    sum.write_flush += p.write_flush;
    sum.root_self += p.root_self;
    ++requests;
    for (int i = 0; i < t.num_spans; ++i) {
      const auto& s = t.spans[i];
      const auto kind = static_cast<obs::RequestSpanKind>(s.kind);
      if (kind == obs::RequestSpanKind::kShardFanout) ++fanout_spans;
      const bool in_exec = kind == obs::RequestSpanKind::kShardFanout ||
                           kind == obs::RequestSpanKind::kDescent;
      log->Add(t.trace_id, obs::RequestSpanKindName(s.kind),
               in_exec ? "execute" : "request", s.start_ns, s.duration_ns);
    }
    log->Add(t.trace_id, "request", "", t.start_ns, t.latency_ns);
  }

  double MeanUs(double total) const {
    return requests ? total / static_cast<double>(requests) * 1e-3 : 0.0;
  }
};

// ---- index construction -----------------------------------------------

// Builds the index the way the serving path fills one: ShardedIndex::
// Insert in ascending key order, shards filled in parallel (at most 4
// threads), splitters at the key quantiles.
template <typename Tree>
std::unique_ptr<ShardedIndex<Tree>> BuildIndex(const KeyUniverse& u,
                                               size_t shards) {
  using Key = typename Tree::KeyType;
  const uint64_t n = u.size();
  std::vector<Key> splitters;
  for (size_t s = 1; s < shards; ++s) {
    splitters.push_back(static_cast<Key>(u.Key(s * n / shards)));
  }
  auto index = std::make_unique<ShardedIndex<Tree>>(shards, splitters);
  const size_t threads = std::min<size_t>(4, shards);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t s = t; s < shards; s += threads) {
        for (uint64_t i = s * n / shards; i < (s + 1) * n / shards; ++i) {
          const uint64_t k = u.Key(i);
          index->Insert(static_cast<Key>(k), u.Value(k, 0));
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  return index;
}

struct KvStack {
  std::unique_ptr<ShardedIndex<KvTree>> index;
  std::unique_ptr<net::ShardedKvBackend<KvTree>> backend;
  std::unique_ptr<TimingBackend> timing;
  std::unique_ptr<net::KvServer> server;
  std::vector<pid_t> server_threads;  // the server's worker threads
};

// Index build plus server start. The decorator sits between server and
// backend only when timing or fault injection asks for it.
bool StartKv(const KeyUniverse& u, bool decorate, uint64_t corrupt_every,
             const net::KvServerOptions& opts, KvStack* st) {
  st->index = BuildIndex<KvTree>(u, kShards);
  st->backend = std::make_unique<net::ShardedKvBackend<KvTree>>(st->index.get());
  net::KvBackend* be = st->backend.get();
  if (decorate) {
    st->timing = std::make_unique<TimingBackend>(be, corrupt_every);
    be = st->timing.get();
  }
  st->server = std::make_unique<net::KvServer>(be);
  const std::vector<pid_t> before = ThreadIds();
  if (!st->server->Start(opts)) {
    std::fprintf(stderr, "server start: %s\n", st->server->error().c_str());
    return false;
  }
  const std::vector<pid_t> after = ThreadIds();
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(st->server_threads));
  return true;
}

// Median of `reps` set-ups. set_up(last) returns its own seconds (so
// tearing down an earlier set-up is not counted), negative on failure,
// and keeps the last one.
template <typename SetUp>
double MedianSetup(int reps, SetUp set_up) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double s = set_up(r + 1 == reps);
    if (s < 0) return -1;
    t.push_back(s);
  }
  return Median(t);
}

// Interleaved A/B of tracing: the best round of each mode, as a cost in
// percent of the untraced rate.
double TraceOverheadPct(const std::vector<double>& off,
                        const std::vector<double>& on) {
  const double a = *std::max_element(off.begin(), off.end());
  const double b = *std::max_element(on.begin(), on.end());
  return (a / b - 1.0) * 100.0;
}

double P99Us(const obs::LogHistogram& h) {
  return static_cast<double>(h.Percentile(0.99)) * 1e-3;
}

// ---- served workloads ---------------------------------------------------

struct KvWorkload {
  uint64_t keys;
  double rate;
  TrafficMix mix;
  int setup_reps;
};

// A closed loop at the workload's pipeline depth keeps the server
// saturated; the best round's reply rate is the rate beyond which an
// open-loop backlog can only grow.
LoadResult Saturate(LoadSpec spec, KvModel* model, double seconds) {
  spec.rate = 0;
  spec.warmup_s = 0.2;
  spec.measure_s = seconds;
  spec.round_s = std::min(0.1, seconds / 5);
  return RunLoad(spec, model);
}

double BestRate(const LoadResult& r) {
  return RoundRate(r.rounds, r.done_ns, 1.0);
}

// Share of a saturated loop the generator spent waiting on the server.
double IdlePct(const LoadResult& r) {
  return 100.0 * static_cast<double>(r.idle_ns) * 1e-9 / r.window_s;
}

// Which side limits a saturated loop: the server worker busy near one
// full CPU with the generator often idle means the server does.
void PrintBottleneck(const LoadResult& r) {
  std::printf("saturated loop: server CPU %.1f%%, generator CPU %.1f%%, "
              "generator idle %.1f%% of the time (%llu turns)\n",
              100.0 * (r.process_cpu_s - r.generator_cpu_s) / r.window_s,
              100.0 * r.generator_cpu_s / r.window_s, IdlePct(r),
              static_cast<unsigned long long>(r.turns));
}

// The served KV contract: PUT overwrites and DEL removes. The probe
// sends PUT, PUT, GET, DEL, GET on each of kProbeKeys fresh keys past the
// workload's key range and counts the keys whose answers break it. The
// workload's own writes never PUT a live key, so this count is where a
// server that does not overwrite shows (NOTES.md "KV contract").
constexpr uint64_t kProbeKeys = 256;

uint64_t ContractViolations(const KeyUniverse& u, uint16_t port) {
  net::KvClient client;
  if (!client.Connect("127.0.0.1", port)) return kProbeKeys;
  const uint64_t base = u.Key(u.size() - 1) + 1;
  uint64_t broken = 0;
  for (uint64_t j = 0; j < kProbeKeys; ++j) {
    const uint64_t key = base + j;
    bool erased = false;
    const bool put = client.Put(key, u.Value(key, 1)) &&
                     client.Put(key, u.Value(key, 2));
    const auto after_put = client.Get(key);
    const bool del = client.Del(key, &erased);
    const auto after_del = client.Get(key);
    broken += !(put && after_put == u.Value(key, 2) && del && erased &&
                !after_del.has_value());
  }
  std::printf("kv contract probe: %llu of %llu fresh keys broke PUT "
              "overwrites / DEL removes\n",
              static_cast<unsigned long long>(broken),
              static_cast<unsigned long long>(kProbeKeys));
  return broken;
}

// Replies received inside the timed window, per second.
double ReplyRate(const LoadResult& r) {
  uint64_t in_window = 0;
  for (uint64_t t : r.done_ns) in_window += t < r.rounds.to_ns;
  return static_cast<double>(in_window) / r.window_s;
}

bool RunKv(const RunArgs& a, const KvWorkload& w, RunResult* out) {
  const KeyUniverse u(w.keys, a.seed);
  KvStack st;
  net::KvServerOptions opts;
  opts.num_workers = kWorkers;
  const double setup_s = MedianSetup(w.setup_reps, [&](bool last) {
    const uint64_t t0 = NowNs();
    KvStack s;
    if (!StartKv(u, a.trace, 0, opts, &s)) return -1.0;
    const double secs = SecondsSince(t0);
    if (last) st = std::move(s);
    return secs;
  });
  if (setup_s < 0) return false;
  KvModel model(&u, w.mix.write_frac > 0);
  LoadSpec spec;
  spec.port = st.server->port();
  spec.server_threads = st.server_threads;
  spec.rate = w.rate;
  spec.seed = a.seed;
  spec.mix = w.mix;
  spec.warmup_s = 1.0;
  MetricSink& m = out->metrics;

  if (!a.trace) {
    const double built_bytes_per_key =
        static_cast<double>(st.index->MemStats().reserved_bytes) /
        static_cast<double>(model.live_keys());
    spec.measure_s = a.seconds * 0.3;
    const LoadResult r = RunLoad(spec, &model);
    const auto mem = st.index->MemStats();
    const uint64_t live = model.live_keys();
    const LoadResult sat = Saturate(spec, &model, a.seconds * 0.6);
    PrintBottleneck(sat);
    out->attempted = r.attempted + sat.attempted;
    out->failed = r.failed() + sat.failed();
    m.Add("setup_s", setup_s, "s", w.setup_reps);
    m.Add("throughput_ops_s", ReplyRate(r), "1/s", r.done_ns.size());
    m.Add("capacity_qps", BestRate(sat), "1/s", sat.latency_us.size());
    m.Add("bytes_per_key",
          static_cast<double>(mem.reserved_bytes) / static_cast<double>(live),
          "B");
    std::printf("%s: %llu requests: %llu wrong, %llu errors, %llu lost "
                "(failed_frac %.6f); best-round p50 %.1f us; all-request "
                "p99 %.1f us; write p99 %.1f us (n=%zu); live keys %llu; "
                "bytes per key %.4f after the build, %.4f after the open "
                "loop, %.4f after the saturated loop\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(out->attempted),
                static_cast<unsigned long long>(r.wrong + sat.wrong),
                static_cast<unsigned long long>(r.errors + sat.errors),
                static_cast<unsigned long long>(r.lost + sat.lost),
                static_cast<double>(out->failed) /
                    static_cast<double>(out->attempted),
                RoundPercentile(r.rounds, r.due_ns, r.latency_us, 0.5, 0),
                Percentile(r.latency_us, 0.99),
                Percentile(r.write_latency_us, 0.99), r.write_latency_us.size(),
                static_cast<unsigned long long>(live), built_bytes_per_key,
                static_cast<double>(mem.reserved_bytes) /
                    static_cast<double>(live),
                static_cast<double>(st.index->MemStats().reserved_bytes) /
                    static_cast<double>(model.live_keys()));
    ContractViolations(u, spec.port);
    out->correct = out->failed == 0;
    return true;
  }

  // Traced run. First the tracing-overhead A/B: saturated rounds with
  // tracing off and on, interleaved.
  auto& tracer = obs::RequestTracer::Global();
  std::vector<double> off, on, idle_pct;
  uint64_t ab_attempted = 0, ab_failed = 0;
  for (int round = 0; round < 3; ++round) {
    for (bool traced : {false, true}) {
      tracer.Configure(traced ? 1 : 0, traced ? kSlowNs : 0);
      st.timing->Arm(traced);
      spec.seed = a.seed + 2 * round + traced;
      const LoadResult r = Saturate(spec, &model, a.seconds * 0.05);
      (traced ? on : off).push_back(BestRate(r));
      if (!traced) idle_pct.push_back(IdlePct(r));
      ab_attempted += r.attempted;
      ab_failed += r.failed();
    }
  }
  st.timing->Arm(false);
  tracer.Configure(0, 0);

  // Then the workload itself with every request traced.
  auto& reg = obs::MetricsRegistry::Global();
  obs::LogHistogram* coalesced = reg.GetHistogram("net.coalesced_batch");
  const char* const op_hists[] = {"net.op_get_ns", "net.op_mget_ns",
                                  "net.op_lower_bound_ns", "net.op_put_ns",
                                  "net.op_del_ns"};
  coalesced->Reset();
  for (const char* h : op_hists) reg.GetHistogram(h)->Reset();
  obs::Counter* retries = reg.GetCounter("olc.read_retries");
  obs::Counter* fallbacks = reg.GetCounter("olc.fallback_acquisitions");
  const uint64_t retries0 = retries->Get(), fallbacks0 = fallbacks->Get();
  tracer.Reset();
  tracer.Configure(1, kSlowNs);
  st.timing->Arm(true);
  ServerLedger ledger;
  SpanLog log;
  std::unordered_set<uint64_t> seen;
  auto collect = [&] {
    for (const obs::RequestTrace& t : tracer.Snapshot()) {
      if (seen.insert(t.trace_id).second) ledger.Add(t, &log);
    }
  };
  spec.seed = a.seed;
  spec.measure_s = a.seconds * 0.5;
  spec.record_keys = kLadderKeys;
  // The tracer keeps the last 256 traces per worker. A collector thread
  // reads them every 10 ms, which sees every request up to ~25k
  // requests/s per worker and keeps the generator thread's loop free.
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load()) {
      collect();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const LoadResult r = RunLoad(spec, &model);
  stop.store(true);
  collector.join();
  collect();
  std::printf("span ledger: %zu of %llu traced requests collected (%.1f%%)\n",
              seen.size(), static_cast<unsigned long long>(r.attempted),
              100.0 * static_cast<double>(seen.size()) /
                  static_cast<double>(r.attempted));
  const std::vector<obs::RequestTrace> slow = tracer.SlowSnapshot();
  st.timing->Arm(false);
  tracer.Configure(0, 0);
  out->attempted = r.attempted + ab_attempted;
  out->failed = r.failed() + ab_failed;

  double descheduled_ms = 0;
  for (double g : r.gaps_ms) descheduled_ms += g;
  m.Add("client.send_lag_p99_us", Percentile(r.lag_us, 0.99), "us",
        r.lag_us.size());
  m.Add("client.descheduled_ms", descheduled_ms, "ms", r.gaps_ms.size());
  m.Add("client.saturated_idle_pct", Median(idle_pct), "%", idle_pct.size());
  m.Add("client.flushes_per_req",
        r.lag_us.empty() ? 0
                         : static_cast<double>(r.flushes) /
                               static_cast<double>(r.lag_us.size()),
        "count");
  m.Add("client.p50_us",
        RoundPercentile(r.rounds, r.due_ns, r.latency_us, 0.5, 0), "us",
        r.latency_us.size());
  m.Add("client.p99_us", Percentile(r.latency_us, 0.99), "us",
        r.latency_us.size());
  m.Add("client.write_p99_us", Percentile(r.write_latency_us, 0.99), "us",
        r.write_latency_us.size());
  m.Add("client.failed_frac",
        static_cast<double>(out->failed) / static_cast<double>(out->attempted),
        "ratio", out->attempted);
  RunProtocolLadder(r.read_keys, r.lb_keys, &m);
  m.Add("server.socket_read_us", ledger.MeanUs(ledger.sum.socket_read), "us",
        ledger.requests);
  m.Add("server.coalesce_wait_us", ledger.MeanUs(ledger.sum.coalesce_wait),
        "us", ledger.requests);
  m.Add("server.execute_self_us", ledger.MeanUs(ledger.sum.execute_self),
        "us", ledger.requests);
  m.Add("server.write_flush_us", ledger.MeanUs(ledger.sum.write_flush), "us",
        ledger.requests);
  m.Add("server.coalesced_keys_p50",
        static_cast<double>(coalesced->Percentile(0.5)), "count",
        coalesced->Count());
  obs::LogHistogram service;
  for (const char* h : op_hists) service.Merge(*reg.GetHistogram(h));
  m.Add("server.service_p99_us", P99Us(service), "us", service.Count());
  m.Add("backend.find_batch_ns_per_key", st.timing->find_batch_ns_per_key(),
        "ns");
  m.Add("backend.put_p99_us", P99Us(st.timing->put_ns()), "us",
        st.timing->put_ns().Count());
  m.Add("backend.del_p99_us", P99Us(st.timing->del_ns()), "us",
        st.timing->del_ns().Count());
  m.Add("backend.lower_bound_ns", st.timing->lower_bound_ns(), "ns");
  m.Add("sharded.fanout_us",
        ledger.fanout_spans ? ledger.sum.shard_fanout /
                                  static_cast<double>(ledger.fanout_spans) * 1e-3
                            : 0,
        "us", ledger.fanout_spans);
  const double kreads =
      static_cast<double>(r.op_count[kGet] + 8 * r.op_count[kMget] +
                          r.op_count[kLowerBound]) /
      1000.0;
  m.Add("sharded.olc_retries_per_kread",
        static_cast<double>(retries->Get() - retries0) / kreads, "count");
  m.Add("sharded.fallbacks_per_kread",
        static_cast<double>(fallbacks->Get() - fallbacks0) / kreads, "count");
  const double mean_batch = coalesced->Count() ? coalesced->Mean() : 1.0;
  RunIndexLadder(*st.index, r.read_keys,
                 static_cast<size_t>(std::lround(std::max(1.0, mean_batch))), &m);
  const auto mem = st.index->MemStats();
  m.Add("mem.arena_bytes_per_key",
        static_cast<double>(mem.used_bytes) /
            static_cast<double>(model.live_keys()),
        "B");
  m.Add("mem.epoch_deferred_blocks",
        static_cast<double>(
            simdtree::olc::EpochManager::Global().deferred_blocks()),
        "count");
  m.Add("trace.overhead_pct", TraceOverheadPct(off, on), "%");
  m.Add("backend.contract_violations",
        static_cast<double>(ContractViolations(u, spec.port)), "count",
        kProbeKeys);

  // Where the slow requests' time went: the client's count against the
  // server's tail-retained traces, each named by the span that owns most
  // of its time. Slow requests the server never saw as slow were delayed
  // outside it.
  uint64_t client_slow = 0;
  for (double us : r.latency_us) client_slow += us * 1e3 >= kSlowNs;
  std::printf("slow requests (>= %.0f ms): %llu seen by the client, %zu "
              "retained by the server; generator descheduled %zu times "
              "for %.1f ms in all\n",
              kSlowNs * 1e-6, static_cast<unsigned long long>(client_slow),
              slow.size(), r.gaps_ms.size(), descheduled_ms);
  for (const obs::RequestTrace& t : slow) {
    ledger.Add(t, &log);
    std::printf("  slow trace %llu: %.2f ms, owner %s\n",
                static_cast<unsigned long long>(t.trace_id),
                t.latency_ns * 1e-6, ServerLedger::Owner(t));
  }
  log.Write(a);
  out->correct = out->failed == 0;
  return true;
}

// ---- in-process workloads ---------------------------------------------

void AddServedZeros(MetricSink* m) {
  for (const auto& [name, unit] : kServedOnlyMetrics) m->Add(name, 0, unit);
}

// A closed in-process loop of timed blocks (one block: a batch of calls
// timed as a whole), cut into rounds for CPU cycling and latency
// samples.
class LoopRounds {
 public:
  Rounds rounds;
  std::vector<uint64_t> t_ns;
  std::vector<double> lat_us;

  explicit LoopRounds(double seconds) {
    rounds.from_ns = NowNs();
    rounds.to_ns = rounds.from_ns + static_cast<uint64_t>(seconds * 1e9);
    rounds.round_ns = static_cast<uint64_t>(std::min(0.5, seconds / 5) * 1e9);
  }

  // True while the loop goes on. Each round moves the thread to the next
  // CPU it may use, and the end restores its CPU set.
  bool running() {
    const uint64_t now = NowNs();
    if (now >= rounds.to_ns) {
      cpus_.Restore();
      return false;
    }
    cpus_.Round(rounds.Of(now));
    return true;
  }
  // One block: `units` of work done in `ns` busy nanoseconds.
  void Add(double units, double ns) {
    work_ += units;
    busy_ns_ += ns;
    block_rates_.push_back(units / (ns * 1e-9));
  }
  // Work per busy second over the whole loop.
  double Rate() const { return busy_ns_ > 0 ? work_ / (busy_ns_ * 1e-9) : 0; }
  // The rate of the fastest tenth of blocks: what the loop does while no
  // neighbour shares its CPU.
  double FastRate() const { return Percentile(block_rates_, 0.9); }
  // The best round's p50 and the median round's p99, per call.
  double P50Us() const { return RoundPercentile(rounds, t_ns, lat_us, 0.5, 0); }
  double P99Us() const { return RoundPercentile(rounds, t_ns, lat_us, 0.99, 0.5); }
  void AddEndToEnd(MetricSink* m, double setup_s, int setup_reps,
                   double bytes_per_key) const {
    m->Add("setup_s", setup_s, "s", setup_reps);
    m->Add("throughput_ops_s", Rate(), "1/s", block_rates_.size());
    m->Add("capacity_qps", FastRate(), "1/s", block_rates_.size());
    m->Add("bytes_per_key", bytes_per_key, "B");
  }

 private:
  double work_ = 0;
  double busy_ns_ = 0;
  std::vector<double> block_rates_;
  CpuCycler cpus_;
};

// Per-layer metrics shared by the in-process workloads.
template <typename Tree>
void AddIndexLayers(const ShardedIndex<Tree>& index,
                    const std::vector<typename Tree::KeyType>& stream,
                    size_t batch, uint64_t live, double overhead_pct,
                    MetricSink* m) {
  AddServedZeros(m);
  RunIndexLadder(index, stream, batch, m);
  const auto mem = index.MemStats();
  m->Add("mem.arena_bytes_per_key",
         static_cast<double>(mem.used_bytes) / static_cast<double>(live), "B");
  m->Add("mem.epoch_deferred_blocks",
         static_cast<double>(
             simdtree::olc::EpochManager::Global().deferred_blocks()),
         "count");
  m->Add("trace.overhead_pct", overhead_pct, "%");
  m->Add("sharded.olc_retries_per_kread", 0, "count");
  m->Add("sharded.fallbacks_per_kread", 0, "count");
}

// index-batch probes: runs of kRunKeys adjacent stored keys.
class ClusteredBatches {
 public:
  ClusteredBatches(const KeyUniverse& u, uint64_t seed)
      : u_(u), rng_(Mix64(seed ^ 0xBA7C4)) {}
  void Next(std::vector<uint64_t>* keys) {
    keys->clear();
    for (size_t r = 0; r < kBatchRuns; ++r) {
      const uint64_t start = rng_.NextBounded(u_.size() - kRunKeys);
      for (size_t j = 0; j < kRunKeys; ++j) keys->push_back(u_.Key(start + j));
    }
  }

 private:
  const KeyUniverse& u_;
  Rng rng_;
};

std::vector<uint64_t> IndexBatchStream(const KeyUniverse& u, uint64_t seed) {
  ClusteredBatches gen(u, seed);
  std::vector<uint64_t> stream, keys;
  while (stream.size() < kLadderKeys) {
    gen.Next(&keys);
    stream.insert(stream.end(), keys.begin(), keys.end());
  }
  return stream;
}

std::vector<uint32_t> NodeSearchStream(const KeyUniverse& u, uint64_t seed) {
  Rng rng(Mix64(seed ^ 0x5EA4C));
  std::vector<uint32_t> stream(kLadderKeys);
  for (auto& k : stream) k = static_cast<uint32_t>(u.Key(rng.NextBounded(u.size())));
  return stream;
}

double ReservedPerKey(const auto& index, uint64_t keys) {
  return static_cast<double>(index.MemStats().reserved_bytes) /
         static_cast<double>(keys);
}

bool RunIndexBatch(const RunArgs& a, RunResult* out) {
  const KeyUniverse u(kBigKeys, a.seed);
  constexpr int kSetupReps = 3;
  std::unique_ptr<ShardedIndex<KvTree>> index;
  const double setup_s = MedianSetup(kSetupReps, [&](bool last) {
    const uint64_t t0 = NowNs();
    auto built = BuildIndex<KvTree>(u, kShards);
    const double secs = SecondsSince(t0);
    if (last) index = std::move(built);
    return secs;
  });
  ClusteredBatches gen(u, a.seed);
  std::vector<uint64_t> keys;
  std::vector<std::optional<uint64_t>> vals(kBatchRuns * kRunKeys);
  uint64_t wrong = 0, calls = 0, traced_calls = 0;
  obs::SpanCollector collector;
  SpanLog log;
  double fanout_ns = 0;
  // One checked FindBatch call; returns its nanoseconds. A traced call
  // arms the wrappers' span collector and logs the call's spans.
  auto call = [&](bool traced) {
    gen.Next(&keys);
    if (traced) {
      collector.count = 0;
      obs::SetActiveSpanCollector(&collector);
    }
    const uint64_t t0 = NowNs();
    index->FindBatch(keys.data(), keys.size(), vals.data());
    const uint64_t ns = NowNs() - t0;
    if (traced) {
      obs::SetActiveSpanCollector(nullptr);
      ++traced_calls;
      log.Add(calls, "find_batch", "", t0, ns);
      for (int i = 0; i < collector.count; ++i) {
        const auto& s = collector.spans[i];
        if (static_cast<obs::RequestSpanKind>(s.kind) ==
            obs::RequestSpanKind::kShardFanout) {
          fanout_ns += static_cast<double>(s.duration_ns);
        }
        log.Add(calls, obs::RequestSpanKindName(s.kind), "find_batch",
                s.start_ns, s.duration_ns);
      }
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      wrong += !vals[i].has_value() || *vals[i] != u.Value(keys[i], 0);
    }
    ++calls;
    return ns;
  };
  auto loop = [&](double seconds, bool traced) {
    LoopRounds lr(seconds);
    while (lr.running()) {
      const uint64_t ns = call(traced);
      const uint64_t t = NowNs();
      lr.Add(static_cast<double>(keys.size()), static_cast<double>(ns));
      lr.t_ns.push_back(t);
      lr.lat_us.push_back(static_cast<double>(ns) * 1e-3);
    }
    return lr;
  };
  loop(0.5, false);  // warm-up
  MetricSink& m = out->metrics;
  if (!a.trace) {
    loop(a.seconds, false)
        .AddEndToEnd(&m, setup_s, kSetupReps, ReservedPerKey(*index, u.size()));
  } else {
    std::vector<double> off, on, p50, p99;
    for (int round = 0; round < 3; ++round) {
      const LoopRounds plain = loop(a.seconds * 0.1, false);
      off.push_back(plain.FastRate());
      p50.push_back(plain.P50Us());
      p99.push_back(plain.P99Us());
      on.push_back(loop(a.seconds * 0.1, true).FastRate());
    }
    m.Add("client.p50_us", Median(p50), "us");
    m.Add("client.p99_us", Median(p99), "us");
    AddIndexLayers(*index, IndexBatchStream(u, a.seed), kBatchRuns * kRunKeys,
                   u.size(), TraceOverheadPct(off, on), &m);
    m.Add("sharded.fanout_us",
          fanout_ns / static_cast<double>(traced_calls) * 1e-3, "us",
          traced_calls);
    log.Write(a);
  }
  out->attempted = calls * kBatchRuns * kRunKeys;
  out->failed = wrong;
  out->correct = wrong == 0;
  return true;
}

bool RunNodeSearch(const RunArgs& a, RunResult* out) {
  const KeyUniverse u(kNodeKeys, a.seed);
  constexpr int kSetupReps = 31;
  std::unique_ptr<ShardedIndex<NodeTree>> index;
  const double setup_s = MedianSetup(kSetupReps, [&](bool last) {
    const uint64_t t0 = NowNs();
    auto built = BuildIndex<NodeTree>(u, 1);
    const double secs = SecondsSince(t0);
    if (last) index = std::move(built);
    return secs;
  });
  Rng rng(Mix64(a.seed ^ 0x5EA4C));
  constexpr size_t kBlock = 4096;
  // A latency block keeps one call in kLatencyEvery as a sample, which
  // bounds the sample memory of a long run.
  constexpr uint64_t kLatencyEvery = 16;
  std::vector<uint32_t> probes(kBlock);
  std::vector<std::optional<uint64_t>> found(kBlock);
  uint64_t wrong = 0, calls = 0;
  SpanLog log;
  // Blocks of single-key Find calls, checked after each block. A plain
  // block is timed as a whole, so no clock read sits between two calls
  // and one call may overlap the next; a latency or traced block times
  // every call on its own (and a traced block logs each as a span).
  enum class Block { kPlain, kLatency, kTraced };
  auto loop = [&](double seconds, Block mode) {
    LoopRounds lr(seconds);
    while (lr.running()) {
      for (auto& p : probes) {
        p = static_cast<uint32_t>(u.Key(rng.NextBounded(u.size())));
      }
      const uint64_t t = NowNs();
      double busy_ns = 0;
      if (mode == Block::kPlain) {
        for (size_t i = 0; i < kBlock; ++i) found[i] = index->Find(probes[i]);
        busy_ns = static_cast<double>(NowNs() - t);
      } else {
        uint64_t busy = 0;
        for (size_t i = 0; i < kBlock; ++i) {
          const uint64_t c0 = CycleTimer::Now();
          found[i] = index->Find(probes[i]);
          const uint64_t c = CycleTimer::Now() - c0;
          busy += c;
          if (mode == Block::kTraced) {
            log.Add(calls + i, "find", "", c0, c);
          } else if (((calls + i) & (kLatencyEvery - 1)) == 0) {
            lr.t_ns.push_back(t);
            lr.lat_us.push_back(CycleTimer::ToNanoseconds(c) * 1e-3);
          }
        }
        busy_ns = CycleTimer::ToNanoseconds(busy);
      }
      for (size_t i = 0; i < kBlock; ++i) {
        wrong += !found[i].has_value() || *found[i] != u.Value(probes[i], 0);
      }
      calls += kBlock;
      lr.Add(kBlock, busy_ns);
    }
    return lr;
  };
  loop(0.5, Block::kPlain);  // warm-up
  MetricSink& m = out->metrics;
  if (!a.trace) {
    loop(a.seconds, Block::kPlain)
        .AddEndToEnd(&m, setup_s, kSetupReps, ReservedPerKey(*index, u.size()));
  } else {
    std::vector<double> off, on, p50, p99;
    for (int round = 0; round < 3; ++round) {
      off.push_back(loop(a.seconds * 0.1, Block::kPlain).FastRate());
      const LoopRounds timed = loop(a.seconds * 0.1, Block::kLatency);
      p50.push_back(timed.P50Us());
      p99.push_back(timed.P99Us());
      on.push_back(loop(a.seconds * 0.1, Block::kTraced).FastRate());
    }
    m.Add("client.p50_us", Median(p50), "us");
    m.Add("client.p99_us", Median(p99), "us");
    AddIndexLayers(*index, NodeSearchStream(u, a.seed), 1, u.size(),
                   TraceOverheadPct(off, on), &m);
    m.Add("sharded.fanout_us", 0, "us");
    log.Write(a);
  }
  out->attempted = calls;
  out->failed = wrong;
  out->correct = wrong == 0;
  return true;
}

// ---- self-test ----------------------------------------------------------

int Check(bool ok, const char* name, const std::string& detail) {
  std::printf("self-test %-28s %s  %s\n", name, ok ? "PASS" : "FAIL",
              detail.c_str());
  return ok ? 0 : 1;
}

// A decorator that corrupts 1 in N found values must show up as wrong
// replies, and the same run without corruption must show none.
int SelfTestWrongReply() {
  const KeyUniverse u(kNodeKeys, 7);
  int fails = 0;
  for (uint64_t every : {uint64_t{0}, uint64_t{100}}) {
    KvStack st;
    net::KvServerOptions opts;
    opts.num_workers = kWorkers;
    if (!StartKv(u, true, every, opts, &st)) return 1;
    KvModel model(&u, false);
    LoadSpec spec;
    spec.port = st.server->port();
    spec.rate = 20000;
    spec.warmup_s = 0.1;
    spec.measure_s = 1.0;
    const LoadResult r = RunLoad(spec, &model);
    const double frac = static_cast<double>(r.failed()) /
                        static_cast<double>(r.attempted);
    const bool ok = every == 0 ? r.failed() == 0
                               : r.wrong > 0 && frac > 0.2 / every;
    fails += Check(ok, every ? "corrupt 1 in 100 caught" : "clean run has no failure",
                   "wrong " + std::to_string(r.wrong) + " of " +
                       std::to_string(r.attempted) + ", failed_frac " +
                       std::to_string(frac));
  }
  return fails;
}

// A mutex-guarded std::map with the KV contract (PUT overwrites, DEL
// removes): the reference on which the reply checker must find nothing.
class MapBackend final : public net::KvBackend {
 public:
  explicit MapBackend(const KeyUniverse& u) {
    for (uint64_t i = 0; i < u.size(); ++i) map_[u.Key(i)] = u.Value(u.Key(i), 0);
  }
  void FindBatch(const uint64_t* keys, size_t n,
                 std::optional<uint64_t>* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < n; ++i) {
      const auto it = map_.find(keys[i]);
      out[i] = it == map_.end() ? std::nullopt : std::optional(it->second);
    }
  }
  bool LowerBound(uint64_t key, uint64_t* out_key,
                  uint64_t* out_value) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.lower_bound(key);
    if (it == map_.end()) return false;
    *out_key = it->first;
    *out_value = it->second;
    return true;
  }
  void Put(uint64_t key, uint64_t value) override {
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] = value;
  }
  bool Del(uint64_t key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.erase(key) > 0;
  }
  std::string StatsJson() override { return "{}"; }

 private:
  std::mutex mu_;
  std::map<uint64_t, uint64_t> map_;
};

// kv-write traffic against the reference map must check clean, and the
// contract probe must find no break on it: what either reports on the
// index is the index's.
int SelfTestReferenceMap() {
  const KeyUniverse u(kNodeKeys, 11);
  MapBackend backend(u);
  net::KvServer server(&backend);
  net::KvServerOptions opts;
  opts.num_workers = kWorkers;
  if (!server.Start(opts)) return 1;
  KvModel model(&u, true);
  LoadSpec spec;
  spec.port = server.port();
  spec.rate = 20000;
  spec.mix = {0.5, 0.5};
  spec.warmup_s = 0.1;
  spec.measure_s = 1.0;
  const LoadResult r = RunLoad(spec, &model);
  const LoadResult sat = Saturate(spec, &model, 0.5);
  const uint64_t broken = ContractViolations(u, server.port());
  server.Stop();
  return Check(r.failed() == 0 && sat.failed() == 0 && r.op_count[kDel] > 0 &&
                   broken == 0,
               "kv-write on a map checks clean",
               std::to_string(r.attempted + sat.attempted) + " requests, " +
                   std::to_string(r.op_count[kPut] + sat.op_count[kPut]) +
                   " PUT, " + std::to_string(r.op_count[kDel] + sat.op_count[kDel]) +
                   " DEL, failed " + std::to_string(r.failed() + sat.failed()) +
                   ", contract breaks " + std::to_string(broken));
}

// A stall planted with the server's test hook on one key must be
// retained as a slow trace and attributed to the span that contains it:
// the backend call region (server.execute), outside the index spans.
int SelfTestPlantedStall() {
  const KeyUniverse u(kNodeKeys, 9);
  constexpr uint64_t kStallNs = 30'000'000;
  KvStack st;
  net::KvServerOptions opts;
  opts.num_workers = kWorkers;
  opts.test_slow_key = u.Key(1234);
  opts.test_slow_ns = kStallNs;
  if (!StartKv(u, false, 0, opts, &st)) return 1;
  auto& tracer = obs::RequestTracer::Global();
  tracer.Reset();
  tracer.Configure(1, kStallNs / 2);
  KvModel model(&u, false);
  LoadSpec spec;
  spec.port = st.server->port();
  spec.rate = 5000;
  spec.warmup_s = 0.1;
  spec.measure_s = 0.3;
  RunLoad(spec, &model);
  net::KvClient client;
  const uint64_t t0 = NowNs();
  const bool connected = client.Connect("127.0.0.1", spec.port);
  const auto v = connected ? client.Get(u.Key(1234)) : std::nullopt;
  const double client_ms = SecondsSince(t0) * 1e3;
  tracer.Configure(0, 0);
  std::string owner = "none";
  double latency_ms = 0;
  for (const obs::RequestTrace& t : tracer.SlowSnapshot()) {
    if (t.opcode == net::kOpGet) {
      owner = ServerLedger::Owner(t);
      latency_ms = t.latency_ns * 1e-6;
    }
  }
  const bool ok = v.has_value() && *v == u.Value(u.Key(1234), 0) &&
                  client_ms >= kStallNs * 1e-6 && owner == "server.execute" &&
                  latency_ms >= kStallNs * 1e-6;
  return Check(ok, "planted stall attributed",
               "client " + std::to_string(client_ms) + " ms, server trace " +
                   std::to_string(latency_ms) + " ms, owner " + owner);
}

// The exact counts of the in-process workloads must repeat for a fixed
// seed: the ledger's descent counts and bytes per key, on a freshly
// built index each time.
int SelfTestExactCounts() {
  const char* const counted[] = {"descent.nodes_visited_per_key",
                                 "descent.nodes_loaded_per_key",
                                 "descent.simd_cmp_per_key", "bytes_per_key"};
  int fails = 0;
  auto one = [&](const char* name, auto run) {
    MetricSink first, second;
    run(&first);
    run(&second);
    bool same = true;
    std::string detail;
    for (const char* c : counted) {
      same = same && first.Get(c) == second.Get(c);
      detail += std::string(c) + "=" + std::to_string(first.Get(c)) + " ";
    }
    fails += Check(same, name, detail);
  };
  one("index-batch counts repeat", [](MetricSink* m) {
    const KeyUniverse u(kBigKeys, 3);
    const auto index = BuildIndex<KvTree>(u, kShards);
    RunIndexLadder(*index, IndexBatchStream(u, 3), kBatchRuns * kRunKeys, m);
    m->Add("bytes_per_key", ReservedPerKey(*index, u.size()), "B");
  });
  one("node-search counts repeat", [](MetricSink* m) {
    const KeyUniverse u(kNodeKeys, 3);
    const auto index = BuildIndex<NodeTree>(u, 1);
    RunIndexLadder(*index, NodeSearchStream(u, 3), 1, m);
    m->Add("bytes_per_key", ReservedPerKey(*index, u.size()), "B");
  });
  return fails;
}

}  // namespace

bool RunWorkload(const RunArgs& a, RunResult* out) {
  std::printf("perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::fflush(stdout);
  if (a.workload == "kv-read") {
    return RunKv(a, {kBigKeys, kReadRate, {0.0, 0.0}, 3}, out);
  }
  if (a.workload == "kv-write") {
    return RunKv(a, {kWriteKeys, kWriteRate, {0.5, 0.5}, 5}, out);
  }
  if (a.workload == "index-batch") return RunIndexBatch(a, out);
  if (a.workload == "node-search") return RunNodeSearch(a, out);
  std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
  return false;
}

int RunSelfTest() {
  const int fails = SelfTestWrongReply() + SelfTestReferenceMap() +
                    SelfTestPlantedStall() + SelfTestExactCounts();
  std::printf("self-test: %d failed\n", fails);
  return fails;
}

}  // namespace perfbench
