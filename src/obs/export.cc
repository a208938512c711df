#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

namespace simdtree::obs {

namespace {

bool ValidStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool ValidNameChar(char c) {
  return ValidStartChar(c) || (c >= '0' && c <= '9');
}

std::string FmtU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string FmtDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Deduplicates sanitized names across one exposition: the first use of
// a sanitized name wins it; later registry names mapping to the same
// string get a numbered "_2", "_3", ... suffix. Deterministic because
// Snapshot enumerates in registry (map) order.
class NameDeduper {
 public:
  std::string Unique(const std::string& raw) {
    std::string san = SanitizeMetricName(raw);
    auto [it, inserted] = uses_.emplace(san, 1);
    if (inserted) return san;
    ++it->second;
    return san + "_" + FmtU64(it->second);
  }

 private:
  std::map<std::string, uint64_t> uses_;
};

void AppendDescentJson(std::string* out, const DescentTrace& t) {
  *out += "{\"key\":" + FmtU64(t.key);
  *out += ",\"shard\":";
  *out += t.shard == kTraceNoShard ? std::string("null")
                                   : FmtU64(t.shard);
  *out += ",\"backend\":\"";
  *out += TraceBackendName(t.backend);
  *out += "\",\"found\":";
  *out += t.found ? "true" : "false";
  *out += ",\"lock_wait_ns\":" + FmtU64(t.lock_wait_ns);
  *out += ",\"levels\":[";
  for (int i = 0; i < t.levels && i < kMaxTraceLevels; ++i) {
    const LevelSpan& s = t.level[i];
    if (i > 0) *out += ",";
    *out += "{\"node_ref\":";
    *out += s.node_ref == kTraceNoNodeRef ? std::string("null")
                                          : FmtU64(s.node_ref);
    *out += ",\"layout\":\"";
    *out += TraceLayoutName(s.layout);
    *out += "\",\"arena_slab\":";
    *out += s.arena_slab == kTraceSlabUnknown ? std::string("null")
                                              : FmtU64(s.arena_slab);
    *out += ",\"simd_cmps\":" + FmtU64(s.simd_cmps);
    *out += ",\"scalar_cmps\":" + FmtU64(s.scalar_cmps);
    *out += ",\"cycles\":" + FmtU64(s.cycles);
    *out += ",\"group_size\":" + FmtU64(s.group_size);
    *out += "}";
  }
  *out += "]}";
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  if (!ValidStartChar(name[0])) out.push_back('_');
  for (char c : name) {
    out.push_back(ValidNameChar(c) ? c : '_');
  }
  return out;
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || !ValidStartChar(name[0])) return false;
  for (char c : name) {
    if (!ValidNameChar(c)) return false;
  }
  return true;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::vector<CumulativeBucket> CumulativeBuckets(const LogHistogram& hist) {
  std::vector<CumulativeBucket> out;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < LogHistogram::kBuckets; ++b) {
    const uint64_t n = hist.BucketCount(b);
    if (n == 0) continue;
    cumulative += n;
    // The exclusive upper edge of bucket b is the lower edge of b+1;
    // the final bucket's edge would overflow BucketLow's shift, so it
    // folds into +Inf below.
    if (b + 1 >= LogHistogram::kBuckets) break;
    out.push_back({static_cast<double>(LogHistogram::BucketLow(b + 1)),
                   cumulative, b});
  }
  // Mandatory closing bucket: everything, including samples in the last
  // raw bucket. Count() and the bucket sums are separately-updated
  // atomics, so mid-record one can lag the other; clamp so the +Inf
  // bucket never undercuts an earlier one (scrapes must stay monotone).
  // raw_bucket = kBuckets marks "no exemplar slot" — finite-le buckets
  // carry the exemplars.
  out.push_back({std::numeric_limits<double>::infinity(),
                 std::max(cumulative, hist.Count()),
                 LogHistogram::kBuckets});
  return out;
}

std::string RenderOpenMetrics(const MetricsRegistry::Snapshot& snap) {
  std::string out;
  NameDeduper dedup;
  for (const auto& [name, value] : snap.counters) {
    const std::string san = dedup.Unique(name);
    out += "# TYPE " + san + " counter\n";
    out += san + "_total " + FmtU64(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string san = dedup.Unique(name);
    out += "# TYPE " + san + " gauge\n";
    out += san + " " + FmtDouble(value) + "\n";
  }
  for (const auto& [name, labels] : snap.infos) {
    const std::string san = dedup.Unique(name);
    out += "# TYPE " + san + " gauge\n";
    out += san + "{";
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) out += ",";
      first = false;
      out += SanitizeMetricName(k) + "=\"" + EscapeLabelValue(v) + "\"";
    }
    out += "} 1\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string san = dedup.Unique(name);
    // Exemplar stores pair with histograms by registry name; both
    // vectors come sorted from the same map walk.
    const ExemplarStore* store = nullptr;
    for (const auto& [ex_name, ex_store] : snap.exemplars) {
      if (ex_name == name) {
        store = ex_store;
        break;
      }
    }
    out += "# TYPE " + san + " histogram\n";
    const std::vector<CumulativeBucket> buckets = CumulativeBuckets(*hist);
    for (const CumulativeBucket& b : buckets) {
      out += san + "_bucket{le=\"" + FmtDouble(b.le) + "\"} " +
             FmtU64(b.count);
      ExemplarStore::Exemplar ex;
      if (store != nullptr && b.raw_bucket < LogHistogram::kBuckets &&
          store->Read(b.raw_bucket, &ex) &&
          LogHistogram::BucketIndex(ex.value) == b.raw_bucket) {
        // OpenMetrics exemplar: " # {labels} value". The in-range rule
        // (value <= le) holds because the store slot IS this raw
        // bucket and the id+value pair is seqlock-consistent.
        char id[24];
        std::snprintf(id, sizeof(id), "%016" PRIx64, ex.trace_id);
        out += " # {trace_id=\"";
        out += id;
        out += "\"} " + FmtDouble(static_cast<double>(ex.value));
      }
      out += "\n";
    }
    // _count must equal the +Inf bucket exactly (the spec ties them).
    out += san + "_count " + FmtU64(buckets.back().count) + "\n";
    out += san + "_sum " + FmtU64(hist->Sum()) + "\n";
  }
  out += "# EOF\n";
  return out;
}

std::string RenderMetricsJson(const MetricsRegistry& registry,
                              const RequestTracer& tracer) {
  std::string out = "{\"registry\":" + registry.ToJson();
  out += ",\"requests\":{\"head_rate\":" + FmtU64(tracer.head_rate());
  out += ",\"slow_threshold_ns\":" + FmtU64(tracer.slow_threshold_ns());
  out += ",\"retained\":" + FmtU64(tracer.retained());
  out += ",\"slow_retained\":" + FmtU64(tracer.slow_retained());
  out += "}}";
  return out;
}

namespace {

void AppendRequestTraceJson(std::string* out, const RequestTrace& t) {
  char id[24];
  std::snprintf(id, sizeof(id), "%016" PRIx64, t.trace_id);
  *out += "{\"trace_id\":\"";
  *out += id;
  *out += "\",\"conn\":" + FmtU64(t.conn_id);
  *out += ",\"request\":" + FmtU64(t.request_id);
  *out += ",\"op\":" + FmtU64(t.opcode);
  *out += ",\"status\":" + FmtU64(t.status);
  *out += ",\"start_ns\":" + FmtU64(t.start_ns);
  *out += ",\"latency_ns\":" + FmtU64(t.latency_ns);
  *out += ",\"service_ns\":" + FmtU64(t.service_ns);
  *out += ",\"batch_keys\":" + FmtU64(t.batch_keys);
  *out += ",\"thread\":" + FmtU64(t.thread_id);
  *out += ",\"slow\":";
  *out += t.slow ? "true" : "false";
  *out += ",\"spans\":[";
  for (int i = 0; i < t.num_spans && i < kMaxRequestSpans; ++i) {
    const RequestSpan& s = t.spans[i];
    if (i > 0) *out += ",";
    *out += "{\"kind\":\"";
    *out += RequestSpanKindName(s.kind);
    *out += "\",\"start_ns\":" + FmtU64(s.start_ns);
    *out += ",\"duration_ns\":" + FmtU64(s.duration_ns);
    *out += "}";
  }
  *out += "],\"descent\":";
  AppendDescentJson(out, t.descent);
  *out += "}";
}

}  // namespace

std::string RenderRequestzJson(const RequestTracer& tracer,
                               size_t max_recent) {
  std::string out = "{\"head_rate\":" + FmtU64(tracer.head_rate());
  out += ",\"slow_threshold_ns\":" + FmtU64(tracer.slow_threshold_ns());
  out += ",\"completed\":" + FmtU64(tracer.completed());
  out += ",\"retained\":" + FmtU64(tracer.retained());
  out += ",\"slow_retained\":" + FmtU64(tracer.slow_retained());
  out += ",\"recent\":[";
  bool first = true;
  for (const RequestTrace& t : tracer.Snapshot(max_recent)) {
    if (!first) out += ",";
    first = false;
    AppendRequestTraceJson(&out, t);
  }
  out += "],\"slow\":[";
  first = true;
  for (const RequestTrace& t : tracer.SlowSnapshot()) {
    if (!first) out += ",";
    first = false;
    AppendRequestTraceJson(&out, t);
  }
  out += "]}";
  return out;
}

}  // namespace simdtree::obs
