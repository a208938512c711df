// Metric and trace exposition: OpenMetrics/Prometheus text format over
// the MetricsRegistry, a JSON variant, and the /requestz trace dump.
//
// OpenMetrics names admit only [a-zA-Z_:][a-zA-Z0-9_:]* while the
// registry's convention is dotted paths ("sharded.read_lock_ns"), so
// every exported name passes through SanitizeMetricName first; two
// registry names that collide after sanitization are disambiguated
// deterministically so the exposition never declares a family twice.
//
// LogHistogram is exported the Prometheus way: cumulative `_bucket`
// samples with `le` upper bounds taken from the histogram's own log
// bucket edges (only non-empty buckets are emitted — 1920 mostly-empty
// buckets per histogram would bloat every scrape), plus `_count` and
// `_sum`, closing with the mandatory le="+Inf" bucket.

#ifndef SIMDTREE_OBS_EXPORT_H_
#define SIMDTREE_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace simdtree::obs {

// Maps an arbitrary registry name onto the OpenMetrics name grammar:
// invalid characters (dots, dashes, ...) become '_', a leading digit is
// prefixed with '_', an empty name becomes "_". Deterministic and
// stateless; collisions are handled by the renderer.
std::string SanitizeMetricName(const std::string& name);

bool IsValidMetricName(const std::string& name);

// Escapes a label value per the OpenMetrics ABNF: backslash, double
// quote, and newline get backslash-escaped.
std::string EscapeLabelValue(const std::string& value);

// One cumulative histogram bucket: count of samples <= le.
struct CumulativeBucket {
  double le = 0.0;        // upper bound; +Inf for the closing bucket
  uint64_t count = 0;     // cumulative count of samples <= le
  size_t raw_bucket = 0;  // LogHistogram bucket index this edge closes —
                          // the exemplar-store slot to join against
                          // (the +Inf bucket keeps the last raw index)
};

// Converts a LogHistogram's raw log buckets into cumulative OpenMetrics
// buckets: one entry per non-empty raw bucket (le = the bucket's
// exclusive upper edge) plus the mandatory +Inf bucket carrying the
// total count. An empty histogram yields just the +Inf bucket with
// count 0.
std::vector<CumulativeBucket> CumulativeBuckets(const LogHistogram& hist);

// Renders a registry snapshot as OpenMetrics text exposition
// (counters with the `_total` suffix, gauges, info metrics as labeled
// constant-1 gauges, histograms as cumulative buckets), terminated by
// the mandatory "# EOF" line. Histograms with an exemplar store of the
// same name get `# {trace_id="..."} value` exemplars appended to the
// bucket lines whose raw bucket holds a retained trace id; an exemplar
// is only rendered when its value verifiably belongs to that bucket,
// so the OpenMetrics in-range rule survives races with concurrent
// Offers.
std::string RenderOpenMetrics(const MetricsRegistry::Snapshot& snap);

// Same data as one JSON document (the registry's ToJson shape plus the
// request recorder's configuration and retention counts).
std::string RenderMetricsJson(const MetricsRegistry& registry,
                              const RequestTracer& tracer);

// /requestz payload: the request-span recorder's state and both
// retention tiers, spans expanded with kind names and each trace's
// descent section with its per-level spans —
// {"head_rate":..,"slow_threshold_ns":..,"completed":..,"retained":..,
//  "slow_retained":..,"recent":[request...],"slow":[request...]}.
// Trace ids render as the same 16-hex-digit strings used by the
// OpenMetrics exemplars, so the two surfaces join textually.
std::string RenderRequestzJson(const RequestTracer& tracer,
                               size_t max_recent = 0);

}  // namespace simdtree::obs

#endif  // SIMDTREE_OBS_EXPORT_H_
