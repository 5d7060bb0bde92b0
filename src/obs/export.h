#ifndef PQE_OBS_EXPORT_H_
#define PQE_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace pqe {
namespace obs {

/// A minimal streaming JSON writer (hand-rolled; the library takes no
/// third-party dependencies). Tracks nesting and comma placement; the caller
/// supplies a well-formed Begin/End/Key sequence. Strings are escaped per
/// RFC 8259; non-finite doubles serialize as null (JSON has no NaN/Inf).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// The document built so far; resets the writer.
  std::string Take();

 private:
  void BeforeValue();
  std::string out_;
  // One entry per open container: true once a child was emitted (a comma is
  // needed before the next one).
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

/// Appends `text` to `out` with JSON string escaping (no surrounding quotes).
void JsonEscape(std::string_view text, std::string* out);

/// Serializes a trace as {"trace": {span}} where each span object is
/// {"name", "start_ns", "dur_ns", "attrs": {...}, "spans": [...]}.
/// Schema documented in docs/observability.md.
std::string TraceToJson(const RunTrace& trace);

/// Serializes just the span tree (the value of the "trace" key above).
void WriteSpanJson(const TraceSpan& span, JsonWriter* writer);

/// Human-readable indented rendering of a trace for terminal output.
std::string RenderTraceText(const RunTrace& trace);

/// Serializes a metrics snapshot as
/// {"metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}}.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Serializes a metrics snapshot in OpenMetrics text exposition format
/// (Prometheus-compatible): dotted metric names are sanitized to
/// [a-zA-Z0-9_:], counters get the `_total` suffix, histograms emit
/// cumulative `_bucket{le="..."}` samples ending in `le="+Inf"` plus `_sum`
/// and `_count`, and the document terminates with `# EOF`.
std::string MetricsToOpenMetrics(const MetricsSnapshot& snapshot);

/// Sanitizes a dotted metric name into an OpenMetrics identifier: every
/// character outside [a-zA-Z0-9_:] becomes '_', and a leading digit gets a
/// '_' prefix.
std::string OpenMetricsName(std::string_view name);

/// Serializes any stats struct exposing
/// `ForEachField(fn(const char* name, uint64-convertible value))` as a flat
/// JSON object — the single serialization point that keeps exports in sync
/// with the struct definition (see CountStats in counting/config.h).
template <typename Stats>
std::string StatsToJson(const Stats& stats) {
  JsonWriter writer;
  writer.BeginObject();
  stats.ForEachField([&writer](const char* name, uint64_t value) {
    writer.Key(name).Uint(value);
  });
  writer.EndObject();
  return writer.Take();
}

/// Removes a `--metrics_out=FILE` argument from argv (if present) and
/// returns FILE ("" when absent). Call before any other flag parsing; pairs
/// with WriteMetricsJsonFile at exit. Shared by the bench binaries.
std::string ConsumeMetricsOutFlag(int* argc, char** argv);

/// Writes the registry's snapshot as JSON to `path` (atomically enough for
/// bench consumption: truncate + write + close): the MetricsToJson document
/// plus a top-level "host" object — hardware_threads, compiler_id,
/// compiler_version and build_type — naming where the numbers were taken.
Status WriteMetricsJsonFile(const std::string& path,
                            const MetricRegistry& registry =
                                MetricRegistry::Global());

}  // namespace obs
}  // namespace pqe

#endif  // PQE_OBS_EXPORT_H_
