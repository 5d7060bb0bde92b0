#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

namespace pqe {
namespace obs {

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  if (!needs_comma_.empty() && needs_comma_.back()) out_.push_back(',');
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  out_.push_back('"');
  JsonEscape(key, &out_);
  out_.append("\":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  JsonEscape(value, &out_);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_.append(std::to_string(value));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_.append("null");
    return *this;
  }
  // max_digits10 precision: a correctly-rounding reader (strtod, ParseJson)
  // recovers the exact bit pattern, which the workload replay oracle and
  // bench_compare rely on.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  out_.append(buf);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

std::string JsonWriter::Take() {
  std::string result = std::move(out_);
  out_.clear();
  needs_comma_.clear();
  pending_key_ = false;
  return result;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // comma was handled by Key()
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_.push_back(',');
    needs_comma_.back() = true;
  }
}

void JsonEscape(std::string_view text, std::string* out) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void WriteSpanJson(const TraceSpan& span, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("name").String(span.name);
  writer->Key("start_ns").Uint(span.start_ns);
  writer->Key("dur_ns").Uint(span.duration_ns);
  if (!span.attrs.empty()) {
    writer->Key("attrs").BeginObject();
    for (const TraceAttr& attr : span.attrs) {
      writer->Key(attr.key);
      switch (attr.kind) {
        case TraceAttr::Kind::kUint:
          writer->Uint(attr.u);
          break;
        case TraceAttr::Kind::kInt:
          writer->Int(attr.i);
          break;
        case TraceAttr::Kind::kFloat:
          writer->Double(attr.f);
          break;
        case TraceAttr::Kind::kText:
          writer->String(attr.text);
          break;
      }
    }
    writer->EndObject();
  }
  if (!span.children.empty()) {
    writer->Key("spans").BeginArray();
    for (const TraceSpan& child : span.children) {
      WriteSpanJson(child, writer);
    }
    writer->EndArray();
  }
  writer->EndObject();
}

std::string TraceToJson(const RunTrace& trace) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("trace");
  WriteSpanJson(trace.root, &writer);
  writer.EndObject();
  return writer.Take();
}

namespace {

void RenderSpanText(const TraceSpan& span, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  out->append(span.name);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  %.3f ms",
                static_cast<double>(span.duration_ns) / 1e6);
  out->append(buf);
  for (const TraceAttr& attr : span.attrs) {
    out->push_back(' ');
    out->append(attr.key);
    out->push_back('=');
    switch (attr.kind) {
      case TraceAttr::Kind::kUint:
        out->append(std::to_string(attr.u));
        break;
      case TraceAttr::Kind::kInt:
        out->append(std::to_string(attr.i));
        break;
      case TraceAttr::Kind::kFloat:
        std::snprintf(buf, sizeof(buf), "%g", attr.f);
        out->append(buf);
        break;
      case TraceAttr::Kind::kText:
        out->append(attr.text);
        break;
    }
  }
  out->push_back('\n');
  for (const TraceSpan& child : span.children) {
    RenderSpanText(child, depth + 1, out);
  }
}

}  // namespace

std::string RenderTraceText(const RunTrace& trace) {
  std::string out;
  RenderSpanText(trace.root, 0, &out);
  return out;
}

namespace {

// The "metrics" member of a metrics document.
void WriteMetrics(const MetricsSnapshot& snapshot, JsonWriter* out) {
  JsonWriter& writer = *out;
  writer.Key("metrics").BeginObject();
  writer.Key("counters").BeginObject();
  for (const auto& e : snapshot.counters) {
    writer.Key(e.name).Uint(e.value);
  }
  writer.EndObject();
  writer.Key("gauges").BeginObject();
  for (const auto& e : snapshot.gauges) {
    writer.Key(e.name).Double(e.value);
  }
  writer.EndObject();
  writer.Key("histograms").BeginObject();
  for (const auto& e : snapshot.histograms) {
    writer.Key(e.name).BeginObject();
    writer.Key("count").Uint(e.count);
    writer.Key("sum").Uint(e.sum);
    writer.Key("buckets").BeginArray();
    for (const auto& [le, count] : e.buckets) {
      writer.BeginObject();
      writer.Key("le").Uint(le);
      writer.Key("count").Uint(count);
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
}

// Where the numbers were taken: bench_compare prints this stamp for both
// files when a baseline and a fresh run come from different hosts or
// builds. src/CMakeLists.txt defines the PQE_COMPILER_* and PQE_BUILD_TYPE
// strings for this file.
void WriteHost(JsonWriter* writer) {
  writer->Key("host").BeginObject();
  writer->Key("hardware_threads").Uint(std::thread::hardware_concurrency());
  writer->Key("compiler_id").String(PQE_COMPILER_ID);
  writer->Key("compiler_version").String(PQE_COMPILER_VERSION);
  writer->Key("build_type").String(PQE_BUILD_TYPE);
  writer->EndObject();
}

}  // namespace

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  JsonWriter writer;
  writer.BeginObject();
  WriteMetrics(snapshot, &writer);
  writer.EndObject();
  return writer.Take();
}

std::string OpenMetricsName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

namespace {

// One "%.*g" double in OpenMetrics sample syntax (no JSON null fallback:
// exposition uses literal NaN/Inf spellings, though our metrics never emit
// them in practice).
void AppendOmDouble(double value, std::string* out) {
  if (std::isnan(value)) {
    out->append("NaN");
    return;
  }
  if (std::isinf(value)) {
    out->append(value > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, value);
  out->append(buf);
}

}  // namespace

std::string MetricsToOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& e : snapshot.counters) {
    std::string name = OpenMetricsName(e.name);
    // OpenMetrics: the counter sample is <family>_total, and the family name
    // itself must not end in _total — strip one if the source name has it.
    constexpr std::string_view kTotal = "_total";
    if (name.size() > kTotal.size() &&
        name.compare(name.size() - kTotal.size(), kTotal.size(), kTotal) ==
            0) {
      name.resize(name.size() - kTotal.size());
    }
    out.append("# TYPE ").append(name).append(" counter\n");
    out.append(name).append("_total ").append(std::to_string(e.value));
    out.push_back('\n');
  }
  for (const auto& e : snapshot.gauges) {
    const std::string name = OpenMetricsName(e.name);
    out.append("# TYPE ").append(name).append(" gauge\n");
    out.append(name).push_back(' ');
    AppendOmDouble(e.value, &out);
    out.push_back('\n');
  }
  for (const auto& e : snapshot.histograms) {
    const std::string name = OpenMetricsName(e.name);
    out.append("# TYPE ").append(name).append(" histogram\n");
    uint64_t cumulative = 0;
    for (const auto& [le, count] : e.buckets) {
      cumulative += count;
      out.append(name).append("_bucket{le=\"");
      out.append(std::to_string(le));
      out.append("\"} ").append(std::to_string(cumulative));
      out.push_back('\n');
    }
    out.append(name).append("_bucket{le=\"+Inf\"} ");
    out.append(std::to_string(e.count));
    out.push_back('\n');
    out.append(name).append("_sum ").append(std::to_string(e.sum));
    out.push_back('\n');
    out.append(name).append("_count ").append(std::to_string(e.count));
    out.push_back('\n');
  }
  out.append("# EOF\n");
  return out;
}

std::string ConsumeMetricsOutFlag(int* argc, char** argv) {
  static constexpr char kPrefix[] = "--metrics_out=";
  std::string path;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strncmp(argv[r], kPrefix, sizeof(kPrefix) - 1) == 0) {
      path = argv[r] + sizeof(kPrefix) - 1;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  argv[w] = nullptr;
  return path;
}

Status WriteMetricsJsonFile(const std::string& path,
                            const MetricRegistry& registry) {
  JsonWriter writer;
  writer.BeginObject();
  WriteMetrics(registry.Snapshot(), &writer);
  WriteHost(&writer);
  writer.EndObject();
  const std::string json = writer.Take();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open metrics output file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool newline_ok = std::fputc('\n', f) != EOF;
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !newline_ok || !close_ok) {
    return Status::Internal("short write to metrics output file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace pqe
