#include "serve/workload.h"

#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <utility>

#include "cq/parser.h"
#include "obs/export.h"
#include "obs/json.h"
#include "rpq/regex.h"
#include "serve/service.h"
#include "util/parse.h"

namespace pqe {
namespace serve {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= kFnvPrime;
}

std::string ToHex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

uint64_t FromHex(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

// Missing keys come back as the zero value — old captures with fewer fields
// stay loadable.
std::string GetString(const obs::JsonValue& obj, std::string_view key) {
  const obs::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::string();
}

double GetNumber(const obs::JsonValue& obj, std::string_view key) {
  const obs::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
}

uint64_t GetHex(const obs::JsonValue& obj, std::string_view key) {
  const obs::JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? FromHex(v->AsString()) : 0;
}

Result<PqeMethod> MethodFromString(const std::string& name) {
  for (PqeMethod m : kAllPqeMethods) {
    if (name == PqeMethodToString(m)) return m;
  }
  return Status::InvalidArgument("unknown method in workload record: " +
                                 name);
}

}  // namespace

std::string FormatWorkloadRecord(const WorkloadRecord& record) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("request_id").Uint(record.request_id);
  w.Key("target").String(record.target);
  w.Key("query").String(record.query);
  if (!record.update_spec.empty()) {
    w.Key("update_spec").String(record.update_spec);
  }
  w.Key("labelling_hash").String(ToHex(record.labelling_hash));
  w.Key("config_hash").String(ToHex(record.config_hash));
  w.Key("method").String(record.method);
  w.Key("epsilon").Double(record.epsilon);
  w.Key("seed").String(ToHex(record.seed));
  w.Key("deadline_ms").Uint(record.deadline_ms);
  w.Key("status").String(record.status);
  w.Key("probability").Double(record.probability);
  w.EndObject();
  return w.Take();
}

Result<WorkloadRecord> ParseWorkloadRecord(std::string_view line) {
  PQE_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("workload record is not a JSON object");
  }
  WorkloadRecord r;
  r.request_id = doc.Find("request_id") != nullptr
                     ? doc.Find("request_id")->AsUint()
                     : 0;
  r.target = GetString(doc, "target");
  if (r.target.empty()) r.target = "query";
  r.query = GetString(doc, "query");
  r.update_spec = GetString(doc, "update_spec");
  r.labelling_hash = GetHex(doc, "labelling_hash");
  r.config_hash = GetHex(doc, "config_hash");
  r.method = GetString(doc, "method");
  // A "kernels" key (written by earlier versions, which had two sampling
  // tiers) is ignored: those captures carry an older config_hash, so they
  // replay as config drift.
  r.epsilon = GetNumber(doc, "epsilon");
  r.seed = GetHex(doc, "seed");
  r.deadline_ms =
      static_cast<uint64_t>(GetNumber(doc, "deadline_ms"));
  r.status = GetString(doc, "status");
  r.probability = GetNumber(doc, "probability");
  return r;
}

Result<std::vector<WorkloadRecord>> LoadWorkloadFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::InvalidArgument("cannot open workload file: " + path);
  }
  std::vector<WorkloadRecord> records;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto record = ParseWorkloadRecord(line);
    if (!record.ok()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(lineno) + ": " +
          record.status().message());
    }
    records.push_back(std::move(*record));
  }
  return records;
}

std::string FormatLabelDelta(const LabelDelta& delta) {
  std::string out;
  for (size_t i = 0; i < delta.facts.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(delta.facts[i]);
    out += '=';
    out += std::to_string(delta.new_probs[i].num);
    out += '/';
    out += std::to_string(delta.new_probs[i].den);
  }
  return out;
}

Result<LabelDelta> ParseLabelDeltaSpec(std::string_view spec) {
  LabelDelta delta;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string entry(spec.substr(pos, end - pos));
    const size_t eq = entry.find('=');
    const size_t slash = entry.find('/', eq == std::string::npos ? 0 : eq);
    if (eq == std::string::npos || slash == std::string::npos) {
      return Status::InvalidArgument(
          "bad update entry '" + entry + "' (expected FACT=NUM/DEN)");
    }
    // Strict digit runs for all three fields: strtoull would accept
    // "-1" (wrapping to 2^64-1) and leading whitespace or trailing junk,
    // turning a typo'd spec into a silent huge fact id or numerator.
    uint64_t fact_raw = 0;
    Probability p;
    if (!ParseStrictUint64(entry.substr(0, eq), &fact_raw) ||
        !ParseStrictUint64(entry.substr(eq + 1, slash - eq - 1), &p.num) ||
        !ParseStrictUint64(entry.substr(slash + 1), &p.den)) {
      return Status::InvalidArgument(
          "bad update entry '" + entry +
          "' (FACT, NUM, DEN must be plain unsigned integers)");
    }
    const FactId fact = static_cast<FactId>(fact_raw);
    if (p.den == 0 || p.num > p.den) {
      return Status::InvalidArgument("bad probability in update entry '" +
                                     entry + "'");
    }
    delta.facts.push_back(fact);
    delta.new_probs.push_back(p);
    pos = end + 1;
  }
  if (delta.facts.empty()) {
    return Status::InvalidArgument("empty update spec");
  }
  return delta;
}

uint64_t HashLabelling(const ProbabilisticDatabase& pdb) {
  uint64_t h = kFnvOffset;
  Mix(&h, pdb.NumFacts());
  for (FactId f = 0; f < pdb.NumFacts(); ++f) {
    const Probability p = pdb.probability(f);
    Mix(&h, p.num);
    Mix(&h, p.den);
  }
  return h;
}

uint64_t HashEngineConfig(const PqeEngine::Options& options) {
  // The sampler's draw scheme (alias-table picks over block-generated RNG
  // words; generation 3: the forest views and the string counter's unary
  // encoding onto CountNFTA). Bump it whenever a change moves answer bits
  // at fixed options.
  constexpr uint64_t kSamplerGeneration = 3;
  uint64_t h = kFnvOffset;
  Mix(&h, kSamplerGeneration);
  Mix(&h, options.max_width);
  Mix(&h, options.enumeration_threshold);
  Mix(&h, options.pool_size);
  Mix(&h, options.max_pool_size);
  Mix(&h, options.repetitions);
  Mix(&h, options.rpq_clause_budget);
  return h;
}

Result<std::unique_ptr<WorkloadRecorder>> WorkloadRecorder::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open capture file: " + path);
  }
  return std::unique_ptr<WorkloadRecorder>(new WorkloadRecorder(f));
}

WorkloadRecorder::~WorkloadRecorder() {
  if (file_ != nullptr) std::fclose(file_);
}

void WorkloadRecorder::Record(const WorkloadRecord& record) {
  const std::string line = FormatWorkloadRecord(record);
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

std::string ReplayReport::Summary() const {
  std::string out;
  out += "replay: " + std::to_string(total) + " records, " +
         std::to_string(replayed) + " replayed, " +
         std::to_string(matched) + " matched, " +
         std::to_string(mismatched) + " mismatched";
  if (skipped_status > 0) {
    out += ", " + std::to_string(skipped_status) + " skipped (status)";
  }
  if (skipped_target > 0) {
    out += ", " + std::to_string(skipped_target) + " skipped (target)";
  }
  if (labelling_drift > 0) {
    out += ", " + std::to_string(labelling_drift) + " labelling drift";
  }
  if (config_drift > 0) {
    out += ", " + std::to_string(config_drift) + " config drift";
  }
  if (parse_failures > 0) {
    out += ", " + std::to_string(parse_failures) + " parse failures";
  }
  if (updates_applied > 0) {
    out += ", " + std::to_string(updates_applied) + " updates applied";
  }
  if (update_failures > 0) {
    out += ", " + std::to_string(update_failures) + " update failures";
  }
  return out;
}

Result<ReplayReport> ReplayWorkload(
    const PqeService& service, const ProbabilisticDatabase& pdb,
    const std::vector<WorkloadRecord>& records) {
  constexpr size_t kMaxMismatchDetails = 8;
  ReplayReport report;
  report.total = records.size();

  // Updates mutate labels as the capture replays; they apply to a private
  // copy so the caller's pdb is never touched. Requests point at this one
  // object — SetProbability mutates in place, so the address is stable.
  ProbabilisticDatabase current = pdb;
  uint64_t labelling = HashLabelling(current);
  const uint64_t config = HashEngineConfig(service.options().engine);

  // Queries live in deques (stable addresses) for the whole replay; the
  // parallel index maps each request back to its record.
  std::deque<ConjunctiveQuery> queries;
  std::deque<rpq::RpqQuery> rpqs;
  std::vector<EvalRequest> requests;
  std::vector<const WorkloadRecord*> request_records;
  std::vector<bool> comparable;

  // Runs the queries accumulated since the last update as one batch and
  // bit-compares each answer with its record.
  auto FlushBatch = [&]() {
    if (requests.empty()) return;
    const std::vector<EvalResponse> responses =
        service.EvaluateBatch(requests);
    for (size_t i = 0; i < responses.size(); ++i) {
      if (!comparable[i]) continue;
      const WorkloadRecord& r = *request_records[i];
      const EvalResponse& resp = responses[i];
      ++report.replayed;
      // Bit-exact comparison (memcmp, not ==): the determinism contract is
      // about bit patterns, and it must hold for ±0.0 and NaN too.
      if (resp.status.ok() &&
          std::memcmp(&resp.answer.probability, &r.probability,
                      sizeof(double)) == 0) {
        ++report.matched;
      } else {
        ++report.mismatched;
        if (report.mismatch_details.size() < kMaxMismatchDetails) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "request %llu: recorded %.17g, replayed %.17g (%s)",
                        static_cast<unsigned long long>(r.request_id),
                        r.probability,
                        resp.status.ok() ? resp.answer.probability : 0.0,
                        resp.status.ok() ? "answer mismatch"
                                         : resp.status.message().c_str());
          report.mismatch_details.push_back(buf);
        }
      }
    }
    requests.clear();
    request_records.clear();
    comparable.clear();
  };

  for (const WorkloadRecord& r : records) {
    if (r.target == "update") {
      // Updates segment the replay: everything captured before the update
      // must run against the pre-update labels.
      FlushBatch();
      auto ApplyOne = [&]() -> Status {
        PQE_ASSIGN_OR_RETURN(LabelDelta delta,
                             ParseLabelDeltaSpec(r.update_spec));
        PQE_ASSIGN_OR_RETURN(PqeService::UpdateStats stats,
                             service.ApplyUpdate(&current, delta));
        (void)stats;
        return Status::OK();
      };
      const Status applied = ApplyOne();
      if (!applied.ok()) {
        ++report.update_failures;
        if (report.mismatch_details.size() < kMaxMismatchDetails) {
          report.mismatch_details.push_back("update record failed: " +
                                            applied.message());
        }
        continue;
      }
      ++report.updates_applied;
      labelling = HashLabelling(current);
      // The capture recorded the post-update labels; drift here means the
      // replay diverged from the captured update sequence.
      if (r.labelling_hash != 0 && r.labelling_hash != labelling) {
        ++report.labelling_drift;
      }
      continue;
    }
    if (r.target != "query" && r.target != "rpq") {
      ++report.skipped_target;
      continue;
    }
    if (r.status != "ok") {
      ++report.skipped_status;
      continue;
    }
    if (r.labelling_hash != labelling) {
      ++report.labelling_drift;
      continue;
    }
    std::optional<EvalRequest> parsed;
    if (r.target == "rpq") {
      auto rq = rpq::RpqQuery::Parse(r.query);
      if (rq.ok()) {
        rpqs.push_back(rq.MoveValue());
        parsed = EvalRequest::ForRpq(rpqs.back(), current);
      } else {
        ++report.parse_failures;
        if (report.mismatch_details.size() < kMaxMismatchDetails) {
          report.mismatch_details.push_back(
              "request " + std::to_string(r.request_id) +
              ": rpq no longer parses: " + rq.status().message());
        }
        continue;
      }
    } else {
      auto query = ParseQuery(current.database().schema(), r.query);
      if (!query.ok()) {
        ++report.parse_failures;
        if (report.mismatch_details.size() < kMaxMismatchDetails) {
          report.mismatch_details.push_back(
              "request " + std::to_string(r.request_id) +
              ": query no longer parses: " + query.status().message());
        }
        continue;
      }
      queries.push_back(std::move(*query));
      parsed = EvalRequest::ForQuery(queries.back(), current);
    }
    bool is_comparable = true;
    if (r.config_hash != config) {
      ++report.config_drift;
      is_comparable = false;
    }
    EvalRequest req = *parsed;
    req.request_id = r.request_id;
    req.seed = r.seed;
    req.epsilon = r.epsilon;
    if (!r.method.empty()) {
      PQE_ASSIGN_OR_RETURN(PqeMethod m, MethodFromString(r.method));
      req.method = m;
    }
    // No deadline: replay verifies answers, not timing.
    requests.push_back(req);
    request_records.push_back(&r);
    comparable.push_back(is_comparable);
  }
  FlushBatch();
  return report;
}

}  // namespace serve
}  // namespace pqe
