#ifndef PQE_SERVE_WORKLOAD_H_
#define PQE_SERVE_WORKLOAD_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "pdb/probabilistic_database.h"
#include "serve/prepared_query.h"
#include "util/result.h"

namespace pqe {
namespace serve {

class PqeService;

/// One captured request, serialized as a single JSONL line. The record
/// carries everything a replay needs to re-execute the request bit-
/// identically against the same data (query text, effective seed/epsilon/
/// method) plus fingerprints of the inputs the file does NOT carry — the
/// probability labelling and the service's engine config — so a replay can
/// detect when it is being pointed at drifted inputs instead of silently
/// comparing incomparable runs. 64-bit hashes and seeds are stored as hex
/// strings (JSON numbers only round-trip 53 bits); doubles are written with
/// max_digits10, so the recorded probability compares bit-exactly.
struct WorkloadRecord {
  uint64_t request_id = 0;
  /// "query" | "rpq" | "union" | "ur" | "update"
  std::string target = "query";
  /// Rendered text ("" when not renderable): ConjunctiveQuery::ToString for
  /// "query", the canonical regex (RpqQuery::Canonical) for "rpq".
  std::string query;
  /// For target == "update": the applied delta as "FACT=NUM/DEN,..."
  /// (FormatLabelDelta). labelling_hash then fingerprints the labels AFTER
  /// the update, so a replay can verify it reproduced the same state.
  std::string update_spec;
  uint64_t labelling_hash = 0;   // HashLabelling of the request's pdb
  uint64_t config_hash = 0;      // HashEngineConfig of the serving defaults
  std::string method;            // effective method ("auto" = engine resolves)
  double epsilon = 0.0;          // effective epsilon
  uint64_t seed = 0;             // effective seed (explicit or derived)
  uint64_t deadline_ms = 0;
  std::string status = "ok";     // "ok" | "deadline_exceeded" | "error"
  double probability = 0.0;      // the recorded answer (valid when "ok")
};

/// One JSONL line (no trailing newline).
std::string FormatWorkloadRecord(const WorkloadRecord& record);

/// Parses one JSONL line produced by FormatWorkloadRecord.
Result<WorkloadRecord> ParseWorkloadRecord(std::string_view line);

/// Loads every record of a capture file (blank lines skipped).
Result<std::vector<WorkloadRecord>> LoadWorkloadFile(const std::string& path);

/// Renders a LabelDelta as "FACT=NUM/DEN,FACT=NUM/DEN,..." — the update
/// spec stored in capture files and accepted by pqe_cli --update.
std::string FormatLabelDelta(const LabelDelta& delta);

/// Parses a FormatLabelDelta spec back into a LabelDelta.
Result<LabelDelta> ParseLabelDeltaSpec(std::string_view spec);

/// FNV-1a over the pdb's per-fact probabilities (num, den in FactId order).
/// Identifies a labelling: equal hashes mean the replay binds the same
/// weights the capture did.
uint64_t HashLabelling(const ProbabilisticDatabase& pdb);

/// FNV-1a over the engine options that steer an evaluation but are NOT
/// recorded per line (max_width, enumeration_threshold, pool sizing,
/// repetitions), plus a constant naming the sampler's draw scheme, so
/// captures recorded under an earlier sampler replay as config drift rather
/// than as mismatches. method/epsilon/seed are excluded — each record
/// carries its own effective values. num_threads and tracing are excluded by
/// the determinism contract (they never change answers).
uint64_t HashEngineConfig(const PqeEngine::Options& options);

/// Thread-safe JSONL appender; one line per Record() call, flushed eagerly
/// so captures survive a crash of the serving process.
class WorkloadRecorder {
 public:
  static Result<std::unique_ptr<WorkloadRecorder>> Open(
      const std::string& path);
  ~WorkloadRecorder();

  WorkloadRecorder(const WorkloadRecorder&) = delete;
  WorkloadRecorder& operator=(const WorkloadRecorder&) = delete;

  void Record(const WorkloadRecord& record);

 private:
  explicit WorkloadRecorder(std::FILE* file) : file_(file) {}
  std::mutex mu_;
  std::FILE* file_;
};

/// The outcome of replaying a capture. `mismatched == 0` (with `replayed >
/// 0`) is the whole-pipeline regression oracle: the determinism contract
/// says a replayed request must reproduce its recorded answer bit for bit,
/// so any mismatch means the pipeline changed behavior.
struct ReplayReport {
  size_t total = 0;            // records in the file
  size_t replayed = 0;         // re-executed and compared
  size_t matched = 0;          // probability bit-identical to the record
  size_t mismatched = 0;
  size_t skipped_status = 0;   // recorded status wasn't "ok"
  size_t skipped_target = 0;   // non-replayable targets ("union", "ur")
  size_t labelling_drift = 0;  // pdb labels differ from the capture's
  size_t config_drift = 0;     // engine defaults differ; ran, not compared
  size_t parse_failures = 0;   // query text no longer parses
  size_t updates_applied = 0;  // "update" records replayed through
                               // PqeService::ApplyUpdate
  size_t update_failures = 0;  // update specs that failed to parse or apply
  /// Human-readable descriptions of the first few mismatches.
  std::vector<std::string> mismatch_details;

  bool Clean() const {
    return mismatched == 0 && parse_failures == 0 && update_failures == 0;
  }
  std::string Summary() const;
};

/// Re-executes a capture against `service` + `pdb` (deadlines stripped —
/// replay measures answers, not timeouts) and bit-compares each answered
/// probability with its record. "update" records segment the replay: the
/// queries before each update run as one batch against the labels in force,
/// the update is applied through PqeService::ApplyUpdate to a private copy
/// of `pdb` (the caller's object is never mutated), and later queries see
/// the updated labels — so update-heavy captures replay bit-identically
/// too. Records whose labelling or config fingerprints don't match the
/// replay environment are counted as drift: config-drifted records still
/// run (their per-record seed/epsilon make them mostly comparable, but they
/// are not counted as matches), while labelling-drifted records are not
/// compared at all.
Result<ReplayReport> ReplayWorkload(const PqeService& service,
                                    const ProbabilisticDatabase& pdb,
                                    const std::vector<WorkloadRecord>& records);

}  // namespace serve
}  // namespace pqe

#endif  // PQE_SERVE_WORKLOAD_H_
