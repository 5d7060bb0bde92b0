// bench_compare — the perf-regression gate. Diffs a fresh bench metrics
// JSON (as written by --metrics_out) against a committed BENCH_*.json
// baseline and fails when any shared speedup gauge regressed by more than
// the threshold.
//
//   bench_compare --baseline BENCH_serving.json --fresh /tmp/fresh.json
//                 [--threshold 0.25] [--advisory] [--update-baselines]
//
// Only gauges whose name contains "speedup" are gated: they are
// ratio-of-medians within one run of one binary, so they are stable across
// machines in a way raw millisecond gauges are not. A speedup gauge present
// in the baseline but absent from the fresh run is reported as MISSING and
// fails the gate — a renamed or dropped gauge must be acknowledged by
// regenerating the baseline, not silently shrink the gated set. Comparing
// two files with no baseline speedup gauge at all is an error (a silent
// empty intersection would pass forever). --advisory prints the comparison
// but always exits 0
// (used by the sanitizer CI stages, where timings are meaningless).
// --update-baselines copies the fresh metrics file over the baseline path
// after printing the comparison — regenerating a committed BENCH_*.json
// after an intentional perf change is one command instead of hand-editing —
// and exits 0 (an update acknowledges the change instead of gating on it).
// When the two files carry different "host" stamps (hardware threads,
// compiler, build type; obs::WriteMetricsJsonFile) both are printed as a
// note; the stamps never change what is gated or the exit code.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

struct GaugeReading {
  std::string name;
  double value = 0.0;
};

struct BenchFile {
  std::vector<GaugeReading> gauges;
  std::string host;  // the "host" stamp as key=value pairs, or "" if none
};

// The "host" object as one line of key=value pairs.
std::string FormatHost(const pqe::obs::JsonValue& host) {
  std::string out;
  for (const auto& [key, value] : host.Members()) {
    if (!out.empty()) out += ' ';
    out += key + '=';
    if (value.is_string()) {
      out += value.AsString();
    } else if (value.is_number()) {
      char number[32];
      std::snprintf(number, sizeof(number), "%g", value.AsNumber());
      out += number;
    }
  }
  return out;
}

// Pulls {"metrics":{"gauges":{...}}} and the "host" stamp out of a
// metrics-export document.
pqe::Result<BenchFile> LoadBenchFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return pqe::Status::InvalidArgument("cannot open " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  PQE_ASSIGN_OR_RETURN(pqe::obs::JsonValue doc,
                       pqe::obs::ParseJson(buffer.str()));
  const pqe::obs::JsonValue* metrics = doc.Find("metrics");
  if (metrics == nullptr) {
    return pqe::Status::InvalidArgument(path + ": no \"metrics\" object");
  }
  const pqe::obs::JsonValue* gauges = metrics->Find("gauges");
  if (gauges == nullptr || !gauges->is_object()) {
    return pqe::Status::InvalidArgument(path + ": no \"gauges\" object");
  }
  BenchFile out;
  for (const auto& [name, value] : gauges->Members()) {
    if (!value.is_number()) continue;
    out.gauges.push_back({name, value.AsNumber()});
  }
  const pqe::obs::JsonValue* host = doc.Find("host");
  if (host != nullptr && host->is_object()) out.host = FormatHost(*host);
  return out;
}

const GaugeReading* Find(const std::vector<GaugeReading>& gauges,
                         const std::string& name) {
  for (const GaugeReading& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

void Usage() {
  std::fprintf(stderr,
               "usage: bench_compare --baseline FILE --fresh FILE\n"
               "                     [--threshold R] [--advisory]\n"
               "                     [--update-baselines]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string fresh_path;
  double threshold = 0.25;
  bool advisory = false;
  bool update_baselines = false;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline_path = need_value("--baseline");
    } else if (std::strcmp(argv[i], "--fresh") == 0) {
      fresh_path = need_value("--fresh");
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      threshold = std::atof(need_value("--threshold"));
    } else if (std::strcmp(argv[i], "--advisory") == 0) {
      advisory = true;
    } else if (std::strcmp(argv[i], "--update-baselines") == 0) {
      update_baselines = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (baseline_path.empty() || fresh_path.empty()) {
    Usage();
    return 2;
  }

  auto baseline = LoadBenchFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 2;
  }
  auto fresh = LoadBenchFile(fresh_path);
  if (!fresh.ok()) {
    std::fprintf(stderr, "%s\n", fresh.status().ToString().c_str());
    return 2;
  }
  if (baseline->host != fresh->host) {
    std::printf("note: host differs (not gated)\n  baseline: %s\n"
                "  fresh:    %s\n",
                baseline->host.empty() ? "(no stamp)"
                                       : baseline->host.c_str(),
                fresh->host.empty() ? "(no stamp)" : fresh->host.c_str());
  }

  size_t compared = 0;
  size_t regressed = 0;
  size_t missing = 0;
  for (const GaugeReading& base : baseline->gauges) {
    if (base.name.find("speedup") == std::string::npos) continue;
    const GaugeReading* now = Find(fresh->gauges, base.name);
    if (now == nullptr) {
      ++missing;
      std::printf("MISSING %s: baseline %.2f, absent from fresh run\n",
                  base.name.c_str(), base.value);
      continue;
    }
    ++compared;
    const double floor = base.value * (1.0 - threshold);
    const bool bad = base.value > 0.0 && now->value < floor;
    std::printf("%s %s: baseline %.2f, fresh %.2f (floor %.2f)\n",
                bad ? "REGRESSED" : "ok", base.name.c_str(), base.value,
                now->value, floor);
    if (bad) ++regressed;
  }

  if (compared == 0 && missing == 0) {
    std::fprintf(stderr,
                 "bench_compare: no speedup gauges in baseline %s "
                 "— wrong baseline file?\n",
                 baseline_path.c_str());
    return 2;
  }
  std::printf("bench_compare: %zu gauges compared, %zu regressed, "
              "%zu missing from fresh (threshold %.0f%%)%s\n",
              compared, regressed, missing, threshold * 100.0,
              advisory ? " [advisory]" : "");
  if (update_baselines) {
    std::ifstream src(fresh_path, std::ios::binary);
    std::ofstream dst(baseline_path, std::ios::binary | std::ios::trunc);
    if (!src.is_open() || !dst.is_open()) {
      std::fprintf(stderr, "bench_compare: cannot copy %s -> %s\n",
                   fresh_path.c_str(), baseline_path.c_str());
      return 2;
    }
    dst << src.rdbuf();
    if (!dst.good()) {
      std::fprintf(stderr, "bench_compare: write to %s failed\n",
                   baseline_path.c_str());
      return 2;
    }
    std::printf("bench_compare: baseline %s updated from %s\n",
                baseline_path.c_str(), fresh_path.c_str());
    return 0;
  }
  if (advisory) return 0;
  return regressed == 0 && missing == 0 ? 0 : 1;
}
