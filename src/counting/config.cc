#include "counting/config.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pqe {

void RecordCountRun(const char* prefix, const CountStats& stats,
                    obs::ScopedSpan* span) {
  stats.ForEachField([&](const char* name, uint64_t value) {
    span->AttrUint(name, value);
  });
  span->AttrUint("canonical_rejections", stats.attempts - stats.accepted);
  auto& metrics = obs::MetricRegistry::Global();
  metrics.GetCounter(std::string(prefix) + ".runs").Increment();
  stats.ForEachField([&](const char* name, uint64_t value) {
    metrics.GetCounter(std::string(prefix) + "." + name).Add(value);
  });
  metrics.GetHistogram(std::string(prefix) + ".strata_live")
      .Observe(stats.strata_live);
  // Cross-counter hot-path counters (shared namespace so dashboards see one
  // series regardless of which counter — NFA, NFTA, Karp–Luby — ran).
  metrics.GetCounter("counting.alias_builds").Add(stats.alias_builds);
  metrics.GetCounter("counting.batch_draws").Add(stats.batch_draws);
  metrics.GetCounter("counting.runstates_memo_hits")
      .Add(stats.runstates_memo_hits);
  metrics.GetCounter("counting.runstates_memo_misses")
      .Add(stats.runstates_memo_misses);
}

size_t EstimatorConfig::ResolvePoolSize(size_t n) const {
  // The auto-sized pool's floor: small strata still get a usable sample.
  constexpr size_t kMinPoolSize = 48;
  if (pool_size > 0) return pool_size;
  const double eps = std::min(std::max(epsilon, 1e-3), 1.0);
  double m = 8.0 * static_cast<double>(std::max<size_t>(n, 1)) / (eps * eps);
  size_t resolved = static_cast<size_t>(std::ceil(m));
  resolved = std::max(resolved, kMinPoolSize);
  if (max_pool_size > 0) resolved = std::min(resolved, max_pool_size);
  return resolved;
}

std::string CountStats::ToString() const {
  std::ostringstream out;
  bool first = true;
  ForEachField([&](const char* name, uint64_t value) {
    if (!first) out << ' ';
    out << name << '=' << value;
    first = false;
  });
  return out.str();
}

void CountStats::MergeRepetition(const CountStats& rep) {
#define PQE_COUNT_STATS_SUM(field) field += rep.field;
  PQE_COUNT_STATS_FIELDS(PQE_COUNT_STATS_SUM)
#undef PQE_COUNT_STATS_SUM
  strata_total = rep.strata_total;
  strata_live = rep.strata_live;
}

}  // namespace pqe
