#include <algorithm>

#include "engine/hierarchy_view.hpp"
#include "workloads.hpp"

namespace perfbench {

double viewBuildMs(const dic::layout::Library& lib, dic::layout::CellId root,
                   int reps) {
  std::vector<double> ms;
  for (int k = 0; k < reps; ++k) {
    const auto t0 = Clock::now();
    dic::engine::HierarchyView view(lib, root);
    view.placements();
    view.prepare(false);
    view.prepare(true);
    ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
  }
  return median(ms);
}

std::vector<double> Pass::sliceRps() const {
  std::vector<double> t = doneAtS;
  std::sort(t.begin(), t.end());
  const std::size_t n = t.size(), count = slices();
  if (n < count || t.back() <= 0)
    return {wallS > 0 ? static_cast<double>(n) / wallS : 0};
  std::vector<double> rates;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lo = k * n / count, hi = (k + 1) * n / count;
    const double t0 = lo == 0 ? 0.0 : t[lo - 1];
    const double dt = t[hi - 1] - t0;
    if (dt > 0) rates.push_back(static_cast<double>(hi - lo) / dt);
  }
  return rates;
}

double Pass::throughputRps() const {
  return wallS > 0 ? static_cast<double>(doneAtS.size()) / wallS : 0;
}

double Pass::tailLatencyMs() const {
  return percentile(latencyMs, tailPercentile(latencyMs.size()));
}

std::vector<double> Pass::sliceTailMs() const {
  const std::size_t per = latencyMs.size() / slices();
  if (per == 0) return {0};
  std::vector<double> tails;
  for (std::size_t k = 0; k < slices(); ++k) {
    const auto first = latencyMs.begin() + static_cast<std::ptrdiff_t>(k * per);
    tails.push_back(percentile(std::vector<double>(first, first + static_cast<std::ptrdiff_t>(per)),
                               tailPercentile(per)));
  }
  return tails;
}

void beginTracing(std::size_t requests) {
  dic::obs::Tracer& t = dic::obs::Tracer::instance();
  t.setCapacity(std::clamp<std::size_t>(requests * 32 + 4096, 1u << 16,
                                        1u << 21));
  t.clear();
  t.setEnabled(true);
}

void endTracing(Pass& p) {
  dic::obs::Tracer& t = dic::obs::Tracer::instance();
  t.setEnabled(false);
  p.spans = t.snapshot();
  p.spansDropped = t.dropped();
  t.setCapacity(1u << 16);  // release the ring
}

void countResult(Pass& p, const dic::CheckResult& r) {
  ++p.results;
  if (r.viewCacheHit) ++p.viewHits;
  switch (r.kind) {
    case dic::CheckKind::kHierarchicalDrc:
      ++p.drcRequests;
      if (r.incrementalHit) ++p.incrementalHits;
      p.candidatePairs += r.interactionStats.candidatePairs;
      p.distanceChecks += r.interactionStats.distanceChecks;
      [[fallthrough]];
    case dic::CheckKind::kErc:
    case dic::CheckKind::kNetlistOnly:
      ++p.netlistConsumers;
      if (r.netlistCacheHit) ++p.netlistHits;
      break;
    case dic::CheckKind::kFlatBaselineDrc:
      p.baselineMs.push_back(r.seconds * 1e3);
      break;
  }
}

}  // namespace perfbench
