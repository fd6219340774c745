#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dic {
namespace obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty())
    throw std::logic_error("Histogram: bounds must be non-empty");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::logic_error("Histogram: bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  // Upper-edge search: first bucket whose bound >= v; beyond the last
  // bound lands in the overflow slot. Bucket counts are small (<= ~16),
  // so a linear scan beats binary search in practice.
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::totalCount() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    total += counts_[i].load(std::memory_order_relaxed);
  return total;
}

std::uint64_t MetricsSnapshot::counterValue(const std::string& name) const {
  for (const MetricValue& m : metrics)
    if (m.name == name && m.kind == MetricValue::Kind::kCounter)
      return m.counter;
  return 0;
}

double MetricValue::quantile(double q) const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0 || bounds.empty()) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bounds.size() && i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return bounds[i];
  }
  return bounds.back();
}

std::vector<double> defaultLatencyBounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
          2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5};
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Registry::Entry& Registry::entry(const std::string& name,
                                 MetricValue::Kind kind) {
  // Caller holds mu_.
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("Registry: '" + name +
                             "' already registered with a different kind");
    return it->second;
  }
  Entry e;
  e.kind = kind;
  return metrics_.emplace(name, std::move(e)).first->second;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(name, MetricValue::Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(name, MetricValue::Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(name, MetricValue::Kind::kHistogram);
  if (!e.histogram)
    e.histogram = std::make_unique<Histogram>(
        bounds.empty() ? defaultLatencyBounds() : std::move(bounds));
  return *e.histogram;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.metrics.reserve(metrics_.size());
  // metrics_ is a std::map: iteration is already name-sorted.
  for (const auto& [name, e] : metrics_) {
    MetricValue m;
    m.name = name;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricValue::Kind::kCounter:
        m.counter = e.counter->value();
        break;
      case MetricValue::Kind::kGauge:
        m.gauge = e.gauge->value();
        break;
      case MetricValue::Kind::kHistogram: {
        m.bounds = e.histogram->bounds();
        m.buckets.resize(m.bounds.size() + 1);
        for (std::size_t i = 0; i <= m.bounds.size(); ++i)
          m.buckets[i] = e.histogram->bucketCount(i);
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

}  // namespace obs
}  // namespace dic
