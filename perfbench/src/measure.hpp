#pragma once
// Measurement primitives shared by every perfbench workload: clocks,
// percentiles, host/process counters, response fingerprints, and the
// folding of obs span records into per-layer self time.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "service/workspace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty set.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The highest percentile of the ladder p99, p98, p95, p90, p75 that
/// still leaves at least ten samples beyond it for `n` samples (50 when
/// none does). The ladder stops at p99: above it, a run's figure is set
/// by a handful of hypervisor stalls, and p99.9 spread 42-62% across
/// seeds on a shared 4-vCPU VM.
double tailPercentile(std::size_t n);

/// Host CPU counters from /proc/stat (all CPUs, clock ticks).
struct HostCpu {
  std::uint64_t total{0};
  std::uint64_t steal{0};
};
HostCpu readHostCpu();
/// CPU time this process has used, seconds.
double processCpuSeconds();
/// Peak resident set size of this process since the last
/// resetPeakRss() (or since it started), MiB (VmHWM).
double peakRssMb();
/// Return freed heap to the kernel and reset VmHWM to the current
/// resident size (writes "5" to /proc/self/clear_refs). False when the
/// kernel refuses, in which case VmHWM still covers the whole process.
bool resetPeakRss();

/// The host and process counters around one measured window.
struct Window {
  Clock::time_point t0;
  HostCpu host0;
  double cpu0{0};
  bool rssReset{false};  ///< resetPeakRss() succeeded at start()
  /// Resets the RSS high-water mark, then reads the counters.
  void start();
  /// Fills wall/cpu/steal of the window that started at start().
  void stop(double& wallS, double& cpuS, double& stealPct,
            double& stealCpuS) const;
};

/// FNV-1a over bytes, chained through `h`.
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 1469598103934665603ull);

/// Canonical byte form of a netlist (nets, terminals, devices, the
/// element->net map), for byte-identity checks.
std::string netlistText(const dic::netlist::Netlist& nl);

/// Fingerprint of everything a response carries that a client reads:
/// the error string, the report's text, and (when `withNetlist` and a
/// netlist is attached) the netlist's canonical text.
std::uint64_t fingerprint(const dic::CheckResult& r, bool withNetlist);

/// Per-span-name totals folded from a span set. Self time is a span's
/// duration minus the part of its interval its child spans cover.
struct SpanFold {
  std::map<std::string, double> selfMs;   ///< by normalized span name
  std::map<std::string, double> durMs;    ///< by normalized span name
  std::map<std::string, double> layerSelfMs;  ///< by layer
};
/// Normalized span name: batch stage prefixes ("req3:") and ordinal
/// suffixes ("view0", "nl1") removed.
std::string normalizeSpanName(const std::string& name);
/// The layer a normalized span name's self time is charged to.
std::string layerOf(const std::string& normalized);
SpanFold foldSpans(const std::vector<dic::obs::SpanRecord>& spans);

/// Every layer the budget reports, in output order.
const std::vector<std::string>& layers();

}  // namespace perfbench
