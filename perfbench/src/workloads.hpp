#pragma once
// The two perfbench workloads. Each one builds its inputs from the
// seed, times set-up apart from the measured window, serves a fixed,
// seeded request sequence from this one process, and checks every
// response against a single-threaded dic::Workspace oracle.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed{1};
  int seconds{10};
  bool trace{false};
};

/// One measured window over the workload's request sequence.
struct Pass {
  std::vector<double> latencyMs;  ///< per attempted request, send -> reply
  std::vector<double> doneAtS;    ///< completion times, s from window start
  std::vector<double> serviceMs;  ///< CheckResult::seconds, ok replies
  std::vector<double> queueWaitMs;  ///< latency minus service, ok replies
  std::vector<double> baselineMs;   ///< service time of baseline checks
  std::size_t attempted{0};
  std::size_t failed{0};  ///< errors, rejections and wrong outputs
  double wallS{0};
  double cpuS{0};
  double stealPct{0};
  double stealCpuS{0};
  double peakRssMb{0};  ///< VmHWM over the window only
  bool rssPeakReset{false};  ///< the high-water mark was reset at start
  bool openLoop{false};
  double lateMeanMs{0};  ///< open loop: send time minus scheduled time
  double lateMaxMs{0};
  double offeredRps{0};  ///< open loop: the schedule's rate

  // Layer counters read from the responses and the program's stats.
  std::size_t results{0};  ///< ok CheckResults counted below
  std::size_t viewHits{0};
  std::size_t netlistConsumers{0};
  std::size_t netlistHits{0};
  std::size_t drcRequests{0};
  std::size_t incrementalHits{0};
  std::size_t candidatePairs{0};
  std::size_t distanceChecks{0};
  double cacheMb{0};
  double scratchMb{0};
  double shardServedMaxMin{0};
  int poolThreads{1};  ///< worker threads the pipeline stages run on

  std::vector<dic::obs::SpanRecord> spans;  ///< traced passes only
  std::size_t spansDropped{0};

  /// Completions / wall-clock seconds of the measured window.
  double throughputRps() const;
  /// The tailPercentile(n) latency over all n requests of the window.
  double tailLatencyMs() const;

  // Diagnostics only: the window cut into slices() consecutive,
  // equal-count slices of its completions (at least kSliceMin each, at
  // most kMaxSlices), to show where in a run a disturbance fell.
  static constexpr std::size_t kSliceMin = 100;
  static constexpr std::size_t kMaxSlices = 10;
  std::size_t slices() const {
    return std::clamp<std::size_t>(latencyMs.size() / kSliceMin, 1, kMaxSlices);
  }
  std::vector<double> sliceRps() const;
  std::vector<double> sliceTailMs() const;
};

struct Outcome {
  std::vector<double> setupS;  ///< every set-up repetition
  Pass plain;                  ///< untraced window (end-to-end metrics)
  bool hasTraced{false};
  Pass traced;                 ///< traced window (span budget)
  /// Per-layer metrics measured by timing the layer's public functions
  /// from outside (view build, wire codec).
  std::map<std::string, double> outside;
  std::size_t oracleChecked{0};  ///< responses compared with the oracle
  double oracleS{0};             ///< time spent in oracle replay
};

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 11;

/// Run `setup` (returning a std::unique_ptr to the workload's state)
/// kSetupRepeats times, recording each duration in out.setupS; the state
/// of the last repetition is kept.
template <class Fn>
auto timedSetups(Outcome& out, Fn setup) {
  decltype(setup()) s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    s.reset();
    const auto t0 = Clock::now();
    s = setup();
    out.setupS.push_back(secondsBetween(t0, Clock::now()));
  }
  return s;
}

Outcome runTcpOpenMixed(const Config& cfg);
Outcome runSignoffCold(const Config& cfg);

/// Median wall time of `reps` builds of `root`'s hierarchy view
/// (placements, both flat variants and their grid indexes), ms.
double viewBuildMs(const dic::layout::Library& lib, dic::layout::CellId root,
                   int reps);

/// Enable the span ring for a traced pass sized for `requests`
/// requests, or read it back and disable it.
void beginTracing(std::size_t requests);
void endTracing(Pass& p);

/// Add one ok response's layer counters to `p`.
void countResult(Pass& p, const dic::CheckResult& r);

}  // namespace perfbench
