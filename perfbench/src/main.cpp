// perfbench: the DIC serving stack's end-to-end benchmark.
//
//   perfbench --workload <signoff-cold|tcp-open-mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--record <path>]
//
// --trace 0 prints the end-to-end metrics of one untraced window.
// --trace 1 runs the window untraced and then traced (obs::Tracer on),
// and prints the per-layer metrics: span self time folded per layer,
// counters and ratios from the responses and the program's stats, and
// the tracing overhead between the two windows. Before the result, a
// "diagnostics" line records the host steal, process CPU time,
// generator lateness, tail percentile and sample count of each window;
// those are never compared. The last stdout line is the result object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

double ratio(std::size_t a, std::size_t b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0;
}

std::vector<Metric> endToEnd(const Outcome& o) {
  const Pass& p = o.plain;
  return {
      {"throughput_rps", p.throughputRps(), "1/s"},
      {"latency_p50_ms", median(p.latencyMs), "ms"},
      {"latency_tail_ms", p.tailLatencyMs(), "ms"},
      {"setup_s", median(o.setupS), "s"},
      {"peak_rss_mb", p.peakRssMb, "MiB"},
  };
}

bool isStage(const std::string& n) {
  for (const char* s : {"view", "nl", "elements", "symbols", "connections",
                        "netlist", "interactions", "erc", "baseline", "merge"})
    if (n == s) return true;
  return false;
}

std::vector<Metric> perLayer(const Outcome& o) {
  const Pass& p = o.plain;
  const Pass& t = o.traced;
  const SpanFold f = foldSpans(t.spans);
  const double reqs = static_cast<double>(std::max<std::size_t>(1, t.attempted));
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto self = [&](const std::string& n) { return get(f.selfMs, n) / reqs; };
  const auto dur = [&](const std::string& n) { return get(f.durMs, n) / reqs; };
  const auto outside = [&](const std::string& n) { return get(o.outside, n); };
  const bool served = !p.queueWaitMs.empty();  // a server::Server answered

  double stageMs = 0;
  for (const auto& [name, ms] : f.durMs)
    if (isStage(name)) stageMs += ms;
  const double busy = t.wallS > 0 ? stageMs / (t.wallS * 1e3 * t.poolThreads) : 0;

  // Tracing overhead: the closed loop compares throughput; the open loop's
  // throughput is pinned to its schedule, so it compares CPU per request.
  double overhead = 0;
  if (p.openLoop) {
    const double a = p.cpuS / std::max<std::size_t>(1, p.attempted);
    const double b = t.cpuS / std::max<std::size_t>(1, t.attempted);
    overhead = a > 0 ? (b / a - 1) * 100 : 0;
  } else if (t.throughputRps() > 0) {
    overhead = (p.throughputRps() / t.throughputRps() - 1) * 100;
  }

  std::vector<Metric> m = {
      {"net.codec_us_per_req", outside("net.codec_us_per_req"), "us"},
      {"net.wire_bytes_per_req", outside("net.wire_bytes_per_req"), "bytes"},
      {"net.session_decode_ms", dur("session.decode"), "ms"},
      {"net.reply_write_ms", dur("reply.write"), "ms"},
      {"server.queue_wait_ms_p50", served ? median(p.queueWaitMs) : 0, "ms"},
      {"server.queue_wait_ms_tail",
       served ? percentile(p.queueWaitMs, tailPercentile(p.queueWaitMs.size()))
              : 0,
       "ms"},
      {"server.service_ms_p50", served ? median(p.serviceMs) : 0, "ms"},
      {"server.shard_served_max_min", p.shardServedMaxMin, "ratio"},
      {"service.view_hit_ratio", ratio(p.viewHits, p.results), "ratio"},
      {"service.netlist_hit_ratio", ratio(p.netlistHits, p.netlistConsumers),
       "ratio"},
      {"service.incremental_hit_ratio", ratio(p.incrementalHits, p.drcRequests),
       "ratio"},
      {"service.view_acquire_ms", self("view.acquire"), "ms"},
      {"service.view_patch_ms", self("view.patch"), "ms"},
      {"service.cache_mb", p.cacheMb, "MiB"},
      {"service.scratch_mb", p.scratchMb, "MiB"},
      {"engine.view_build_ms", outside("engine.view_build_ms"), "ms"},
      {"engine.pool_busy_ratio", busy, "ratio"},
      {"netlist.extract_ms", self("netlist.extract"), "ms"},
      {"netlist.probe_ms", self("netlist.probe"), "ms"},
      {"drc.interactions_ms", self("interactions"), "ms"},
      {"drc.cell_checks_ms",
       self("elements") + self("symbols") + self("connections"), "ms"},
      {"drc.distance_checks_per_candidate",
       ratio(p.distanceChecks, p.candidatePairs), "ratio"},
      {"erc.ms", get(f.layerSelfMs, "erc") / reqs, "ms"},
      {"baseline.flat_ms_p50", median(p.baselineMs), "ms"},
      {"geom.boolean_sweep_ms", self("boolean.sweep"), "ms"},
      {"geom.spacing_walk_ms", self("spacing.walk"), "ms"},
      {"obs.tracing_overhead_pct", overhead, "%"},
      {"obs.spans_per_req", static_cast<double>(t.spans.size()) / reqs, "count"},
  };
  for (const std::string& layer : layers())
    m.push_back({"budget." + layer + "_ms_per_req",
                 get(f.layerSelfMs, layer) / reqs, "ms"});
  return m;
}

std::string list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

std::string passDiagnostics(const Pass& p) {
  const std::size_t samples = p.latencyMs.size();
  const double tailP = tailPercentile(samples);
  const std::size_t beyond =
      samples - static_cast<std::size_t>(
                    std::ceil(tailP / 100.0 * static_cast<double>(samples)));
  std::ostringstream o;
  o << "{\"requests\": " << p.attempted << ", \"failed\": " << p.failed
    << ", \"wall_s\": " << num(p.wallS)
    << ", \"tail_samples\": " << samples
    << ", \"tail_percentile\": " << num(tailP)
    << ", \"tail_samples_beyond\": " << beyond
    << ", \"latency_ms_at_p90_p99_p99.9\": "
    << list({percentile(p.latencyMs, 90), percentile(p.latencyMs, 99),
             percentile(p.latencyMs, 99.9)})
    << ", \"slice_tail_ms\": " << list(p.sliceTailMs())
    << ", \"slice_rps\": " << list(p.sliceRps())
    << ", \"rss_peak_reset\": " << (p.rssPeakReset ? "true" : "false")
    << ", \"host_steal_pct\": " << num(p.stealPct)
    << ", \"host_steal_cpu_s\": " << num(p.stealCpuS)
    << ", \"process_cpu_ms_per_req\": "
    << num(p.cpuS * 1e3 / std::max<std::size_t>(1, p.attempted));
  if (p.openLoop)
    o << ", \"offered_rps\": " << num(p.offeredRps)
      << ", \"generator_late_mean_ms\": " << num(p.lateMeanMs)
      << ", \"generator_late_max_ms\": " << num(p.lateMaxMs);
  if (!p.spans.empty() || p.spansDropped)
    o << ", \"spans\": " << p.spans.size()
      << ", \"spans_dropped\": " << p.spansDropped;
  o << "}";
  return o.str();
}

std::string metricsJson(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
      << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  o << "}";
  return o.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <signoff-cold|tcp-open-mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--record <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string record;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::atoi(v.c_str());
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--record") record = v;
    else return usage();
  }
  if (cfg.seconds < 1) return usage();

  Outcome o;
  try {
    if (cfg.workload == "signoff-cold") o = runSignoffCold(cfg);
    else if (cfg.workload == "tcp-open-mixed") o = runTcpOpenMixed(cfg);
    else return usage();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }

  std::size_t attempted = o.plain.attempted, failed = o.plain.failed;
  if (o.hasTraced) {
    attempted += o.traced.attempted;
    failed += o.traced.failed;
  }
  const std::vector<Metric> metrics = cfg.trace ? perLayer(o) : endToEnd(o);

  std::ostringstream setups;
  for (std::size_t i = 0; i < o.setupS.size(); ++i)
    setups << (i ? ", " : "") << num(o.setupS[i]);
  std::ostringstream diag;
  diag << "{\"diagnostics\": {\"workload\": \"" << cfg.workload
       << "\", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
       << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"setup_runs_s\": [" << setups.str() << "]"
       << ", \"oracle_checked\": " << o.oracleChecked
       << ", \"oracle_s\": " << num(o.oracleS)
       << ", \"untraced\": " << passDiagnostics(o.plain);
  if (o.hasTraced) diag << ", \"traced\": " << passDiagnostics(o.traced);
  diag << "}, \"metrics\": " << metricsJson(metrics) << "}";
  std::printf("%s\n", diag.str().c_str());
  if (!record.empty()) {
    std::ofstream rec(record, std::ios::app);
    rec << diag.str() << "\n";
  }

  const bool correct = failed == 0 && o.oracleChecked > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metricsJson(metrics).c_str());
  return 0;
}
