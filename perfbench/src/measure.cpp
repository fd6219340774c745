#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include <malloc.h>
#include <unistd.h>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double tailPercentile(std::size_t n) {
  for (double p : {99.0, 98.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) return p;
  }
  return 50;
}

HostCpu readHostCpu() {
  HostCpu c;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line
  if (label != "cpu") return c;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already folded into user/nice)
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    c.total += v;
    if (i == 7) c.steal = v;
  }
  return c;
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

void Window::start() {
  rssReset = resetPeakRss();
  host0 = readHostCpu();
  cpu0 = processCpuSeconds();
  t0 = Clock::now();
}

void Window::stop(double& wallS, double& cpuS, double& stealPct,
                  double& stealCpuS) const {
  wallS = secondsBetween(t0, Clock::now());
  cpuS = processCpuSeconds() - cpu0;
  const HostCpu h1 = readHostCpu();
  const double dTotal = static_cast<double>(h1.total - host0.total);
  const double dSteal = static_cast<double>(h1.steal - host0.steal);
  stealPct = dTotal > 0 ? 100.0 * dSteal / dTotal : 0;
  const long tick = sysconf(_SC_CLK_TCK);
  stealCpuS = tick > 0 ? dSteal / static_cast<double>(tick) : 0;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {
void putRect(std::ostringstream& o, const dic::geom::Rect& r) {
  o << r.lo.x << ',' << r.lo.y << ',' << r.hi.x << ',' << r.hi.y;
}
}  // namespace

std::string netlistText(const dic::netlist::Netlist& nl) {
  std::ostringstream o;
  for (const dic::netlist::Net& n : nl.nets) {
    o << "N " << n.id << ' ' << n.elementCount << ' ';
    putRect(o, n.bbox);
    for (const std::string& name : n.names) o << ' ' << name;
    for (const dic::netlist::Terminal& t : n.terminals)
      o << " T" << t.device << ':' << t.port << ':' << t.net;
    o << '\n';
  }
  for (const dic::netlist::ExtractedDevice& d : nl.devices) {
    o << "D " << d.path << ' ' << d.type << ' ' << d.cell << ' ';
    putRect(o, d.bbox);
    for (const auto& [port, net] : d.portNets) o << ' ' << port << '=' << net;
    o << '\n';
  }
  o << 'E';
  for (int net : nl.elementNet) o << ' ' << net;
  return o.str();
}

std::uint64_t fingerprint(const dic::CheckResult& r, bool withNetlist) {
  std::uint64_t h = fnv1a(r.error);
  h = fnv1a(r.report.text(), h);
  if (withNetlist && r.netlist) {
    // Warm requests share one cached netlist object; canonicalize each
    // distinct object once per thread. A live entry whose weak pointer
    // still holds the same address is the same object (two live objects
    // cannot share an address); an expired one is recomputed.
    struct Memo {
      std::weak_ptr<const dic::netlist::Netlist> obj;
      std::uint64_t hash{0};
    };
    thread_local std::unordered_map<const dic::netlist::Netlist*, Memo> memo;
    Memo& m = memo[r.netlist.get()];
    if (m.obj.lock() != r.netlist) {
      m.obj = r.netlist;
      m.hash = fnv1a(netlistText(*r.netlist));
    }
    h ^= m.hash + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

std::string normalizeSpanName(const std::string& name) {
  std::string s = name;
  if (s.size() > 3 && s.rfind("req", 0) == 0) {
    const std::size_t colon = s.find(':');
    if (colon != std::string::npos) s = s.substr(colon + 1);
  }
  for (const char* base : {"view", "nl"}) {
    const std::string b = base;
    if (s.size() > b.size() && s.rfind(b, 0) == 0 &&
        std::all_of(s.begin() + static_cast<std::ptrdiff_t>(b.size()), s.end(),
                    [](char c) { return c >= '0' && c <= '9'; }))
      return b;
  }
  return s;
}

std::string layerOf(const std::string& n) {
  if (n == "session.decode" || n == "reply.write") return "net";
  if (n == "queue.wait") return "server";
  // serve:baseline and serve:erc run the baseline checker and erc::check
  // inline in the request span, so their self time is that layer's work.
  if (n == "serve:baseline" || n == "baseline") return "baseline";
  if (n == "serve:erc" || n == "erc") return "erc";
  if (n.rfind("serve:", 0) == 0 || n == "view.acquire" ||
      n == "view.patch" || n == "merge" || n == "bench.workspace_new" ||
      n == "bench.workspace_free")
    return "service";
  // Inside Workspace::runBatch but outside every stage span: graph
  // building and the executor's ready-queue dispatch.
  if (n == "view" || n == "bench.run_batch") return "engine";
  if (n == "netlist.extract" || n == "netlist.probe" || n == "netlist" ||
      n == "nl")
    return "netlist";
  if (n == "elements" || n == "symbols" || n == "connections" ||
      n == "interactions")
    return "drc";
  if (n == "spacing.walk" || n == "boolean.sweep") return "geom";
  return "other";
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> kLayers = {
      "net",     "server",   "service", "engine", "netlist",
      "drc",     "erc",      "baseline", "geom",  "other"};
  return kLayers;
}

SpanFold foldSpans(const std::vector<dic::obs::SpanRecord>& spans) {
  SpanFold f;
  std::unordered_map<std::uint64_t, std::size_t> byId;
  byId.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) byId[spans[i].spanId] = i;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const dic::obs::SpanRecord& s : spans) {
    if (s.parentId == 0) continue;
    auto it = byId.find(s.parentId);
    if (it != byId.end())
      kids[it->second].push_back({s.startNs, s.startNs + s.durNs});
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const dic::obs::SpanRecord& s = spans[i];
    const std::uint64_t lo = s.startNs, hi = s.startNs + s.durNs;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, curLo = 0, curHi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= curHi) {
        curHi = std::max(curHi, b);
      } else {
        if (open) covered += curHi - curLo;
        curLo = a;
        curHi = b;
        open = true;
      }
    }
    if (open) covered += curHi - curLo;
    const double selfMs = static_cast<double>(s.durNs - covered) * 1e-6;
    const std::string name = normalizeSpanName(std::string(s.label()));
    f.selfMs[name] += selfMs;
    f.durMs[name] += static_cast<double>(s.durNs) * 1e-6;
    f.layerSelfMs[layerOf(name)] += selfMs;
  }
  return f;
}

}  // namespace perfbench
