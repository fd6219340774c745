// signoff-cold: cold DRC + ERC batches of a whole chip on a two-thread
// pool, the paper's Fig. 10 pipeline run as a signoff user runs it.
#include <memory>

#include "engine/executor.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dic::CheckRequest;
using dic::CheckResult;
using dic::Workspace;
namespace workload = dic::workload;

/// Requests per run second: fixed-count, never calibrated at run time,
/// so every run with the same arguments serves the identical sequence.
/// A quiet 4-vCPU host serves ~80/s and a busy one ~35/s, so the
/// window lasts 0.6-1.4x --seconds and a traced run (two windows)
/// stays inside run.py's time limit.
constexpr double kSignoffRequestsPerSecond = 50;
/// Distinct seeded variants of the chip the requests cycle through.
constexpr std::size_t kSignoffVariants = 4;
constexpr workload::ChipParams kSignoffChip{2, 4, 4, 8, true};  // 256 inverters
constexpr int kSignoffThreads = 2;

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct SignoffState {
  std::vector<dic::layout::Library> variants;
  std::unique_ptr<dic::engine::Executor> exec;
};

std::vector<CheckRequest> signoffBatch(dic::layout::CellId top) {
  return {CheckRequest::drc(top), CheckRequest::ercCheck(top)};
}

Pass signoffPass(SignoffState& st, dic::layout::CellId top,
                 const dic::tech::Technology& tech,
                 const std::vector<std::size_t>& seq,
                 const std::vector<std::vector<std::uint64_t>>& expect,
                 bool traced) {
  Pass p;
  if (traced) beginTracing(seq.size() * 2);
  std::vector<CheckRequest> batch = signoffBatch(top);
  Workspace::CacheStats lastCache;
  Window w;
  w.start();
  for (const std::size_t v : seq) {
    // Traced: the benchmark's own spans around each call into the
    // Workspace root the request's trace. The batch's shared view and
    // netlist stages inherit it through the executor, so they are
    // recorded too.
    const std::uint64_t traceId = traced ? dic::obs::newTraceId() : 0;
    for (CheckRequest& r : batch) r.traceId = traceId;
    const auto t0 = Clock::now();
    std::vector<CheckResult> rs;
    {
      dic::obs::ScopedSpan request("bench.request", traceId);
      std::unique_ptr<Workspace> ws;
      {
        dic::obs::ScopedSpan span("bench.workspace_new");
        ws = std::make_unique<Workspace>(st.variants[v], tech, *st.exec);
      }
      {
        dic::obs::ScopedSpan span("bench.run_batch");
        rs = ws->runBatch(batch);
      }
      lastCache = ws->cacheStats();
      dic::obs::ScopedSpan span("bench.workspace_free");
      ws.reset();
    }
    const auto t1 = Clock::now();
    const double ms = secondsBetween(t0, t1) * 1e3;
    ++p.attempted;
    p.latencyMs.push_back(ms);
    p.doneAtS.push_back(secondsBetween(w.t0, t1));
    bool ok = rs.size() == expect[v].size();
    double service = 0;
    for (std::size_t k = 0; ok && k < rs.size(); ++k) {
      ok = rs[k].ok() && fingerprint(rs[k], true) == expect[v][k];
      service = std::max(service, rs[k].seconds);
    }
    if (!ok) {
      ++p.failed;
      continue;
    }
    p.serviceMs.push_back(service * 1e3);
    for (const CheckResult& r : rs) countResult(p, r);
  }
  w.stop(p.wallS, p.cpuS, p.stealPct, p.stealCpuS);
  p.peakRssMb = peakRssMb();
  p.rssPeakReset = w.rssReset;
  if (traced) endTracing(p);
  p.cacheMb = static_cast<double>(lastCache.cacheBytes) / (1 << 20);
  p.scratchMb = static_cast<double>(lastCache.scratchBytes) / (1 << 20);
  p.poolThreads = kSignoffThreads;
  return p;
}

}  // namespace

Outcome runSignoffCold(const Config& cfg) {
  Outcome out;
  const dic::tech::Technology tech = dic::tech::nmos();
  const auto n = static_cast<std::size_t>(kSignoffRequestsPerSecond * cfg.seconds);
  dic::layout::CellId top = 0;

  // Variant 0 is the chip; variant k > 0 adds k seeded element nudges,
  // so consecutive requests check different layouts.
  const auto setup = [&] {
    auto s = std::make_unique<SignoffState>();
    // The chip plus the standard injected defects (fixed injection seed,
    // as workload::fleetChip uses): the run seed picks the variants'
    // edits and the request order, not the design.
    workload::GeneratedChip chip = workload::generateChip(tech, kSignoffChip);
    workload::inject(chip, tech, workload::InjectionPlan{}, /*seed=*/42);
    top = chip.top;
    for (std::size_t k = 0; k < kSignoffVariants; ++k) {
      dic::layout::Library lib = chip.lib;
      for (std::size_t e = 0; e < k; ++e) {
        const dic::EditOp op =
            workload::makeEditOp(mix(cfg.seed ^ 0x5eed, k * 16 + e), lib, top);
        if (op.kind != dic::EditOp::Kind::kNone)
          lib.setElement(op.cell, op.index, op.element);
      }
      s->variants.push_back(std::move(lib));
    }
    s->exec = std::make_unique<dic::engine::Executor>(kSignoffThreads);
    // Warm-up: one cold batch faults in code and allocator pools.
    Workspace(s->variants[0], tech, *s->exec).runBatch(signoffBatch(top));
    return s;
  };
  std::unique_ptr<SignoffState> st = timedSetups(out, setup);

  std::vector<std::size_t> seq(n);
  for (std::size_t i = 0; i < n; ++i)
    seq[i] = mix(cfg.seed, i) % kSignoffVariants;

  // Oracle: each variant checked once on a single-threaded Workspace.
  const auto o0 = Clock::now();
  std::vector<std::vector<std::uint64_t>> expect;
  for (const dic::layout::Library& lib : st->variants) {
    Workspace oracle(lib, tech, dic::WorkspaceOptions{1});
    std::vector<std::uint64_t> h;
    for (const CheckRequest& r : signoffBatch(top))
      h.push_back(fingerprint(oracle.run(r), true));
    expect.push_back(std::move(h));
  }
  out.oracleS = secondsBetween(o0, Clock::now());

  out.plain = signoffPass(*st, top, tech, seq, expect, false);
  out.oracleChecked += out.plain.attempted;
  if (cfg.trace) {
    out.traced = signoffPass(*st, top, tech, seq, expect, true);
    out.hasTraced = true;
    out.oracleChecked += out.traced.attempted;
    out.outside["engine.view_build_ms"] =
        viewBuildMs(st->variants[0], top, 5);
  }
  return out;
}

}  // namespace perfbench
