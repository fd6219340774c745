// Run-time claim -- "Handling the complexity of VLSI designs in a layout
// checker, maintaining run time at an acceptable level": interaction-
// check run time vs chip size for the hierarchical algorithm (per-cell
// once + overlap windows) vs full instantiation, plus the mask-level
// baseline. The hierarchical advantage grows with design regularity.
// Informational netlist-extraction columns (flat sweep) ride along.
#include <algorithm>
#include <chrono>

#include "baseline/flat_drc.hpp"
#include "bench_util.hpp"
#include "drc/checker.hpp"
#include "engine/hierarchy_view.hpp"
#include "netlist/netlist.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dic;

double timeMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Median ms of one netlist extraction on a view whose flat view and port
/// list are already built, so only the extraction itself is timed.
double extractMs(const workload::GeneratedChip& chip,
                 const tech::Technology& t) {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    engine::HierarchyView view(chip.lib, chip.top);
    view.flat(false);
    view.ports();
    ms.push_back(timeMs([&] { netlist::extract(view, t); }));
  }
  std::nth_element(ms.begin(), ms.begin() + 2, ms.end());
  return ms[2];
}

void printScaling() {
  dic::bench::title(
      "Run-time scaling: hierarchical vs flat interactions vs baseline");
  std::printf("%-8s %10s %12s %10s %12s %10s %10s %10s\n", "invs",
              "flatElems", "hier(ms)", "flat(ms)", "baseline(ms)", "speedup",
              "nl(ms)", "nlPairs");
  const tech::Technology t = tech::nmos();
  const workload::ChipParams cases[] = {
      {1, 1, 2, 2, false}, {1, 2, 2, 4, false}, {2, 2, 4, 4, false},
      {2, 4, 4, 6, false}, {4, 4, 4, 8, false},
  };
  for (const auto& p : cases) {
    workload::GeneratedChip chip = workload::generateChip(t, p);
    const auto stats = chip.lib.sizeStats(chip.top);

    drc::Options hier;
    drc::Options flat;
    flat.hierarchicalInteractions = false;

    drc::Checker ch(chip.lib, chip.top, t, hier);
    drc::Checker cf(chip.lib, chip.top, t, flat);
    const auto nlh = ch.generateNetlist();
    const auto nlf = cf.generateNetlist();

    std::size_t nh = 0, nf = 0;
    const double hierMs = timeMs([&] { nh = ch.checkInteractions(nlh).count(); });
    const double flatMs = timeMs([&] { nf = cf.checkInteractions(nlf).count(); });
    const double baseMs =
        timeMs([&] { baseline::check(chip.lib, chip.top, t); });
    engine::HierarchyView view(chip.lib, chip.top);
    const std::size_t pairs = netlist::candidatePairs(view).size();
    std::printf("%-8zu %10zu %12.2f %10.2f %12.2f %9.1fx %10.2f %10zu%s\n",
                chip.inverterCount(), stats.flatElements, hierMs, flatMs,
                baseMs, flatMs / hierMs, extractMs(chip, t), pairs,
                nh == nf ? "" : "  (violation mismatch!)");
  }
  dic::bench::note(
      "\nExpected shape: hierarchical time grows with the number of "
      "distinct cells plus window\narea (slowly), flat time with the "
      "instantiated element count -- the speedup grows with\nthe array "
      "replication factor, which is the paper's case for a hierarchical "
      "front end.\nnl(ms) is one flat extraction (median of 5) and "
      "nlPairs the same-layer bbox-touching\nelement/port pairs its sweep "
      "hands to the exact tests; both are informational, not gated.");
}

void BM_HierarchicalInteractions(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(
      t, {static_cast<int>(state.range(0)), 2, 4, 4, false});
  drc::Checker checker(chip.lib, chip.top, t, {});
  const auto nl = checker.generateNetlist();
  for (auto _ : state)
    benchmark::DoNotOptimize(checker.checkInteractions(nl));
  state.SetComplexityN(chip.inverterCount());
}
BENCHMARK(BM_HierarchicalInteractions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_FlatInteractions(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(
      t, {static_cast<int>(state.range(0)), 2, 4, 4, false});
  drc::Options flat;
  flat.hierarchicalInteractions = false;
  drc::Checker checker(chip.lib, chip.top, t, flat);
  const auto nl = checker.generateNetlist();
  for (auto _ : state)
    benchmark::DoNotOptimize(checker.checkInteractions(nl));
  state.SetComplexityN(chip.inverterCount());
}
BENCHMARK(BM_FlatInteractions)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace

DIC_BENCH_MAIN(printScaling)
