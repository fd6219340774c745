// Fig. 10 -- The DIC flow chart: PARSE CIF / CHECK ELEMENTS / CHECK
// PRIMITIVE SYMBOLS / CHECK LEGAL CONNECTIONS / GENERATE HIERARCHICAL NET
// LIST / CHECK INTERACTIONS. Reports the per-stage wall-clock breakdown,
// the Options::threads sweep, and the barrier-vs-ready-queue dispatcher
// comparison (when does the interaction stage get to start?).
#include <chrono>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "cif/parser.hpp"
#include "cif/writer.hpp"
#include "drc/checker.hpp"
#include "engine/executor.hpp"
#include "layout/cifio.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dic;

/// Seconds the last run() spent in the named Fig. 10 stage (0 if the
/// stage never ran).
double stageSeconds(const drc::Checker& c, const std::string& name) {
  for (const engine::StageResult& r : c.stageResults())
    if (r.name == name) return r.seconds;
  return 0;
}

void printFig10() {
  dic::bench::title("Fig. 10: pipeline stage breakdown (ms)");
  std::printf("%-16s %8s %9s %8s %8s %8s %8s %8s\n", "chip", "parse",
              "elements", "symbols", "connect", "netlist", "interact",
              "total");
  const tech::Technology t = tech::nmos();
  const workload::ChipParams cases[] = {
      {1, 1, 2, 2, true}, {2, 2, 2, 4, true}, {2, 4, 4, 4, true}};
  for (const auto& p : cases) {
    workload::GeneratedChip chip = workload::generateChip(t, p);

    // Stage 0: write to CIF and parse it back (the paper's entry point).
    const cif::CifFile out = layout::toCif(
        chip.lib, chip.top, [&](int l) { return t.layer(l).cifName; });
    const std::string text = cif::write(out);
    const auto t0 = std::chrono::steady_clock::now();
    layout::Library lib2;
    const layout::CellId root2 = layout::fromCif(
        cif::parse(text), lib2,
        [&](const std::string& n) { return t.layerByCifName(n).value_or(-1); });
    const auto t1 = std::chrono::steady_clock::now();
    const double parseMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    drc::Checker checker(lib2, root2, t, {});
    checker.run();
    double total = 0;
    for (const engine::StageResult& r : checker.stageResults())
      total += r.seconds;
    char name[64];
    std::snprintf(name, sizeof name, "%dx%d blk %dx%d inv", p.blockRows,
                  p.blockCols, p.invRows, p.invCols);
    std::printf("%-16s %8.2f %9.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n", name,
                parseMs, stageSeconds(checker, "elements") * 1e3,
                stageSeconds(checker, "symbols") * 1e3,
                stageSeconds(checker, "connections") * 1e3,
                stageSeconds(checker, "netlist") * 1e3,
                stageSeconds(checker, "interactions") * 1e3,
                parseMs + total * 1e3);
  }
  dic::bench::note(
      "\nExpected shape: interaction checking and net list generation "
      "dominate; element and symbol\nchecks are cheap because they run "
      "once per definition (20-30 device symbols on a chip).");
}

void printThreadSweep() {
  dic::bench::title(
      "Stage-runner thread sweep: interaction stage (ms), identical output");
  // Stage clocks overlap when independent stages run concurrently, so the
  // pipeline is timed by outside wall clock, not by summing stages.
  // `workers` is the actual pool size a row ran with: it differs from
  // `threads` only on the auto row (threads=0 resolves to the cached
  // hardware concurrency), which is exactly when the label matters.
  std::printf("(host hardware threads: %d)\n",
              dic::engine::Executor::hardwareThreads());
  std::printf("%-10s %8s %10s %10s %10s %10s\n", "threads", "workers",
              "interact", "netlist", "wall", "speedup");
  const tech::Technology t = tech::nmos();
  // A chip big enough that per-worker items are far larger than thread
  // spawn overhead; on a single-core host expect ~1.0x regardless.
  workload::GeneratedChip chip = workload::generateChip(t, {4, 4, 4, 6, true});
  double base = 0;
  for (const int threads : {1, 2, 4, 0}) {
    drc::Options opt;
    opt.threads = threads;
    const int workers =
        threads <= 0 ? dic::engine::Executor::hardwareThreads() : threads;
    drc::Checker checker(chip.lib, chip.top, t, opt);
    const auto w0 = std::chrono::steady_clock::now();
    checker.run();
    const auto w1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(w1 - w0).count();
    if (threads == 1) base = wall;
    std::printf("%-10s %8d %10.2f %10.2f %10.2f %9.2fx\n",
                threads == 0 ? "0 (auto)" : std::to_string(threads).c_str(),
                workers, stageSeconds(checker, "interactions") * 1e3,
                stageSeconds(checker, "netlist") * 1e3, wall * 1e3,
                wall > 0 ? base / wall : 0.0);
  }
  dic::bench::note(
      "\nStages and their per-cell/window fan-outs share one work-stealing "
      "pool;\nviolation ordering is deterministic, so every row produces "
      "byte-identical reports.");
}

void printDispatcherComparison() {
  dic::bench::title(
      "Barrier vs ready-queue dispatch (threads=4): when does the "
      "interaction stage start? (ms)");
  std::printf("%-14s %14s %12s %10s\n", "scheduler", "interact-start",
              "interact", "wall");
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, {2, 2, 4, 4, true});
  constexpr int kThreads = 4;

  // Barrier reference: the pre-dispatcher wave schedule. Wave 1 ran the
  // four independent stages on four threads with one inner worker each
  // (the old static budget split) and joined -- the barrier -- before
  // the interaction stage could start; the interactions wave was a
  // singleton, so it got the full thread budget. Reproduced here with a
  // threads=1 checker for the wave stages and a threads=4 checker for
  // the interaction stage (its shared-view caches pre-warmed, as the
  // old single-checker wave 1 left them).
  double barrierStart = 0, barrierInteract = 0, barrierWall = 0;
  {
    drc::Options waveOpt;
    waveOpt.threads = 1;  // per-stage inner budget under the old wave split
    drc::Checker waves(chip.lib, chip.top, t, waveOpt);
    drc::Options interOpt;
    interOpt.threads = kThreads;  // singleton wave: full budget
    drc::Checker inter(chip.lib, chip.top, t, interOpt);
    inter.view().placements();  // wave 1 built these on the shared view
    netlist::Netlist nl;
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::thread ts[] = {
          std::thread([&] { waves.checkElements(); }),
          std::thread([&] { waves.checkPrimitiveSymbols(); }),
          std::thread([&] { waves.checkConnections(); }),
          std::thread([&] { nl = waves.generateNetlist(); })};
      for (std::thread& th : ts) th.join();
    }
    const auto t1 = std::chrono::steady_clock::now();
    inter.checkInteractions(nl);
    const auto t2 = std::chrono::steady_clock::now();
    barrierStart = std::chrono::duration<double, std::milli>(t1 - t0).count();
    barrierInteract =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    barrierWall = std::chrono::duration<double, std::milli>(t2 - t0).count();
  }

  // Ready-queue dispatcher: interactions is submitted the moment netlist
  // completes, while slower independent stages keep running.
  double readyStart = 0, readyInteract = 0, readyWall = 0;
  {
    drc::Options opt;
    opt.threads = kThreads;
    drc::Checker checker(chip.lib, chip.top, t, opt);
    const auto w0 = std::chrono::steady_clock::now();
    checker.run();
    const auto w1 = std::chrono::steady_clock::now();
    readyWall = std::chrono::duration<double, std::milli>(w1 - w0).count();
    for (const dic::engine::StageResult& r : checker.stageResults()) {
      if (r.name == "interactions") {
        readyStart = r.start * 1e3;
        readyInteract = r.seconds * 1e3;
      }
    }
  }

  std::printf("%-14s %14.2f %12.2f %10.2f\n", "barrier", barrierStart,
              barrierInteract, barrierWall);
  std::printf("%-14s %14.2f %12.2f %10.2f\n", "ready-queue", readyStart,
              readyInteract, readyWall);
  dic::bench::note(
      "\nThe barrier row may not start interactions until the whole first "
      "wave drains; the ready-queue\nrow starts it as soon as the netlist "
      "stage finishes, so interact-start drops to roughly the\nnetlist "
      "stage's duration. Reports are byte-identical either way.");
}

void BM_FullPipeline(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(
      t, {static_cast<int>(state.range(0)), 2, 2, 4, true});
  for (auto _ : state) {
    drc::Checker checker(chip.lib, chip.top, t, {});
    benchmark::DoNotOptimize(checker.run());
  }
}
BENCHMARK(BM_FullPipeline)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_InteractionStageThreads(benchmark::State& state) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, {2, 2, 4, 4, true});
  drc::Options opt;
  opt.threads = static_cast<int>(state.range(0));
  drc::Checker checker(chip.lib, chip.top, t, opt);
  const netlist::Netlist nl = checker.generateNetlist();
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.checkInteractions(nl));
  }
}
BENCHMARK(BM_InteractionStageThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void printAll() {
  printFig10();
  printThreadSweep();
  printDispatcherComparison();
}

}  // namespace

DIC_BENCH_MAIN(printAll)
