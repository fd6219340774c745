// Tests for the DIC pipeline stages (Fig. 10) and the paper's headline
// behaviours: per-symbol checking, net-aware interactions, device rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "drc/checker.hpp"
#include "drc/stages.hpp"
#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"

namespace dic::drc {
namespace {

using geom::makeRect;
using layout::makeBox;
using layout::makeWire;

class DrcTest : public ::testing::Test {
 protected:
  tech::Technology t = tech::nmos();
  const int nd = *t.layerByName("diff");
  const int np = *t.layerByName("poly");
  const int nm = *t.layerByName("metal");
  const int ncut = *t.layerByName("contact");
  const geom::Coord L = t.lambda();
};

// --- Stage 1: element checks -----------------------------------------------

TEST_F(DrcTest, ElementWidthBoxOk) {
  EXPECT_TRUE(
      checkElementWidth(makeBox(nm, makeRect(0, 0, 3 * L, 10 * L)), t)
          .empty());
}

TEST_F(DrcTest, ElementWidthBoxNarrow) {
  const auto v =
      checkElementWidth(makeBox(nm, makeRect(0, 0, 2 * L, 10 * L)), t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].category, report::Category::kWidth);
  EXPECT_EQ(v[0].rule, "W.metal");
}

TEST_F(DrcTest, ElementWidthWire) {
  EXPECT_TRUE(
      checkElementWidth(makeWire(np, {{0, 0}, {10 * L, 0}}, 2 * L), t)
          .empty());
  EXPECT_FALSE(
      checkElementWidth(makeWire(np, {{0, 0}, {10 * L, 0}}, L), t).empty());
}

TEST_F(DrcTest, ElementWidthPolygonNeedsGeneralRoutine) {
  // An L-polygon with one thin arm.
  const auto v = checkElementWidth(
      layout::makePolygon(nm, {{0, 0},
                               {10 * L, 0},
                               {10 * L, L},
                               {3 * L, L},
                               {3 * L, 10 * L},
                               {0, 10 * L}}),
      t);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].category, report::Category::kWidth);
}

TEST_F(DrcTest, NonManhattanFlagged) {
  const auto v = checkElementWidth(
      layout::makePolygon(nm, {{0, 0}, {10 * L, 0}, {0, 10 * L}}), t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "GEOM.MANHATTAN");
}

// --- Stage 3: legal connections (Fig. 11 / Fig. 15) -------------------------

TEST_F(DrcTest, ConnectionLegalOverlap) {
  // Boxes overlapping by at least the minimum width: skeletons touch.
  layout::Cell c;
  c.name = "c";
  c.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  c.elements.push_back(makeBox(nm, makeRect(7 * L, 0, 17 * L, 3 * L)));
  EXPECT_TRUE(checkCellConnections(c, t).empty());
}

TEST_F(DrcTest, ConnectionButtingFlagged) {
  // Abutting boxes: touch but skeletons do not connect.
  layout::Cell c;
  c.name = "c";
  c.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  c.elements.push_back(makeBox(nm, makeRect(10 * L, 0, 20 * L, 3 * L)));
  const auto v = checkCellConnections(c, t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].category, report::Category::kConnection);
}

TEST_F(DrcTest, ConnectionDifferentLayersIgnored) {
  layout::Cell c;
  c.name = "c";
  c.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  c.elements.push_back(makeBox(np, makeRect(0, 0, 10 * L, 3 * L)));
  EXPECT_TRUE(checkCellConnections(c, t).empty());
}

// --- Stage 2: device checks (Figs. 6, 7) -----------------------------------

layout::Cell fetCell(const tech::Technology& t, geom::Coord polyHalfLen,
                     geom::Coord diffHalfLen, const char* type = "TRAN") {
  const geom::Coord L = t.lambda();
  layout::Cell c;
  c.name = "dev";
  c.deviceType = type;
  c.elements.push_back(layout::makeBox(
      *t.layerByName("poly"), makeRect(-polyHalfLen, -L, polyHalfLen, L)));
  c.elements.push_back(layout::makeBox(
      *t.layerByName("diff"), makeRect(-L, -diffHalfLen, L, diffHalfLen)));
  return c;
}

TEST_F(DrcTest, FetOk) {
  EXPECT_TRUE(checkDeviceCell(fetCell(t, 3 * L, 3 * L), t).empty());
}

TEST_F(DrcTest, FetGateOverlapTooSmall) {
  // Poly extends only 1L past the gate; rule is 2L ("source and drain
  // may short").
  const auto v = checkDeviceCell(fetCell(t, 2 * L, 3 * L), t);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, "DEV.GATE_OVERLAP");
}

TEST_F(DrcTest, FetNoGate) {
  layout::Cell c;
  c.name = "dev";
  c.deviceType = "TRAN";
  c.elements.push_back(makeBox(np, makeRect(0, 0, 6 * L, 2 * L)));
  c.elements.push_back(makeBox(nd, makeRect(10 * L, 0, 12 * L, 6 * L)));
  const auto v = checkDeviceCell(c, t);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "DEV.NOGATE");
}

TEST_F(DrcTest, DepletionNeedsImplant) {
  layout::Cell c = fetCell(t, 3 * L, 3 * L, "DTRAN");
  const auto missing = checkDeviceCell(c, t);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].rule, "DEV.IMPLANT");
  c.elements.push_back(layout::makeBox(
      *t.layerByName("implant"), makeRect(-3 * L, -3 * L, 3 * L, 3 * L)));
  EXPECT_TRUE(checkDeviceCell(c, t).empty());
}

TEST_F(DrcTest, ContactOverGateFlagged) {
  layout::Cell c = fetCell(t, 3 * L, 3 * L);
  c.elements.push_back(makeBox(ncut, makeRect(-L, -L, L, L)));
  const auto v = checkDeviceCell(c, t);
  ASSERT_FALSE(v.empty());
  bool found = false;
  for (const auto& x : v)
    if (x.category == report::Category::kContactOverGate) found = true;
  EXPECT_TRUE(found);
}

TEST_F(DrcTest, ButtingContactLegal) {
  // Fig. 7: the same cut-over-poly-and-diff pattern is legal in a
  // butting-contact device.
  layout::Cell c;
  c.name = "butt";
  c.deviceType = "BUTT";
  c.elements.push_back(makeBox(nd, makeRect(-3 * L, -2 * L, L, 2 * L)));
  c.elements.push_back(makeBox(np, makeRect(-L, -2 * L, 3 * L, 2 * L)));
  c.elements.push_back(makeBox(nm, makeRect(-3 * L, -2 * L, 3 * L, 2 * L)));
  c.elements.push_back(makeBox(ncut, makeRect(-2 * L, -L, 2 * L, L)));
  EXPECT_TRUE(checkDeviceCell(c, t).empty());
}

TEST_F(DrcTest, ContactEnclosure) {
  layout::Cell c;
  c.name = "con";
  c.deviceType = "CON_MD";
  c.elements.push_back(makeBox(nd, makeRect(-2 * L, -2 * L, 2 * L, 2 * L)));
  c.elements.push_back(makeBox(nm, makeRect(-2 * L, -2 * L, 2 * L, 2 * L)));
  c.elements.push_back(makeBox(ncut, makeRect(-L, -L, 2 * L, L)));
  const auto v = checkDeviceCell(c, t);  // cut sticks out to the east
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, "DEV.CON_MET");
}

TEST_F(DrcTest, BipolarFig6DeviceDependent) {
  const tech::Technology bt = tech::bipolar();
  const geom::Coord U = bt.lambda();
  auto cellWith = [&](const char* type) {
    layout::Cell c;
    c.name = std::string("d_") + type;
    c.deviceType = type;
    c.elements.push_back(layout::makeBox(*bt.layerByName("base"),
                                         makeRect(0, 0, 10 * U, 6 * U)));
    // Isolation abutting the base: the Fig. 6 situation.
    c.elements.push_back(layout::makeBox(*bt.layerByName("iso"),
                                         makeRect(10 * U, 0, 16 * U, 6 * U)));
    return c;
  };
  const auto npn = checkDeviceCell(cellWith("NPN"), bt);
  ASSERT_EQ(npn.size(), 1u);  // error: device integrity destroyed
  EXPECT_EQ(npn[0].rule, "DEV.BASE_ISO");
  EXPECT_TRUE(checkDeviceCell(cellWith("BRES"), bt).empty());  // legal
}

TEST_F(DrcTest, PrecheckedDeviceSkipped) {
  layout::Library lib;
  layout::Cell bad = fetCell(t, 2 * L, 3 * L);  // overlap violation
  bad.prechecked = true;
  const auto devId = lib.addCell(std::move(bad));
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({devId, {geom::Orient::kR0, {0, 0}}, "d"});
  const auto root = lib.addCell(std::move(top));
  Checker checker(lib, root, t);
  EXPECT_TRUE(checker.checkPrimitiveSymbols().empty());
}

// --- Stage 5: interactions (Figs. 5, 12) -------------------------------------

struct InteractionFixture {
  layout::Library lib;
  layout::CellId root{};
};

TEST_F(DrcTest, SameNetSpacingSkippedDiffNetFlagged) {
  // Fig. 5a: two boxes 1L apart. Same net -> no check; different nets ->
  // spacing error. (CLK/IN are chip-global labels, so equal labels merge.)
  for (const bool sameNet : {true, false}) {
    layout::Library lib;
    layout::Cell top;
    top.name = "top";
    top.elements.push_back(
        makeBox(nm, makeRect(0, 0, 10 * L, 3 * L), "CLK"));
    top.elements.push_back(makeBox(nm, makeRect(0, 4 * L, 10 * L, 7 * L),
                                   sameNet ? "CLK" : "IN1"));
    const auto root = lib.addCell(std::move(top));
    Checker checker(lib, root, t, {});
    const auto nl = checker.generateNetlist();
    const auto rep = checker.checkInteractions(nl);
    if (sameNet) {
      EXPECT_TRUE(rep.empty()) << rep.text();
    } else {
      ASSERT_EQ(rep.count(report::Category::kSpacing), 1u) << rep.text();
    }
  }
}

TEST_F(DrcTest, ResistorSameNetStillChecked) {
  // Fig. 5b: geometry electrically tied to a resistor body must still
  // keep its distance (a short would bypass the resistor).
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.resistor, {geom::Orient::kR0, {0, 0}}, "r1"});
  // Diff wire from port A, hooking around 1L below the body.
  top.elements.push_back(makeWire(nd,
                                  {{-4 * L, 0},
                                   {-8 * L, 0},
                                   {-8 * L, -4 * L},
                                   {0, -4 * L}},
                                  2 * L, "end"));
  const auto root = lib.addCell(std::move(top));
  Checker checker(lib, root, t, {});
  const auto nl = checker.generateNetlist();
  const auto rep = checker.checkInteractions(nl);
  EXPECT_GE(rep.count(report::Category::kSpacing), 1u) << rep.text();
}

TEST_F(DrcTest, CleanInverterHasNoViolations) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "i1"});
  const auto root = lib.addCell(std::move(top));
  Checker checker(lib, root, t, {});
  const auto rep = checker.run();
  EXPECT_TRUE(rep.empty()) << rep.text();
}

TEST_F(DrcTest, FlatAndHierarchicalAgree) {
  const workload::ChipParams params{.blockRows = 1,
                                    .blockCols = 2,
                                    .invRows = 2,
                                    .invCols = 2,
                                    .withPads = true};
  workload::GeneratedChip chip = workload::generateChip(t, params);

  Options flat;
  flat.hierarchicalInteractions = false;
  Options hier;
  hier.hierarchicalInteractions = true;

  Checker cf(chip.lib, chip.top, t, flat);
  Checker ch(chip.lib, chip.top, t, hier);
  const auto nlf = cf.generateNetlist();
  const auto nlh = ch.generateNetlist();
  const auto rf = cf.checkInteractions(nlf);
  const auto rh = ch.checkInteractions(nlh);
  EXPECT_EQ(rf.count(), rh.count()) << "flat:\n"
                                    << rf.text() << "hier:\n"
                                    << rh.text();
}

TEST_F(DrcTest, CleanChipIsCleanEndToEnd) {
  const workload::ChipParams params{.blockRows = 1,
                                    .blockCols = 1,
                                    .invRows = 2,
                                    .invCols = 2,
                                    .withPads = true};
  workload::GeneratedChip chip = workload::generateChip(t, params);
  Checker checker(chip.lib, chip.top, t, {});
  const auto rep = checker.run();
  EXPECT_TRUE(rep.empty()) << rep.text();
}

TEST_F(DrcTest, InteractionStatsPruneSameNet) {
  const workload::ChipParams params{.blockRows = 1,
                                    .blockCols = 1,
                                    .invRows = 2,
                                    .invCols = 2,
                                    .withPads = false};
  workload::GeneratedChip chip = workload::generateChip(t, params);
  Checker checker(chip.lib, chip.top, t, {});
  checker.run();
  const InteractionStats& s = checker.interactionStats();
  EXPECT_GT(s.candidatePairs, 0u);
  EXPECT_GT(s.sameNetSkipped + s.relatedSkipped, 0u);
  EXPECT_GT(s.noRulePairs, 0u);
}

// --- Same-named sibling instances -----------------------------------------

/// Two instances of a one-box metal leaf, both named "a", the second `dx`
/// to the right: two placements that share one path string.
struct SameNamedTwins {
  layout::Library lib;
  layout::CellId top{};

  SameNamedTwins(int metal, geom::Coord L, geom::Coord dx) {
    layout::Cell leaf;
    leaf.name = "leaf";
    leaf.elements.push_back(makeBox(metal, makeRect(0, 0, 10 * L, 3 * L)));
    const layout::CellId id = lib.addCell(std::move(leaf));
    layout::Cell p;
    p.name = "top";
    p.instances.push_back({id, geom::translate({0, 0}), "a"});
    p.instances.push_back({id, geom::translate({dx, 0}), "a"});
    top = lib.addCell(std::move(p));
  }
};

/// Sorted rule names of a report.
std::vector<std::string> ruleNames(const report::Report& rep) {
  std::vector<std::string> out;
  for (const report::Violation& v : rep.violations()) out.push_back(v.rule);
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(DrcTest, SameNamedSiblingsKeepSeparateNets) {
  // 2L apart (metal's diffNet rule is 3L), unlabeled: two nets, so the
  // pair is a DIFFNET spacing error in both interaction modes.
  SameNamedTwins fx(nm, L, 12 * L);
  std::string texts[2];
  for (const bool hier : {true, false}) {
    Options o;
    o.hierarchicalInteractions = hier;
    Checker c(fx.lib, fx.top, t, o);
    const report::Report rep = c.checkInteractions(c.generateNetlist());
    EXPECT_EQ(ruleNames(rep),
              (std::vector<std::string>{"S.metal.metal.DIFFNET"}))
        << "hierarchical=" << hier << "\n" << rep.text();
    texts[hier] = rep.text();
  }
  EXPECT_EQ(texts[0], texts[1]);
}

TEST_F(DrcTest, SameNamedSiblingsGetConnectionChecked) {
  // Abutting (touching, not skeletally connected): the connection error
  // belongs to the pair of two different instances, not to one instance
  // whose connections stage 3 already checked.
  SameNamedTwins fx(nm, L, 10 * L);
  std::string texts[2];
  for (const bool hier : {true, false}) {
    Options o;
    o.hierarchicalInteractions = hier;
    Checker c(fx.lib, fx.top, t, o);
    const report::Report rep = c.checkInteractions(c.generateNetlist());
    EXPECT_EQ(ruleNames(rep), (std::vector<std::string>{
                                  "CONN.metal", "S.metal.metal.DIFFNET"}))
        << "hierarchical=" << hier << "\n" << rep.text();
    texts[hier] = rep.text();
  }
  EXPECT_EQ(texts[0], texts[1]);
}

// --- Node-id net lookups vs the path-keyed reference ------------------------

/// The path-string lookups net relations were once resolved by, kept as
/// the reference for InteractionContext's node-id lookups:
/// "path#cell#index" -> net, device path -> sorted distinct port nets,
/// and the set of resistor device paths.
struct PathKeyedNets {
  std::map<std::string, int> netByKey;
  std::map<std::string, std::vector<int>> netsByDevice;
  std::set<std::string> resistors;

  static std::string key(const std::string& path, layout::CellId cell,
                         std::size_t index) {
    return path + "#" + std::to_string(cell) + "#" + std::to_string(index);
  }

  PathKeyedNets(const engine::HierarchyView& view,
                const netlist::Netlist& nl) {
    const engine::HierarchyView::Flat& f = view.flat(false);
    for (std::size_t i = 0;
         i < f.elements.size() && i < nl.elementNet.size(); ++i)
      netByKey[key(f.elements[i].path, f.elements[i].sourceCell,
                   f.elements[i].sourceIndex)] = nl.elementNet[i];
    for (const netlist::ExtractedDevice& d : nl.devices) {
      std::vector<int> nets;
      for (const auto& [port, net] : d.portNets) nets.push_back(net);
      std::sort(nets.begin(), nets.end());
      nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
      netsByDevice[d.path] = std::move(nets);
      if (d.cls == tech::DeviceClass::kResistor ||
          d.cls == tech::DeviceClass::kBipolarResistor)
        resistors.insert(d.path);
    }
  }

  int elementNet(const std::string& path, layout::CellId cell,
                 std::size_t index) const {
    const auto it = netByKey.find(key(path, cell, index));
    return it == netByKey.end() ? -1 : it->second;
  }
  const std::vector<int>* deviceNets(const std::string& path) const {
    const auto it = netsByDevice.find(path);
    return it == netsByDevice.end() ? nullptr : &it->second;
  }
};

/// The netlist test's reference chips: four sizes up to 256 inverters,
/// inject seeds none/7/42, each plain and after eight element nudges.
template <class Fn>
void forEachReferenceChip(const tech::Technology& t, Fn&& fn) {
  const workload::ChipParams sizes[] = {
      {1, 1, 2, 2, true}, {1, 2, 2, 3, true}, {2, 2, 2, 4, true},
      {2, 4, 4, 8, true}};
  for (const workload::ChipParams& size : sizes)
    for (const unsigned seed : {0u, 7u, 42u}) {
      workload::GeneratedChip chip = workload::generateChip(t, size);
      if (seed) workload::inject(chip, t, workload::InjectionPlan{}, seed);
      const std::string label = std::to_string(chip.inverterCount()) +
                                " inverters, inject seed " +
                                std::to_string(seed);
      fn(chip.lib, chip.top, label);
      for (std::uint64_t e = 0; e < 8; ++e) {
        const EditOp op =
            workload::makeEditOp(seed * 16 + e, chip.lib, chip.top);
        if (op.kind == EditOp::Kind::kSetElement)
          chip.lib.setElement(op.cell, op.index, op.element);
      }
      fn(chip.lib, chip.top, label + ", nudged");
    }
}

void expectLookupsMatchReference(const layout::Library& lib,
                                 layout::CellId top,
                                 const tech::Technology& t,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  Checker c(lib, top, t, {});
  const netlist::Netlist nl = c.generateNetlist();
  InteractionStats stats;
  InteractionContext ctx(c.view(), t, nl, Options{}.metric, stats);
  ctx.buildMaps();
  const PathKeyedNets ref(c.view(), nl);
  std::set<std::string> paths;
  for (const auto& [cell, places] : c.view().placements())
    for (const engine::Placement& p : places) {
      ASSERT_TRUE(paths.insert(p.path).second) << "paths must be unique";
      for (std::size_t k = 0; k < lib.cell(cell).elements.size(); ++k)
        EXPECT_EQ(ctx.elementNet(p.node, k), ref.elementNet(p.path, cell, k))
            << p.path << " #" << k;
      const std::vector<int>* got = ctx.deviceNets(p.node);
      const std::vector<int>* want = ref.deviceNets(p.path);
      ASSERT_EQ(got == nullptr, want == nullptr) << p.path;
      if (got) {
        EXPECT_EQ(*got, *want) << p.path;
      }
      EXPECT_EQ(ctx.isResistor(p.node), ref.resistors.count(p.path) > 0)
          << p.path;
    }
}

TEST(InteractionRelation, NodeLookupsMatchPathKeyedReference) {
  const tech::Technology t = tech::nmos();
  forEachReferenceChip(t, [&](const layout::Library& lib, layout::CellId top,
                              const std::string& label) {
    expectLookupsMatchReference(lib, top, t, label);
  });
  // The generated chips hold no resistor; Fig. 5b's fixture does.
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({cells.resistor, {geom::Orient::kR0, {0, 0}}, "r1"});
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 10000}}, "i1"});
  const layout::CellId root = lib.addCell(std::move(top));
  expectLookupsMatchReference(lib, root, t, "resistor + inverter");
}

TEST(InteractionRelation, ReportsByteIdenticalAcrossPoolSizes) {
  const tech::Technology t = tech::nmos();
  forEachReferenceChip(t, [&](const layout::Library& lib, layout::CellId top,
                              const std::string& label) {
    for (const bool hier : {true, false})
      for (const bool nets : {true, false}) {
        Options o;
        o.hierarchicalInteractions = hier;
        o.useNetInformation = nets;
        o.threads = 1;
        const std::string serial = Checker(lib, top, t, o).run().text();
        for (const int threads : {2, 8}) {
          o.threads = threads;
          EXPECT_EQ(Checker(lib, top, t, o).run().text(), serial)
              << label << ", hierarchical=" << hier << ", nets=" << nets
              << ", threads=" << threads;
        }
      }
  });
}

}  // namespace
}  // namespace dic::drc
