// Tests for netlist extraction: skeletal connectivity, device terminals,
// hierarchical names, label merging, golden comparison, and an all-pairs
// reference extraction that pins extract() and probeElementEdges() to the
// documented connectivity rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "engine/hierarchy_view.hpp"
#include "netlist/netlist.hpp"
#include "netlist_canonical.hpp"
#include "netlist/unionfind.hpp"
#include "service/workspace.hpp"
#include "tech/technology.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"

namespace dic::netlist {
namespace {

using geom::makeRect;
using layout::makeBox;
using layout::makeWire;

TEST(UnionFind, Basics) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.connected(0, 1));
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 4));
}

/// The reference extraction: the connectivity rules documented in
/// netlist.hpp applied to every pair of nodes, with no spatial grid and no
/// sweep. Node ids follow extract(): flat elements, then device ports in
/// (device, port) order, then one node per distinct global label.
struct Reference {
  Netlist netlist;
  /// Sorted connectivity edges of each flat element, as node ids.
  std::vector<std::vector<std::size_t>> elementEdges;
  /// Sorted (lower, higher) node pairs on one layer whose closed-valid
  /// bboxes touch: what candidatePairs() must find.
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
};

Reference referenceExtract(const layout::Library& lib, layout::CellId root,
                           const tech::Technology& tech) {
  const ExtractOptions opts;
  std::vector<layout::FlatElement> elements;
  std::vector<layout::FlatDevice> devices;
  lib.flatten(root, elements, devices, false);
  const std::size_t ne = elements.size();
  std::vector<std::pair<std::size_t, std::size_t>> portRefs;
  for (std::size_t d = 0; d < devices.size(); ++d)
    for (std::size_t p = 0; p < devices[d].ports.size(); ++p)
      portRefs.push_back({d, p});
  const std::size_t np = portRefs.size();
  const auto portAt = [&](std::size_t pn) -> const layout::Port& {
    return devices[portRefs[pn].first].ports[portRefs[pn].second];
  };
  std::map<std::string, std::size_t> labelNode;
  for (const layout::FlatElement& fe : elements)
    if (opts.mergeByLabel && !fe.element.net.empty() &&
        opts.isGlobalLabel(fe.element.net) && !labelNode.count(fe.element.net))
      labelNode.emplace(fe.element.net, ne + np + labelNode.size());

  Reference ref;
  ref.elementEdges.resize(ne);
  UnionFind uf(ne + np + labelNode.size());
  const auto connect = [&](std::size_t a, std::size_t b) {
    uf.unite(a, b);
    if (a < ne) ref.elementEdges[a].push_back(b);
    if (b < ne) ref.elementEdges[b].push_back(a);
  };

  // Every node's layer and bbox, for the candidate rule.
  std::vector<std::pair<int, geom::Rect>> shape;
  for (const layout::FlatElement& fe : elements)
    shape.push_back({fe.element.layer, fe.element.bbox()});
  for (std::size_t pn = 0; pn < np; ++pn)
    shape.push_back({portAt(pn).layer, portAt(pn).at});
  const auto candidate = [&](std::size_t a, std::size_t b) {
    return shape[a].first == shape[b].first &&
           shape[a].second.closedValid() && shape[b].second.closedValid() &&
           geom::closedTouch(shape[a].second, shape[b].second);
  };
  for (std::size_t a = 0; a < ne + np; ++a)
    for (std::size_t b = a + 1; b < ne + np; ++b)
      if (candidate(a, b)) ref.candidates.push_back({a, b});

  std::vector<geom::Skeleton> skels;
  for (const layout::FlatElement& fe : elements)
    skels.push_back(
        fe.element.skeleton(tech.layer(fe.element.layer).minWidth));
  for (std::size_t i = 0; i < ne; ++i) {
    for (std::size_t j = i + 1; j < ne; ++j)
      if (candidate(i, j) && geom::skeletonsConnected(skels[i], skels[j]))
        connect(i, j);
    const geom::Region region = elements[i].element.region();
    for (std::size_t pn = 0; pn < np; ++pn) {
      const geom::Rect& at = portAt(pn).at;
      if (candidate(i, ne + pn) &&
          std::any_of(region.rects().begin(), region.rects().end(),
                      [&](const geom::Rect& r) {
                        return geom::closedTouch(r, at);
                      }))
        connect(i, ne + pn);
    }
  }
  for (std::size_t pn = 0; pn < np; ++pn)
    for (std::size_t qn = pn + 1; qn < np; ++qn) {
      const int group = portAt(pn).internalGroup;
      const bool grouped = portRefs[pn].first == portRefs[qn].first &&
                           group >= 0 && group == portAt(qn).internalGroup;
      if (candidate(ne + pn, ne + qn) || grouped) connect(ne + pn, ne + qn);
    }
  for (std::size_t i = 0; i < ne; ++i)
    if (labelNode.count(elements[i].element.net))
      uf.unite(i, labelNode.at(elements[i].element.net));
  for (std::vector<std::size_t>& edges : ref.elementEdges)
    std::sort(edges.begin(), edges.end());

  // Nets are numbered in first-encounter node order: elements, then ports.
  Netlist& nl = ref.netlist;
  std::map<std::size_t, int> rootToNet;
  const auto netOf = [&](std::size_t node) {
    const auto [it, fresh] = rootToNet.emplace(
        uf.find(node), static_cast<int>(nl.nets.size()));
    if (fresh) {
      nl.nets.emplace_back();
      nl.nets.back().id = it->second;
    }
    return it->second;
  };
  for (std::size_t i = 0; i < ne; ++i) {
    const layout::FlatElement& fe = elements[i];
    const int id = netOf(i);
    nl.elementNet.push_back(id);
    Net& n = nl.nets[id];
    n.elementCount++;
    n.bbox = geom::bound(n.bbox, fe.element.bbox());
    const std::string& label = fe.element.net;
    if (label.empty()) continue;
    const std::string name = fe.path.empty() || opts.isGlobalLabel(label)
                                 ? label
                                 : fe.path + "." + label;
    if (!n.hasName(name)) n.names.push_back(name);
  }
  // Devices carry only the fields canonicalText compares.
  for (const layout::FlatDevice& d : devices) {
    nl.devices.emplace_back();
    nl.devices.back().path = d.path;
    nl.devices.back().type = d.deviceType;
  }
  for (std::size_t pn = 0; pn < np; ++pn) {
    const std::size_t d = portRefs[pn].first;
    const int id = netOf(ne + pn);
    nl.devices[d].portNets[portAt(pn).name] = id;
    nl.nets[id].terminals.push_back({d, portAt(pn).name, id});
  }
  return ref;
}

/// extract() reproduces the reference netlist byte for byte, directly
/// and as a pipeline stage of Workspace batches (beside a DRC request on
/// the same view) at pool sizes 1, 2 and 8; candidatePairs() finds
/// exactly the reference's candidates; and probeElementEdges() returns
/// the reference's edges for every flat element.
void expectMatchesReference(const layout::Library& lib, layout::CellId root,
                            const tech::Technology& t,
                            const std::string& label) {
  const Reference ref = referenceExtract(lib, root, t);
  const std::string want = testing::canonicalText(ref.netlist);
  engine::HierarchyView view(lib, root);
  EXPECT_EQ(want, testing::canonicalText(extract(view, t))) << label;
  auto pairs = candidatePairs(view);
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(ref.candidates, pairs) << label;
  for (std::size_t k = 0; k < ref.elementEdges.size(); ++k)
    EXPECT_EQ(ref.elementEdges[k], probeElementEdges(view, t, k))
        << label << " element " << k;
  for (const int threads : {1, 2, 8}) {
    Workspace ws(lib, t, WorkspaceOptions{threads});
    const CheckRequest batch[] = {CheckRequest::drc(root),
                                  CheckRequest::netlistOnly(root)};
    const std::vector<CheckResult> rs = ws.runBatch(batch);
    ASSERT_TRUE(rs[1].ok() && rs[1].netlist) << label;
    EXPECT_EQ(want, testing::canonicalText(*rs[1].netlist))
        << label << " threads=" << threads;
  }
}

class ExtractTest : public ::testing::Test {
 protected:
  tech::Technology t = tech::nmos();
  const int nm = *t.layerByName("metal");
  const int np = *t.layerByName("poly");
  const geom::Coord L = t.lambda();
};

TEST_F(ExtractTest, TwoOverlappingWiresOneNet) {
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeWire(nm, {{0, 0}, {40 * L, 0}}, 3 * L));
  top.elements.push_back(makeWire(nm, {{20 * L, 0}, {20 * L, 40 * L}}, 3 * L));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 1u);
  EXPECT_EQ(nl.nets[0].elementCount, 2u);
}

TEST_F(ExtractTest, AbuttingMinWidthWiresNotConnected) {
  // Fig. 11 right: skeletons of merely-abutting elements do not touch.
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  top.elements.push_back(makeBox(nm, makeRect(10 * L, 0, 20 * L, 3 * L)));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
}

TEST_F(ExtractTest, DifferentLayersStayApart) {
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L)));
  top.elements.push_back(makeBox(np, makeRect(0, 0, 10 * L, 3 * L)));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
}

TEST_F(ExtractTest, GlobalLabelMergesWithoutGeometry) {
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L), "VDD"));
  top.elements.push_back(
      makeBox(nm, makeRect(100 * L, 0, 110 * L, 3 * L), "VDD"));
  top.elements.push_back(
      makeBox(nm, makeRect(200 * L, 0, 210 * L, 3 * L), "local"));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
  const Net* vdd = nl.findNet("VDD");
  ASSERT_NE(vdd, nullptr);
  EXPECT_EQ(vdd->elementCount, 2u);
}

TEST_F(ExtractTest, LocalLabelsQualifiedByPath) {
  layout::Library lib;
  layout::Cell leaf;
  leaf.name = "leaf";
  leaf.elements.push_back(makeBox(nm, makeRect(0, 0, 10 * L, 3 * L), "out"));
  const auto leafId = lib.addCell(std::move(leaf));
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({leafId, {geom::Orient::kR0, {0, 0}}, "a"});
  top.instances.push_back(
      {leafId, {geom::Orient::kR0, {0, 100 * L}}, "b"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  EXPECT_EQ(nl.nets.size(), 2u);
  EXPECT_NE(nl.findNet("a.out"), nullptr);
  EXPECT_NE(nl.findNet("b.out"), nullptr);
}

TEST_F(ExtractTest, DeviceTerminalsAndInternalGroups) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  // A metal wire onto a contact's metal side; a diff check through its
  // internal group is implied by the contact device semantics.
  top.instances.push_back(
      {cells.contactMD, {geom::Orient::kR0, {0, 0}}, "c1"});
  top.elements.push_back(
      makeWire(nm, {{0, 0}, {30 * L, 0}}, 3 * L, "sig"));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 1u);
  const ExtractedDevice& d = nl.devices[0];
  EXPECT_EQ(d.type, "CON_MD");
  // Both ports are on the same net (internal group) and that net carries
  // the wire's label.
  ASSERT_EQ(d.portNets.size(), 2u);
  EXPECT_EQ(d.portNets.at("A"), d.portNets.at("B"));
  EXPECT_TRUE(nl.nets[d.portNets.at("A")].hasName("sig"));
}

TEST_F(ExtractTest, TransistorKeepsSourceDrainApart) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  const int nd = *t.layerByName("diff");
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({cells.tran, {geom::Orient::kR0, {0, 0}}, "t1"});
  top.elements.push_back(
      makeWire(nd, {{0, -3 * L}, {0, -20 * L}}, 2 * L, "s"));
  top.elements.push_back(makeWire(nd, {{0, 3 * L}, {0, 20 * L}}, 2 * L, "d"));
  top.elements.push_back(
      makeWire(np, {{-3 * L, 0}, {-20 * L, 0}}, 2 * L, "g"));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 1u);
  const ExtractedDevice& d = nl.devices[0];
  EXPECT_NE(d.portNets.at("S"), d.portNets.at("D"));
  EXPECT_NE(d.portNets.at("G"), d.portNets.at("S"));
  EXPECT_TRUE(nl.nets[d.portNets.at("S")].hasName("s"));
  EXPECT_TRUE(nl.nets[d.portNets.at("D")].hasName("d"));
  EXPECT_TRUE(nl.nets[d.portNets.at("G")].hasName("g"));
  // G and G2 are the same poly piece.
  EXPECT_EQ(d.portNets.at("G"), d.portNets.at("G2"));
}

TEST_F(ExtractTest, InverterExtractsAsExpected) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "i1"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);

  // Devices: driver, load, 4 contacts.
  ASSERT_EQ(nl.devices.size(), 6u);
  const ExtractedDevice* driver = nullptr;
  const ExtractedDevice* load = nullptr;
  for (const ExtractedDevice& d : nl.devices) {
    if (d.type == "TRAN") driver = &d;
    if (d.type == "DTRAN") load = &d;
  }
  ASSERT_NE(driver, nullptr);
  ASSERT_NE(load, nullptr);

  const Net* vdd = nl.findNet("VDD");
  const Net* gnd = nl.findNet("GND");
  ASSERT_NE(vdd, nullptr);
  ASSERT_NE(gnd, nullptr);
  EXPECT_NE(vdd->id, gnd->id);

  // Driver: source on GND, drain on the output, gate on the input.
  EXPECT_EQ(driver->portNets.at("S"), gnd->id);
  const int outNet = driver->portNets.at("D");
  EXPECT_NE(outNet, gnd->id);
  // Load: source tied to output, gate tied to output (depletion load),
  // drain on VDD.
  EXPECT_EQ(load->portNets.at("S"), outNet);
  EXPECT_EQ(load->portNets.at("G"), outNet);
  EXPECT_EQ(load->portNets.at("D"), vdd->id);
  // Input is its own net.
  EXPECT_NE(driver->portNets.at("G"), outNet);
  EXPECT_NE(driver->portNets.at("G"), gnd->id);
}

TEST_F(ExtractTest, GoldenComparisonAcceptsInverter) {
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);
  layout::Cell top;
  top.name = "top";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "i1"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);

  std::vector<GoldenDevice> golden = {
      {"TRAN", {{"G", "in"}, {"S", "GND"}, {"D", "out"}}},
      {"DTRAN", {{"G", "out"}, {"S", "out"}, {"D", "VDD"}}},
      {"CON_MD", {{"A", "out"}}},
      {"CON_MD", {{"A", "GND"}}},
      {"CON_MD", {{"A", "VDD"}}},
      {"CON_MP", {{"A", "out"}}},
  };
  EXPECT_TRUE(compareAgainstGolden(nl, golden).empty());

  // A wrong golden (driver source on VDD) must be rejected.
  std::vector<GoldenDevice> wrong = golden;
  wrong[0].ports["S"] = "VDD";
  EXPECT_FALSE(compareAgainstGolden(nl, wrong).empty());
}

/// A device cell with the given ports and no internal geometry in the
/// flat(false) view, so only its ports take part in extraction.
layout::CellId addTerminalCell(layout::Library& lib, const std::string& name,
                               std::vector<layout::Port> ports) {
  layout::Cell c;
  c.name = name;
  c.deviceType = "TERM";
  for (const layout::Port& p : ports)
    if (p.at.closedValid()) c.elements.push_back(makeBox(0, p.at));
  c.ports = std::move(ports);
  return lib.addCell(std::move(c));
}

TEST_F(ExtractTest, InvertedBBoxElementNeverConnects) {
  // Flattening normalizes boxes, but a negative-width wire keeps an
  // inverted bbox. Its corners lie inside the metal bar and the port, so
  // a bare closedTouch of the rects would pass.
  layout::Library lib;
  const auto dev = addTerminalCell(
      lib, "term", {{"P", nm, makeRect(0, 0, 2 * L, 2 * L), -1}});
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeBox(nm, makeRect(0, 0, 20 * L, 3 * L)));
  top.elements.push_back(makeWire(nm, {{5 * L, L}, {6 * L, 2 * L}}, -2 * L));
  top.instances.push_back({dev, {geom::Orient::kR0, {5 * L, 1 * L}}, "d"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.elementNet.size(), 2u);
  engine::HierarchyView view(lib, root);
  ASSERT_FALSE(view.flat(false).bboxes[1].closedValid());
  EXPECT_NE(nl.elementNet[0], nl.elementNet[1]);
  EXPECT_EQ(nl.devices[0].portNets.at("P"), nl.elementNet[0]);
  EXPECT_TRUE(probeElementEdges(view, t, 1).empty());
  expectMatchesReference(lib, root, t, "inverted");
}

TEST_F(ExtractTest, NegativeLayerPortsShortOnlyOnTheirOwnLayer) {
  // Negative layer ids compare by value: two abutting ports on layer -1
  // short; a port on layer -2 over the same spot stays apart.
  layout::Library lib;
  const auto a = addTerminalCell(
      lib, "a", {{"P", -1, makeRect(0, 0, 2 * L, 2 * L), -1}});
  const auto b = addTerminalCell(
      lib, "b", {{"P", -2, makeRect(0, 0, 2 * L, 2 * L), -1}});
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({a, {geom::Orient::kR0, {0, 0}}, "a1"});
  top.instances.push_back({a, {geom::Orient::kR0, {2 * L, 0}}, "a2"});
  top.instances.push_back({b, {geom::Orient::kR0, {2 * L, 0}}, "b1"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 3u);
  EXPECT_EQ(nl.devices[0].portNets.at("P"), nl.devices[1].portNets.at("P"));
  EXPECT_NE(nl.devices[0].portNets.at("P"), nl.devices[2].portNets.at("P"));
  expectMatchesReference(lib, root, t, "negative layer");
}

TEST_F(ExtractTest, ZeroLengthWireConnectsThroughItsPoint) {
  layout::Library lib;
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeWire(nm, {{0, 0}, {20 * L, 0}}, 3 * L));
  top.elements.push_back(makeWire(nm, {{10 * L, 0}, {10 * L, 0}}, 3 * L));
  top.elements.push_back(makeWire(nm, {{50 * L, 0}, {50 * L, 0}}, 3 * L));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.elementNet.size(), 3u);
  EXPECT_EQ(nl.elementNet[0], nl.elementNet[1]);
  EXPECT_NE(nl.elementNet[0], nl.elementNet[2]);
  expectMatchesReference(lib, root, t, "zero-length wire");
}

TEST_F(ExtractTest, AbuttingPortsOfTwoDevicesShort) {
  layout::Library lib;
  const auto dev = addTerminalCell(
      lib, "term", {{"P", nm, makeRect(0, 0, 2 * L, 2 * L), -1}});
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({dev, {geom::Orient::kR0, {0, 0}}, "d1"});
  top.instances.push_back({dev, {geom::Orient::kR0, {2 * L, 0}}, "d2"});
  top.instances.push_back({dev, {geom::Orient::kR0, {5 * L, 0}}, "d3"});
  top.elements.push_back(makeWire(nm, {{0, 0}, {0, 20 * L}}, 2 * L, "sig"));
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 3u);
  const int p1 = nl.devices[0].portNets.at("P");
  EXPECT_EQ(p1, nl.devices[1].portNets.at("P"));
  EXPECT_NE(p1, nl.devices[2].portNets.at("P"));
  EXPECT_TRUE(nl.nets[p1].hasName("sig"));
  expectMatchesReference(lib, root, t, "two-device abut");
}

TEST_F(ExtractTest, AbuttingPortsOfOneDeviceShort) {
  // Ports of one device short when they abut on one layer, even with no
  // internal group; apart, or on different layers, they stay separate.
  layout::Library lib;
  const auto abut = addTerminalCell(
      lib, "abut",
      {{"A", nm, makeRect(0, 0, 2 * L, 2 * L), -1},
       {"B", nm, makeRect(2 * L, 0, 4 * L, 2 * L), -1}});
  const auto apart = addTerminalCell(
      lib, "apart",
      {{"A", nm, makeRect(0, 0, 2 * L, 2 * L), -1},
       {"B", nm, makeRect(3 * L, 0, 5 * L, 2 * L), -1},
       {"C", np, makeRect(2 * L, 0, 3 * L, 2 * L), -1}});
  layout::Cell top;
  top.name = "top";
  top.instances.push_back({abut, {geom::Orient::kR0, {0, 0}}, "u"});
  top.instances.push_back({apart, {geom::Orient::kR0, {0, 20 * L}}, "v"});
  const auto root = lib.addCell(std::move(top));
  const Netlist nl = extract(lib, root, t);
  ASSERT_EQ(nl.devices.size(), 2u);
  EXPECT_EQ(nl.devices[0].portNets.at("A"), nl.devices[0].portNets.at("B"));
  const auto& v = nl.devices[1].portNets;
  EXPECT_NE(v.at("A"), v.at("B"));
  EXPECT_NE(v.at("A"), v.at("C"));
  EXPECT_NE(v.at("B"), v.at("C"));
  expectMatchesReference(lib, root, t, "one-device abut");
}

TEST_F(ExtractTest, CandidateSearchEdgeCasesMatchAllPairs) {
  // Each case is its own chip, so a case's layers hold only its items;
  // expectMatchesReference checks candidatePairs() against all pairs.
  {
    // Zero-area but closedValid items: a degenerate box, a zero-width
    // wire and width-0 points, spread far apart so the median extent is 0
    // and the grid has to coarsen; one point sits on the wire's end.
    layout::Library lib;
    layout::Cell top;
    top.name = "top";
    top.elements.push_back(makeBox(nm, makeRect(0, 0, 0, 5 * L)));
    top.elements.push_back(makeWire(nm, {{0, 2 * L}, {9 * L, 2 * L}}, 0));
    for (int k = 0; k < 40; ++k)
      top.elements.push_back(
          makeWire(nm, {{k * 1000 * L, k * 37 * L}, {k * 1000 * L, k * 37 * L}},
                   0));
    top.elements.push_back(makeWire(nm, {{9 * L, 2 * L}}, 0));
    const auto root = lib.addCell(std::move(top));
    expectMatchesReference(lib, root, t, "zero-area items");
  }
  {
    // Negative coordinates, one rail spanning the layer, stacked
    // identical boxes, and a single-item poly layer.
    layout::Library lib;
    layout::Cell top;
    top.name = "top";
    top.elements.push_back(
        makeWire(nm, {{-500 * L, -40 * L}, {500 * L, -40 * L}}, 4 * L, "VDD"));
    for (int k = -20; k < 20; ++k)
      top.elements.push_back(makeBox(
          nm, makeRect(k * 25 * L, -50 * L, k * 25 * L + 3 * L, -38 * L)));
    for (int k = 0; k < 3; ++k)
      top.elements.push_back(
          makeBox(nm, makeRect(-300 * L, -90 * L, -290 * L, -80 * L)));
    top.elements.push_back(
        makeBox(np, makeRect(-7 * L, -7 * L, -5 * L, -5 * L)));
    const auto root = lib.addCell(std::move(top));
    expectMatchesReference(lib, root, t, "rail, stacks, negative coords");
  }
  {
    // Negative layer ids (ports need no technology layer), coordinates
    // near 2^40 on both sides, abutting and stacked ports, and a
    // single-item layer.
    const geom::Coord far = geom::Coord{1} << 40;
    layout::Library lib;
    const auto a = addTerminalCell(
        lib, "a", {{"P", -3, makeRect(0, 0, 2 * L, 2 * L), -1}});
    const auto b = addTerminalCell(
        lib, "b", {{"P", -1, makeRect(0, 0, 0, 2 * L), -1}});
    const auto c = addTerminalCell(
        lib, "c", {{"P", -7, makeRect(0, 0, L, L), -1}});
    layout::Cell top;
    top.name = "top";
    top.instances.push_back({a, {geom::Orient::kR0, {-far, -far}}, "a1"});
    top.instances.push_back({a, {geom::Orient::kR0, {-far + 2 * L, -far}}, "a2"});
    top.instances.push_back({a, {geom::Orient::kR0, {far, far}}, "a3"});
    top.instances.push_back({a, {geom::Orient::kR0, {far, far}}, "a4"});
    top.instances.push_back({b, {geom::Orient::kR0, {-far, 0}}, "b1"});
    top.instances.push_back({b, {geom::Orient::kR0, {-far, 2 * L}}, "b2"});
    top.instances.push_back({c, {geom::Orient::kR0, {5 * L, 5 * L}}, "c1"});
    const auto root = lib.addCell(std::move(top));
    expectMatchesReference(lib, root, t, "negative layers, far coords");
  }
}

/// The element-port predicate as it stood before extraction stopped
/// building regions for it: the element's region (closed) touches the
/// port rect.
bool regionTouchesPort(const layout::Element& e, const geom::Rect& port) {
  if (!geom::closedTouch(e.bbox(), port)) return false;
  const geom::Region region = e.region();
  return std::any_of(region.rects().begin(), region.rects().end(),
                     [&](const geom::Rect& r) {
                       return geom::closedTouch(r, port);
                     });
}

/// For every (flat element, port) pair below `root`: the port is among
/// the element's probeElementEdges() -- decided by the predicate extract()
/// also uses -- iff it is on the element's layer and regionTouchesPort()
/// holds. Returns the number of touching pairs.
std::size_t expectPortEdgesMatchRegion(const layout::Library& lib,
                                       layout::CellId root,
                                       const tech::Technology& t,
                                       const std::string& label) {
  engine::HierarchyView view(lib, root);
  const engine::HierarchyView::Flat& flat = view.flat(false);
  const std::vector<engine::HierarchyView::PortRef>& ports = view.ports();
  const std::size_t ne = flat.elements.size();
  std::size_t touching = 0;
  for (std::size_t k = 0; k < ne; ++k) {
    const layout::Element& e = flat.elements[k].element;
    std::vector<std::size_t> want;
    for (std::size_t pn = 0; pn < ports.size(); ++pn) {
      const layout::Port& p =
          flat.devices[ports[pn].device].ports[ports[pn].port];
      if (p.layer == e.layer && regionTouchesPort(e, p.at))
        want.push_back(ne + pn);
    }
    touching += want.size();
    std::vector<std::size_t> got = probeElementEdges(view, t, k);
    std::erase_if(got, [&](std::size_t node) { return node < ne; });
    EXPECT_EQ(want, got) << label << " element " << k;
  }
  return touching;
}

TEST_F(ExtractTest, PortPredicateMatchesRegionOnEdgeCases) {
  // One metal port per probe spot; each element below is aimed at some
  // of them. Odd widths in database units put the extra unit of a wire's
  // caps on the hi side.
  layout::Library lib;
  std::vector<geom::Rect> spots = {
      makeRect(2, 0, 4, 1),             // on the point wire's hi cap edge
      makeRect(-3, 0, -2, 1),           // 1 short of its lo cap
      makeRect(-2, -2, -1, -1),         // its lo corner, corner only
      makeRect(12 * L, -L, 13 * L, L),  // crossed by the zero-width wire
      makeRect(21 * L, 0, 22 * L, L),   // crossed by the zero-area box
      makeRect(32 * L, 2 * L, 34 * L, 4 * L),  // box corner, corner only
      makeRect(51 * L, L, 52 * L, 2 * L),      // wire cap corner only
      makeRect(60 * L, 7 * L, 62 * L, 9 * L),  // L-wire bbox, off segments
      makeRect(70 * L, 6 * L, 72 * L, 8 * L),  // polygon notch, bbox only
      makeRect(70 * L, 0, 72 * L, L),          // polygon bottom edge
      makeRect(76 * L, 5 * L, 78 * L, 6 * L),  // polygon's upper arm
      makeRect(400, 0, 401, 3),                // odd-width dup-point wire
  };
  layout::Cell top;
  top.name = "top";
  top.elements.push_back(makeWire(nm, {{0, 0}}, 3));             // point
  top.elements.push_back(makeWire(nm, {{10 * L, 0}, {15 * L, 0}}, 0));
  top.elements.push_back(makeBox(nm, makeRect(21 * L, -L, 21 * L, 2 * L)));
  top.elements.push_back(makeBox(nm, makeRect(30 * L, 0, 32 * L, 2 * L)));
  top.elements.push_back(makeWire(nm, {{40 * L, 0}, {50 * L, 0}}, 2 * L));
  top.elements.push_back(
      makeWire(nm, {{55 * L, 0}, {65 * L, 0}, {65 * L, 10 * L}}, 2 * L));
  top.elements.push_back(layout::makePolygon(
      nm, {{70 * L, 0},
           {80 * L, 0},
           {80 * L, 10 * L},
           {76 * L, 10 * L},
           {76 * L, 5 * L},
           {70 * L, 5 * L}}));
  top.elements.push_back(makeWire(nm, {{398, 0}, {398, 0}}, 5));
  top.elements.push_back(makeWire(np, {{0, 0}, {100 * L, 0}}, 2 * L));
  for (std::size_t k = 0; k < spots.size(); ++k) {
    const auto dev = addTerminalCell(lib, "term" + std::to_string(k),
                                     {{"P", nm, spots[k], -1}});
    top.instances.push_back(
        {dev, geom::identityTransform(), "p" + std::to_string(k)});
  }
  const auto root = lib.addCell(std::move(top));
  // Touching: the point wire's hi cap edge and lo corner, the box and
  // wire-cap corners, the polygon's bottom edge and upper arm, the
  // dup-point wire; the poly wire crosses every spot on the wrong layer.
  EXPECT_EQ(7u, expectPortEdgesMatchRegion(lib, root, t, "edge cases"));
  expectMatchesReference(lib, root, t, "port predicate edge cases");
}

/// The generated chips the reference tests run on, up to 256 inverters.
constexpr workload::ChipParams kReferenceChips[] = {
    {1, 1, 2, 2, true}, {1, 2, 2, 3, true}, {2, 2, 2, 4, true},
    {2, 4, 4, 8, true}};

TEST(ExtractReference, ChipsMatchAllPairsExtraction) {
  // Generated chips up to 256 inverters, each plain and with injected
  // defects, then again after seeded element nudges (expectMatchesReference
  // lists what must agree).
  const tech::Technology t = tech::nmos();
  for (const workload::ChipParams& size : kReferenceChips)
    for (const unsigned seed : {0u, 7u, 42u}) {
      workload::GeneratedChip chip = workload::generateChip(t, size);
      if (seed) workload::inject(chip, t, workload::InjectionPlan{}, seed);
      const std::string label = std::to_string(chip.inverterCount()) +
                                " inverters, inject seed " +
                                std::to_string(seed);
      expectMatchesReference(chip.lib, chip.top, t, label);
      for (std::uint64_t e = 0; e < 8; ++e) {
        const EditOp op = workload::makeEditOp(seed * 16 + e, chip.lib,
                                               chip.top);
        if (op.kind == EditOp::Kind::kSetElement)
          chip.lib.setElement(op.cell, op.index, op.element);
      }
      expectMatchesReference(chip.lib, chip.top, t, label + ", nudged");
    }
}

TEST(PortPredicate, MatchesRegionOnReferenceChips) {
  // Every (element, port) pair of the reference chips, plain, with
  // injected defects, and after seeded nudges.
  const tech::Technology t = tech::nmos();
  for (const workload::ChipParams& size : kReferenceChips)
    for (const unsigned seed : {0u, 7u, 42u}) {
      workload::GeneratedChip chip = workload::generateChip(t, size);
      if (seed) workload::inject(chip, t, workload::InjectionPlan{}, seed);
      const std::string label = std::to_string(chip.inverterCount()) +
                                " inverters, inject seed " +
                                std::to_string(seed);
      EXPECT_GT(expectPortEdgesMatchRegion(chip.lib, chip.top, t, label), 0u);
      for (std::uint64_t e = 0; e < 8; ++e) {
        const EditOp op = workload::makeEditOp(seed * 16 + e, chip.lib,
                                               chip.top);
        if (op.kind == EditOp::Kind::kSetElement)
          chip.lib.setElement(op.cell, op.index, op.element);
      }
      expectPortEdgesMatchRegion(chip.lib, chip.top, t, label + ", nudged");
    }
}

}  // namespace
}  // namespace dic::netlist
