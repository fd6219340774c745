#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "engine/hierarchy_view.hpp"
#include "netlist/netlist.hpp"
#include "netlist/unionfind.hpp"

namespace dic::netlist {

namespace {

/// True if the element's region (closed) touches the port rect.
bool elementTouchesPort(const layout::Element& e, const geom::Rect& port) {
  if (!geom::closedTouch(e.bbox(), port)) return false;
  const geom::Region region = e.region();
  for (const geom::Rect& r : region.rects())
    if (geom::closedTouch(r, port)) return true;
  return false;
}

/// One flat element or device port in the candidate sweep.
struct SweepItem {
  geom::Rect box;
  int layer{0};
  std::size_t node{0};
};

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> candidatePairs(
    engine::HierarchyView& view) {
  const engine::HierarchyView::Flat& flat = view.flat(false);
  const std::vector<engine::HierarchyView::PortRef>& portNodes = view.ports();
  const std::size_t ne = flat.elements.size();
  std::vector<SweepItem> items;
  items.reserve(ne + portNodes.size());
  for (std::size_t i = 0; i < ne; ++i)
    items.push_back({flat.bboxes[i], flat.elements[i].element.layer, i});
  for (std::size_t pn = 0; pn < portNodes.size(); ++pn) {
    const layout::Port& port =
        flat.devices[portNodes[pn].device].ports[portNodes[pn].port];
    items.push_back({port.at, port.layer, ne + pn});
  }
  std::erase_if(items,
                [](const SweepItem& it) { return !it.box.closedValid(); });
  std::sort(items.begin(), items.end(),
            [](const SweepItem& a, const SweepItem& b) {
              return std::tie(a.layer, a.box.lo.x, a.node) <
                     std::tie(b.layer, b.box.lo.x, b.node);
            });
  // Sorted by lo.x within a layer, so every later item whose lo.x is
  // within this item's hi.x overlaps it in x; only y remains to test.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const SweepItem& a = items[i];
    for (std::size_t j = i + 1; j < items.size() &&
                                items[j].layer == a.layer &&
                                items[j].box.lo.x <= a.box.hi.x;
         ++j)
      if (geom::closedTouch(a.box, items[j].box))
        pairs.emplace_back(std::min(a.node, items[j].node),
                           std::max(a.node, items[j].node));
  }
  return pairs;
}

Netlist extract(const layout::Library& lib, layout::CellId root,
                const tech::Technology& tech, const ExtractOptions& opts) {
  engine::HierarchyView view(lib, root);
  return extract(view, tech, opts);
}

Netlist extract(engine::HierarchyView& view, const tech::Technology& tech,
                const ExtractOptions& opts) {
  Netlist out;

  const engine::HierarchyView::Flat& flat = view.flat(false);
  const std::vector<layout::FlatElement>& elements = flat.elements;
  const std::vector<layout::FlatDevice>& devices = flat.devices;
  const std::vector<geom::Rect>& bboxes = flat.bboxes;

  // Node ids: elements first, then (device, port) pairs, then one node per
  // distinct global label.
  const std::size_t ne = elements.size();
  const std::vector<engine::HierarchyView::PortRef>& portNodes = view.ports();
  const std::size_t np = portNodes.size();
  const auto portAt = [&](std::size_t pn) -> const layout::Port& {
    return devices[portNodes[pn].device].ports[portNodes[pn].port];
  };
  std::map<std::string, std::size_t> labelNode;
  if (opts.mergeByLabel) {
    for (const auto& fe : elements)
      if (!fe.element.net.empty() && opts.isGlobalLabel(fe.element.net) &&
          !labelNode.count(fe.element.net))
        labelNode.emplace(fe.element.net, ne + np + labelNode.size());
  }
  UnionFind uf(ne + np + labelNode.size());

  // Exact tests on the swept candidates only. Net numbering depends only
  // on the final partition (ids are assigned in first-encounter node
  // order when nets are built), not on the order of the unions.
  std::vector<geom::Skeleton> skels(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    const layout::Element& e = elements[i].element;
    skels[i] = e.skeleton(tech.layer(e.layer).minWidth);
  }
  for (const auto& [a, b] : candidatePairs(view)) {
    const bool connected =
        b < ne   ? geom::skeletonsConnected(skels[a], skels[b])  // Fig. 11
        : a < ne ? elementTouchesPort(elements[a].element, portAt(b - ne).at)
                 : true;  // abutting ports short directly
    if (connected) uf.unite(a, b);
  }

  // Internal groups connect ports of the same device (contacts).
  for (std::size_t pn = 0; pn < np; ++pn) {
    const int group = portAt(pn).internalGroup;
    if (group < 0) continue;
    for (std::size_t qn = pn + 1;
         qn < np && portNodes[qn].device == portNodes[pn].device; ++qn)
      if (portAt(qn).internalGroup == group) uf.unite(ne + pn, ne + qn);
  }

  // Global label merging.
  if (opts.mergeByLabel) {
    for (std::size_t i = 0; i < ne; ++i) {
      const std::string& label = elements[i].element.net;
      if (!label.empty() && opts.isGlobalLabel(label))
        uf.unite(i, labelNode.at(label));
    }
  }

  // Build nets.
  std::map<std::size_t, int> rootToNet;
  auto netOf = [&](std::size_t node) {
    const std::size_t r = uf.find(node);
    auto it = rootToNet.find(r);
    if (it != rootToNet.end()) return it->second;
    const int id = static_cast<int>(out.nets.size());
    Net n;
    n.id = id;
    out.nets.push_back(std::move(n));
    rootToNet.emplace(r, id);
    return id;
  };

  out.elementNet.resize(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    const int id = netOf(i);
    out.elementNet[i] = id;
    out.nets[id].elementCount++;
    out.nets[id].bbox = geom::bound(out.nets[id].bbox, bboxes[i]);
    const std::string& label = elements[i].element.net;
    if (!label.empty()) {
      // Global labels keep their bare name; local labels are qualified
      // with the dot-notation instance path ("a.b refers to element b in
      // the instance a").
      const std::string qualified =
          elements[i].path.empty() || opts.isGlobalLabel(label)
              ? label
              : elements[i].path + "." + label;
      if (!out.nets[id].hasName(qualified))
        out.nets[id].names.push_back(qualified);
    }
  }

  out.devices.reserve(devices.size());
  for (std::size_t d = 0; d < devices.size(); ++d) {
    ExtractedDevice ed;
    ed.path = devices[d].path;
    ed.type = devices[d].deviceType;
    const tech::DeviceRules* rules = tech.deviceRules(ed.type);
    if (rules) ed.cls = rules->cls;
    ed.cell = devices[d].cell;
    ed.bbox = devices[d].bbox;
    out.devices.push_back(std::move(ed));
  }
  for (std::size_t pn = 0; pn < portNodes.size(); ++pn) {
    const std::size_t d = portNodes[pn].device;
    const int id = netOf(ne + pn);
    const std::string& portName = devices[d].ports[portNodes[pn].port].name;
    out.devices[d].portNets[portName] = id;
    out.nets[id].terminals.push_back({d, portName, id});
  }

  return out;
}

std::vector<std::size_t> probeElementEdges(engine::HierarchyView& view,
                                           const tech::Technology& tech,
                                           std::size_t flatIndex) {
  const engine::HierarchyView::Flat& flat = view.flat(false);
  const std::vector<layout::FlatElement>& elements = flat.elements;
  const std::vector<layout::FlatDevice>& devices = flat.devices;
  const std::vector<geom::Rect>& bboxes = flat.bboxes;
  const std::size_t ne = elements.size();
  const layout::Element& e = elements.at(flatIndex).element;
  const geom::Skeleton skel = e.skeleton(tech.layer(e.layer).minWidth);

  std::vector<std::size_t> out;
  std::vector<std::size_t> cand;
  view.flatCandidatesInto(false, e.layer, bboxes[flatIndex], 0, cand);
  for (const std::size_t j : cand) {
    if (j == flatIndex) continue;
    const layout::Element& o = elements[j].element;
    if (o.layer != e.layer) continue;
    if (!geom::closedTouch(bboxes[flatIndex], bboxes[j])) continue;
    if (geom::skeletonsConnected(skel,
                                 o.skeleton(tech.layer(o.layer).minWidth)))
      out.push_back(j);
  }
  const std::vector<engine::HierarchyView::PortRef>& portNodes = view.ports();
  for (const std::size_t pn : view.portCandidates(bboxes[flatIndex], 0)) {
    const layout::FlatDevice& d = devices[portNodes[pn].device];
    const layout::Port& port = d.ports[portNodes[pn].port];
    if (port.layer != e.layer) continue;
    if (elementTouchesPort(e, port.at)) out.push_back(ne + pn);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void refreshNetBBoxes(Netlist& nl, const std::vector<geom::Rect>& bboxes) {
  for (Net& n : nl.nets) n.bbox = geom::Rect{};
  for (std::size_t i = 0;
       i < nl.elementNet.size() && i < bboxes.size(); ++i) {
    Net& n = nl.nets.at(static_cast<std::size_t>(nl.elementNet[i]));
    n.bbox = geom::bound(n.bbox, bboxes[i]);
  }
}

std::vector<std::string> compareAgainstGolden(
    const Netlist& extracted, const std::vector<GoldenDevice>& golden) {
  std::vector<std::string> issues;
  if (extracted.devices.size() != golden.size())
    issues.push_back("device count mismatch: extracted " +
                     std::to_string(extracted.devices.size()) + ", golden " +
                     std::to_string(golden.size()));

  // Greedy bijective matching on (type, port->net-label binding). Build a
  // consistent label mapping golden-label -> extracted-net-id.
  std::map<std::string, int> binding;
  std::vector<bool> used(extracted.devices.size(), false);
  for (const GoldenDevice& g : golden) {
    bool matched = false;
    for (std::size_t i = 0; i < extracted.devices.size() && !matched; ++i) {
      if (used[i] || extracted.devices[i].type != g.type) continue;
      // Tentatively extend the binding.
      std::map<std::string, int> trial = binding;
      bool ok = true;
      for (const auto& [port, label] : g.ports) {
        auto it = extracted.devices[i].portNets.find(port);
        if (it == extracted.devices[i].portNets.end()) {
          ok = false;
          break;
        }
        // Named nets must carry the same label in the extraction.
        const Net& net = extracted.nets[it->second];
        auto bit = trial.find(label);
        if (bit == trial.end()) {
          if ((label == "VDD" || label == "GND") && !net.hasName(label)) {
            ok = false;
            break;
          }
          trial[label] = it->second;
        } else if (bit->second != it->second) {
          ok = false;
          break;
        }
      }
      if (ok) {
        binding = std::move(trial);
        used[i] = true;
        matched = true;
      }
    }
    if (!matched) issues.push_back("no extracted device matches golden " + g.type);
  }
  return issues;
}

}  // namespace dic::netlist
