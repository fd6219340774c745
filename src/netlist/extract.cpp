#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>

#include "engine/hierarchy_view.hpp"
#include "netlist/netlist.hpp"
#include "netlist/unionfind.hpp"

namespace dic::netlist {

namespace {

using Pair = std::pair<std::size_t, std::size_t>;

/// True if the element's region (closed) touches the port rect, decided
/// without building the region: a box covers itself when non-empty (as
/// Region(Rect) keeps it); a wire covers its square-capped segment rects,
/// empty ones skipped (as Region::fromRects drops them); a polygon builds
/// its region. Closed touch of a union is touch of some member, so the
/// answer equals the region test's.
bool elementTouchesPort(const layout::Element& e, const geom::Rect& port) {
  switch (e.kind) {
    case layout::ElementKind::kBox:
      return !e.box.empty() && geom::closedTouch(e.box, port);
    case layout::ElementKind::kWire: {
      // The caps of Element::region(): odd widths put the extra unit on
      // the hi side.
      const geom::Coord h = e.wireWidth / 2;
      const geom::Coord h2 = e.wireWidth - h;
      const auto touches = [&](geom::Point a, geom::Point b) {
        const geom::Rect seg = geom::makeRect(a, b);
        const geom::Rect r{{seg.lo.x - h, seg.lo.y - h},
                           {seg.hi.x + h2, seg.hi.y + h2}};
        return !r.empty() && geom::closedTouch(r, port);
      };
      if (e.path.size() == 1) return touches(e.path[0], e.path[0]);
      for (std::size_t i = 0; i + 1 < e.path.size(); ++i)
        if (touches(e.path[i], e.path[i + 1])) return true;
      return false;
    }
    case layout::ElementKind::kPolygon:
      break;
  }
  if (!geom::closedTouch(e.bbox(), port)) return false;
  const geom::Region region = e.region();
  for (const geom::Rect& r : region.rects())
    if (geom::closedTouch(r, port)) return true;
  return false;
}

/// One flat element or device port in the candidate search.
struct SearchItem {
  geom::Rect box;
  std::size_t node{0};
};

/// One layer's uniform grid, packed by a counting sort into one array of
/// item indexes grouped by cell (cellItems) plus per-cell offsets
/// (cellStart), and the items' extents. One candidatePairs() call reuses
/// it for every layer.
struct GridScratch {
  std::vector<std::uint32_t> cellStart;
  std::vector<std::uint32_t> cellItems;
  std::vector<geom::Coord> extents;
};

/// Appends the closed-touching pairs among one layer's items. Each item
/// is entered in every grid cell its closed box overlaps, and a pair is
/// reported only from the cell holding (max lo.x, max lo.y): that point
/// lies in both closed boxes, so exactly one cell that holds both items
/// owns the pair.
void layerPairs(std::span<const SearchItem> items, GridScratch& s,
                std::vector<Pair>& out) {
  const std::size_t n = items.size();
  if (n < 2) return;
  // Grid origin and span over every item, zero-area ones included
  // (geom::bound skips empty rects and would undersize the grid).
  geom::Coord x0 = items[0].box.lo.x, y0 = items[0].box.lo.y;
  s.extents.clear();
  for (const SearchItem& it : items) {
    x0 = std::min(x0, it.box.lo.x);
    y0 = std::min(y0, it.box.lo.y);
    s.extents.push_back(std::max(it.box.width(), it.box.height()));
  }
  std::uint64_t spanX = 0, spanY = 0;
  for (const SearchItem& it : items) {
    spanX = std::max(spanX, static_cast<std::uint64_t>(it.box.hi.x) -
                                static_cast<std::uint64_t>(x0));
    spanY = std::max(spanY, static_cast<std::uint64_t>(it.box.hi.y) -
                                static_cast<std::uint64_t>(y0));
  }
  // Square cells of a power-of-two side (cell lookups are shifts) at
  // least the median item extent (rails do not inflate it), grown until
  // the grid has at most ~2 cells per item.
  std::nth_element(s.extents.begin(), s.extents.begin() + n / 2,
                   s.extents.end());
  int shift = 0;
  while (shift < 63 && (geom::Coord{1} << shift) < s.extents[n / 2]) ++shift;
  const double maxCells = 2.0 * static_cast<double>(n) + 64.0;
  while (static_cast<double>((spanX >> shift) + 1) *
             static_cast<double>((spanY >> shift) + 1) >
         maxCells)
    ++shift;
  const std::uint64_t nx = (spanX >> shift) + 1;
  const std::uint64_t ny = (spanY >> shift) + 1;
  const auto cx = [&](geom::Coord x) {
    return (static_cast<std::uint64_t>(x) - static_cast<std::uint64_t>(x0)) >>
           shift;
  };
  const auto cy = [&](geom::Coord y) {
    return (static_cast<std::uint64_t>(y) - static_cast<std::uint64_t>(y0)) >>
           shift;
  };

  // Count each cell's entries into cellStart[c + 1], prefix-sum them into
  // start offsets, then fill, advancing each cell's offset as it goes.
  s.cellStart.assign(nx * ny + 1, 0);
  for (const SearchItem& it : items)
    for (std::uint64_t y = cy(it.box.lo.y); y <= cy(it.box.hi.y); ++y)
      for (std::uint64_t x = cx(it.box.lo.x); x <= cx(it.box.hi.x); ++x)
        ++s.cellStart[y * nx + x + 1];
  for (std::size_t c = 1; c < s.cellStart.size(); ++c)
    s.cellStart[c] += s.cellStart[c - 1];
  s.cellItems.resize(s.cellStart.back());
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Rect& b = items[i].box;
    for (std::uint64_t y = cy(b.lo.y); y <= cy(b.hi.y); ++y)
      for (std::uint64_t x = cx(b.lo.x); x <= cx(b.hi.x); ++x)
        s.cellItems[s.cellStart[y * nx + x]++] = static_cast<std::uint32_t>(i);
  }
  // The fill advanced each offset to its cell's end, so cell c now spans
  // [cellStart[c - 1], cellStart[c]), starting at 0 for c = 0.
  const std::uint32_t* cellItems = s.cellItems.data();
  for (std::uint64_t y = 0; y < ny; ++y)
    for (std::uint64_t x = 0; x < nx; ++x) {
      const std::size_t c = y * nx + x;
      const std::uint32_t* b = cellItems + (c ? s.cellStart[c - 1] : 0);
      const std::uint32_t* e = cellItems + s.cellStart[c];
      for (const std::uint32_t* p = b; p < e; ++p) {
        const SearchItem& a = items[*p];
        for (const std::uint32_t* q = p + 1; q < e; ++q) {
          const SearchItem& o = items[*q];
          if (!geom::closedTouch(a.box, o.box) ||
              cx(std::max(a.box.lo.x, o.box.lo.x)) != x ||
              cy(std::max(a.box.lo.y, o.box.lo.y)) != y)
            continue;
          out.emplace_back(std::min(a.node, o.node), std::max(a.node, o.node));
        }
      }
    }
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> candidatePairs(
    engine::HierarchyView& view) {
  const engine::HierarchyView::Flat& flat = view.flat(false);
  const std::vector<engine::HierarchyView::PortRef>& portNodes = view.ports();
  const std::size_t ne = flat.elements.size();
  const std::size_t total = ne + portNodes.size();
  const auto layerOf = [&](std::size_t node) {
    if (node < ne) return flat.elements[node].element.layer;
    const engine::HierarchyView::PortRef& pr = portNodes[node - ne];
    return flat.devices[pr.device].ports[pr.port].layer;
  };
  const auto boxOf = [&](std::size_t node) -> const geom::Rect& {
    if (node < ne) return flat.bboxes[node];
    const engine::HierarchyView::PortRef& pr = portNodes[node - ne];
    return flat.devices[pr.device].ports[pr.port].at;
  };
  // Bucket the closedValid items by layer with a counting sort (stable,
  // so each bucket stays in node order); layers are any ints, so they are
  // first ranked among the few distinct ones present.
  std::vector<int> layers;
  for (std::size_t k = 0; k < total; ++k) {
    const int l = layerOf(k);
    const auto at = std::lower_bound(layers.begin(), layers.end(), l);
    if (at == layers.end() || *at != l) layers.insert(at, l);
  }
  std::vector<std::size_t> start(layers.size() + 1, 0);
  std::vector<std::uint32_t> rank(total);
  for (std::size_t k = 0; k < total; ++k) {
    rank[k] = static_cast<std::uint32_t>(
        std::lower_bound(layers.begin(), layers.end(), layerOf(k)) -
        layers.begin());
    if (boxOf(k).closedValid()) ++start[rank[k] + 1];
  }
  for (std::size_t l = 1; l < start.size(); ++l) start[l] += start[l - 1];
  std::vector<SearchItem> items(start.back());
  std::vector<std::size_t> fill(start.begin(), start.end() - 1);
  for (std::size_t k = 0; k < total; ++k)
    if (boxOf(k).closedValid()) items[fill[rank[k]]++] = {boxOf(k), k};

  std::vector<Pair> pairs;
  GridScratch scratch;
  for (std::size_t l = 0; l < layers.size(); ++l)
    layerPairs(std::span<const SearchItem>(items).subspan(
                   start[l], start[l + 1] - start[l]),
               scratch, pairs);
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

  // Exact tests on the candidates only. Net numbering depends only on the
  // final partition (ids are assigned in first-encounter node order when
  // nets are built), not on the order of the unions.
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
  std::vector<int> rootToNet(uf.size(), -1);
  auto netOf = [&](std::size_t node) {
    int& id = rootToNet[uf.find(node)];
    if (id < 0) {
      id = static_cast<int>(out.nets.size());
      out.nets.emplace_back().id = id;
    }
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
