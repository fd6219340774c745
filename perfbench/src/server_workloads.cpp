// tcp-open-mixed: the serving tier over a fleet of eight
// workload::fleetChip libraries. A server::Server behind a
// net::Listener is driven over one TCP connection by an open-loop
// Poisson schedule of warm reads with edit-then-check requests mixed in.
#include <atomic>
#include <memory>
#include <thread>

#include "engine/arena.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "server/server.hpp"
#include "workload/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dic::CheckKind;
using dic::CheckRequest;
using dic::CheckResult;
namespace workload = dic::workload;
namespace server = dic::server;
namespace net = dic::net;

constexpr std::size_t kFleet = 8;
/// Explicit sizing (not host-dependent defaults): one serial shard per
/// vCPU of a 4-vCPU host. A burst then spreads over four queues; with
/// two, queueing behind the burst doubled p50 and moved it with every
/// change in host CPU speed.
constexpr int kShards = 4;
constexpr int kThreadsPerShard = 1;
/// The offered rate, a seventh to a quarter of the closed-loop
/// throughput of warm reads the same fleet reached on 2 shards
/// (2600-5000/s) on a 4-vCPU host. At 1450/s on 2 shards the hot shard
/// ran near saturation, and host CPU steal bursts pushed the schedule
/// past the knee: a backlog grew and p50 rose ~8x.
constexpr double kTcpRate = 700;
/// Requests arrive in Poisson-timed bursts of this many (a client
/// submitting several checks at once). One request at a time leaves
/// every thread asleep between requests, and the latency is then mostly
/// the host's thread wake-up time, which doubles under CPU steal.
constexpr std::size_t kTcpBurst = 8;
/// Edit-then-check weight against the 4/2/3/1 read mix (1.1 / 11.1 =
/// ~10% of requests).
constexpr double kTcpEditWeight = 1.1;
constexpr CheckKind kKinds[] = {CheckKind::kHierarchicalDrc,
                                CheckKind::kFlatBaselineDrc, CheckKind::kErc,
                                CheckKind::kNetlistOnly};

/// One TCP connection speaking the check protocol through the net
/// layer's own codec (net::encodeCheckFrame, net::ResultAssembler).
/// net::Client hands replies back only as futures, which cannot be
/// waited on together without polling; reading the socket here instead
/// timestamps each reply the moment its last frame arrives.
class WireConnection {
 public:
  explicit WireConnection(std::uint16_t port) {
    std::string err;
    sock_ = net::connectTo("127.0.0.1", port, 5.0, &err);
    if (!sock_.valid())
      throw std::runtime_error("perfbench: connect failed: " + err);
    sock_.setRecvTimeout(30.0);  // a lost reply ends the run, not a hang
  }
  bool send(std::uint64_t id, const std::string& lib, const CheckRequest& req) {
    const std::vector<std::uint8_t> frame = net::encodeCheckFrame(id, lib, req);
    return sock_.sendAll(frame.data(), frame.size());
  }
  /// Block for the next complete reply; false when the connection ends.
  bool receive(std::uint64_t& id, CheckResult& out) {
    std::uint8_t hdr[net::kHeaderSize];
    for (;;) {
      net::FrameHeader h;
      if (!sock_.recvAll(hdr, sizeof hdr) || !net::parseHeader(hdr, h))
        return false;
      payload_.resize(h.payloadLen);
      if (h.payloadLen > 0 && !sock_.recvAll(payload_.data(), payload_.size()))
        return false;
      switch (assembler_.feed(h, payload_.data(), payload_.size(), out)) {
        case net::ResultAssembler::Feed::kComplete:
          id = h.requestId;
          return true;
        case net::ResultAssembler::Feed::kError:
          return false;
        case net::ResultAssembler::Feed::kNeedMore:
          break;
      }
    }
  }

 private:
  net::Socket sock_;
  net::ResultAssembler assembler_;
  std::vector<std::uint8_t> payload_;
};

struct Fleet {
  std::unique_ptr<server::Server> srv;
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<WireConnection> conn;
  std::uint64_t nextId{1};  // next wire request id
};

CheckResult roundTrip(Fleet& f, const std::string& lib, const CheckRequest& req) {
  const std::uint64_t id = f.nextId++;
  CheckResult r;
  std::uint64_t got = 0;
  if (!f.conn->send(id, lib, req) || !f.conn->receive(got, r) || got != id)
    throw std::runtime_error("perfbench: wire round trip failed");
  return r;
}

dic::layout::CellId fleetRoot(const dic::tech::Technology& tech) {
  return workload::fleetChip(tech).top;
}

std::unique_ptr<Fleet> makeFleet(const dic::tech::Technology& tech,
                                 dic::layout::CellId root) {
  auto f = std::make_unique<Fleet>();
  server::ServerOptions o;
  o.shards = kShards;
  o.threadsPerShard = kThreadsPerShard;
  f->srv = std::make_unique<server::Server>(o);
  for (std::size_t l = 0; l < kFleet; ++l)
    f->srv->addLibrary(workload::libraryName(l),
                       workload::fleetChip(tech).lib, tech);
  f->listener = std::make_unique<net::Listener>(*f->srv);
  f->conn = std::make_unique<WireConnection>(f->listener->port());
  // Warm-up: one request of every kind on every library builds the
  // views, netlists and incremental caches the measured window reuses.
  for (std::size_t l = 0; l < kFleet; ++l)
    for (CheckKind k : kKinds) {
      const CheckRequest req = workload::materialize({l, k, 0, false, 0}, root);
      const CheckResult r = roundTrip(*f, workload::libraryName(l), req);
      if (!r.ok()) throw std::runtime_error("perfbench: warm-up failed: " + r.error);
    }
  return f;
}

std::vector<std::size_t> servedPerShard(const server::Server& srv) {
  std::vector<std::size_t> v;
  for (const server::ShardStats& s : srv.stats().shards) v.push_back(s.served);
  return v;
}

void finishServerPass(Pass& p, const server::Server& srv,
                      const std::vector<std::size_t>& served0) {
  const server::ServerStats st = srv.stats();
  std::size_t mx = 0, mn = SIZE_MAX;
  for (std::size_t s = 0; s < st.shards.size(); ++s) {
    const std::size_t d = st.shards[s].served - served0[s];
    mx = std::max(mx, d);
    mn = std::min(mn, d);
  }
  p.shardServedMaxMin = mn > 0 ? static_cast<double>(mx) / mn : 0;
  p.cacheMb = static_cast<double>(st.totalCacheBytes()) / (1 << 20);
  p.scratchMb =
      static_cast<double>(dic::engine::Arena::totalReservedBytes()) / (1 << 20);
  p.poolThreads = kShards * kThreadsPerShard;
}

/// Record one completed response: latency, check against the expected
/// fingerprint (a wire reply carries no netlist), layer counters.
void record(Pass& p, const CheckResult& r, double latencyMs, double sentMs,
            std::uint64_t expected) {
  ++p.attempted;
  p.latencyMs.push_back(latencyMs);
  if (!r.ok() || fingerprint(r, false) != expected) {
    ++p.failed;
    return;
  }
  p.serviceMs.push_back(r.seconds * 1e3);
  p.queueWaitMs.push_back(std::max(0.0, sentMs - r.seconds * 1e3));
  countResult(p, r);
}

Pass tcpPass(Fleet& f, const std::vector<workload::TrafficEvent>& trace,
             const std::vector<CheckRequest>& reqs,
             const std::vector<std::uint64_t>& expect, bool traced) {
  Pass p;
  const std::size_t n = reqs.size();
  p.openLoop = true;
  p.offeredRps = kTcpRate;
  p.latencyMs.reserve(n);
  // Wire request ids base..base+n-1 name the requests (and, traced, the
  // traces the session roots under them).
  const std::uint64_t base = f.nextId;
  f.nextId += n;
  std::vector<Clock::time_point> due(n);
  std::vector<std::atomic<Clock::rep>> sentAt(n);

  const std::vector<std::size_t> served0 = servedPerShard(*f.srv);
  if (traced) beginTracing(n);
  Window w;
  w.start();
  const Clock::time_point start = w.t0;
  for (std::size_t i = 0; i < n; ++i)
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(trace[i].arrivalSeconds));

  // The reader blocks on the socket and timestamps each reply as its
  // last frame arrives; latency runs from the request's scheduled time.
  std::thread reader([&] {
    for (std::size_t k = 0; k < n; ++k) {
      std::uint64_t id = 0;
      CheckResult r;
      if (!f.conn->receive(id, r)) break;
      const Clock::time_point done = Clock::now();
      if (id < base || id - base >= n) break;
      const std::size_t i = id - base;
      const Clock::time_point sent(
          Clock::duration(sentAt[i].load(std::memory_order_acquire)));
      p.doneAtS.push_back(secondsBetween(start, done));
      record(p, r, secondsBetween(due[i], done) * 1e3,
             secondsBetween(sent, done) * 1e3, expect[i]);
    }
  });

  std::vector<double> lateMs;
  lateMs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due[i]);
    const Clock::time_point sent = Clock::now();
    sentAt[i].store(sent.time_since_epoch().count(), std::memory_order_release);
    lateMs.push_back(secondsBetween(due[i], sent) * 1e3);
    if (!f.conn->send(base + i, workload::libraryName(trace[i].library),
                      reqs[i]))
      break;
  }
  reader.join();
  w.stop(p.wallS, p.cpuS, p.stealPct, p.stealCpuS);
  // Requests that never got a reply (connection lost) are failures.
  p.failed += n - p.attempted;
  p.attempted = n;
  p.peakRssMb = peakRssMb();
  p.rssPeakReset = w.rssReset;
  if (traced) endTracing(p);
  p.lateMeanMs = mean(lateMs);
  p.lateMaxMs = lateMs.empty() ? 0 : *std::max_element(lateMs.begin(), lateMs.end());
  finishServerPass(p, *f.srv, served0);
  return p;
}

/// Expected fingerprints by replaying the trace, in order, on one
/// single-threaded Workspace per library (the session hands frames to
/// the server in arrival order and each library is served by one shard
/// thread, so per-library order is trace order). A read's answer only
/// changes when its library is edited, so reads are memoized per
/// (library, kind) between edits.
std::vector<std::uint64_t> tcpOracle(
    const dic::tech::Technology& tech,
    const std::vector<workload::TrafficEvent>& trace,
    const std::vector<CheckRequest>& reqs) {
  std::vector<std::unique_ptr<dic::Workspace>> ws;
  for (std::size_t l = 0; l < kFleet; ++l)
    ws.push_back(std::make_unique<dic::Workspace>(
        workload::fleetChip(tech).lib, tech, dic::WorkspaceOptions{1}));
  std::vector<std::map<CheckKind, std::uint64_t>> memo(kFleet);
  std::vector<std::uint64_t> out(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::size_t l = trace[i].library;
    if (!reqs[i].edits.empty()) {
      memo[l].clear();
      out[i] = fingerprint(ws[l]->run(reqs[i]), false);
      continue;
    }
    auto it = memo[l].find(reqs[i].kind);
    if (it == memo[l].end())
      it = memo[l]
               .emplace(reqs[i].kind, fingerprint(ws[l]->run(reqs[i]), false))
               .first;
    out[i] = it->second;
  }
  return out;
}

/// Wire codec cost per request, timed from outside: encode and decode
/// each request's kCheck frame, and encode and reassemble a reply of
/// its kind (a warm fleet-library answer; an edit's reply is a DRC).
void tcpCodec(Outcome& out, const dic::tech::Technology& tech,
              dic::layout::CellId root,
              const std::vector<workload::TrafficEvent>& trace,
              const std::vector<CheckRequest>& reqs) {
  std::map<CheckKind, CheckResult> replies;
  {
    dic::Workspace ws(workload::fleetChip(tech).lib, tech,
                      dic::WorkspaceOptions{1});
    for (CheckKind k : kKinds)
      replies[k] = ws.run(workload::materialize({0, k, 0, false, 0}, root));
  }
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const std::string lib = workload::libraryName(trace[i].library);
    const std::vector<std::uint8_t> frame =
        net::encodeCheckFrame(i + 1, lib, reqs[i]);
    bytes += frame.size();
    std::string decodedLib;
    CheckRequest decoded;
    net::decodeCheckPayload(frame.data() + net::kHeaderSize,
                            frame.size() - net::kHeaderSize, decodedLib,
                            decoded);
    net::ResultFrameStream stream(i + 1, replies.at(reqs[i].kind));
    net::ResultAssembler assembler;
    std::vector<std::uint8_t> rf;
    CheckResult back;
    while (stream.next(rf)) {
      bytes += rf.size();
      net::FrameHeader h;
      net::parseHeader(rf.data(), h);
      assembler.feed(h, rf.data() + net::kHeaderSize,
                     rf.size() - net::kHeaderSize, back);
    }
  }
  const double s = secondsBetween(t0, Clock::now());
  out.outside["net.codec_us_per_req"] = s * 1e6 / static_cast<double>(reqs.size());
  out.outside["net.wire_bytes_per_req"] =
      static_cast<double>(bytes) / static_cast<double>(reqs.size());
}

}  // namespace

Outcome runTcpOpenMixed(const Config& cfg) {
  Outcome out;
  const dic::tech::Technology tech = dic::tech::nmos();
  const dic::layout::CellId root = fleetRoot(tech);

  workload::TrafficOptions to;
  to.libraries = kFleet;
  to.requests = static_cast<std::size_t>(kTcpRate * cfg.seconds);
  to.weightEditCheck = kTcpEditWeight;
  to.arrivalsPerSecond = kTcpRate / kTcpBurst;
  to.seed = cfg.seed;
  std::vector<workload::TrafficEvent> trace = workload::generateTrace(to);
  // Burst g arrives at the trace's g-th Poisson arrival time (rate
  // kTcpRate / kTcpBurst), stretched so the last burst lands exactly at
  // bursts / burst rate: every seed then offers exactly kTcpRate.
  const std::size_t bursts = (trace.size() + kTcpBurst - 1) / kTcpBurst;
  std::vector<double> burstAt;
  for (std::size_t g = 0; g < bursts; ++g)
    burstAt.push_back(trace[g].arrivalSeconds);
  const double scale = bursts > 0 && burstAt.back() > 0
                           ? static_cast<double>(bursts * kTcpBurst) /
                                 kTcpRate / burstAt.back()
                           : 1.0;
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i].arrivalSeconds = burstAt[i / kTcpBurst] * scale;
  // Edits are materialized against shadow copies of the fleet, each
  // edit applied to its shadow as it is drawn, so edit k of a library
  // sees the library as edits 0..k-1 left it -- exactly what the
  // server's copy will look like when the request reaches it.
  std::vector<CheckRequest> reqs;
  {
    std::vector<dic::layout::Library> shadow;
    for (std::size_t l = 0; l < kFleet; ++l)
      shadow.push_back(workload::fleetChip(tech).lib);
    for (const workload::TrafficEvent& ev : trace) {
      CheckRequest req = workload::materialize(ev, root, shadow[ev.library]);
      for (const dic::EditOp& op : req.edits)
        shadow[ev.library].setElement(op.cell, op.index, op.element);
      reqs.push_back(std::move(req));
    }
  }

  const auto o0 = Clock::now();
  const std::vector<std::uint64_t> expect = tcpOracle(tech, trace, reqs);
  out.oracleS = secondsBetween(o0, Clock::now());

  std::unique_ptr<Fleet> f =
      timedSetups(out, [&] { return makeFleet(tech, root); });
  out.plain = tcpPass(*f, trace, reqs, expect, false);
  out.oracleChecked += out.plain.attempted;
  if (cfg.trace) {
    f.reset();
    f = makeFleet(tech, root);  // edits above changed the fleet
    out.traced = tcpPass(*f, trace, reqs, expect, true);
    out.hasTraced = true;
    out.oracleChecked += out.traced.attempted;
    out.outside["engine.view_build_ms"] =
        viewBuildMs(workload::fleetChip(tech).lib, root, 5);
    tcpCodec(out, tech, root, trace, reqs);
  }
  return out;
}

}  // namespace perfbench
