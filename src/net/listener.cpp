#include "net/listener.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace dic::net {

/// One TCP connection: a reader thread feeding the server, a writer
/// thread streaming results back, and a small cv-protected outbox
/// between them. The session is kept alive by shared_ptrs — the
/// Listener's registry plus every in-flight completion callback — so a
/// late-completing request can never dangle it.
struct Listener::Session : std::enable_shared_from_this<Listener::Session> {
  Session(Listener& l, server::Server& s, Socket so,
          std::size_t chunkViolations)
      : owner(l), srv(s), sock(std::move(so)), chunk(chunkViolations) {}

  Listener& owner;  ///< outlives every session (shutdown joins them)
  server::Server& srv;
  Socket sock;
  std::size_t chunk;
  std::thread readerThread;
  std::thread writerThread;

  /// One unit of writer work: either a pre-framed buffer (trace, metrics,
  /// protocol error) or a result the writer serializes chunk by chunk,
  /// so a huge report is never materialized as one frame buffer.
  struct Outgoing {
    bool isResult{false};
    std::uint64_t id{0};
    CheckResult result;
    std::vector<std::uint8_t> raw;
  };

  std::mutex mu;  ///< guards outbox, inflight, readerDone
  std::condition_variable cv;
  std::deque<Outgoing> outbox;
  std::size_t inflight{0};  ///< requests handed to the server, result pending
  bool readerDone{false};

  std::atomic<bool> dead{false};       ///< a send failed; discard output
  std::atomic<bool> malformed{false};  ///< closed on a protocol error
  std::atomic<std::size_t> framesIn{0};
  std::atomic<std::size_t> framesOut{0};
  std::atomic<int> liveLoops{2};  ///< reader+writer still running

  void start() {
    auto self = shared_from_this();
    readerThread = std::thread([self] { self->readerLoop(); });
    writerThread = std::thread([self] { self->writerLoop(); });
  }

  void enqueueResult(std::uint64_t id, CheckResult&& r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      Outgoing o;
      o.isResult = true;
      o.id = id;
      o.result = std::move(r);
      outbox.push_back(std::move(o));
      --inflight;
    }
    cv.notify_all();
  }

  void enqueueRaw(std::vector<std::uint8_t>&& frame) {
    {
      std::lock_guard<std::mutex> lock(mu);
      Outgoing o;
      o.raw = std::move(frame);
      outbox.push_back(std::move(o));
    }
    cv.notify_all();
  }

  /// Best-effort kError to the peer, then let the reader exit: the
  /// session closes, the process does not.
  void protocolError(std::uint64_t id, const std::string& what) {
    malformed.store(true, std::memory_order_relaxed);
    enqueueRaw(encodeErrorFrame(id, what));
  }

  void readerLoop() {
    std::vector<std::uint8_t> payload;
    for (;;) {
      std::uint8_t hdr[kHeaderSize];
      // EOF here is the clean end of the session; EOF or an error
      // mid-header/mid-payload is a mid-frame disconnect — both just
      // end this session's intake.
      if (!sock.recvAll(hdr, kHeaderSize)) break;
      FrameHeader h;
      std::string err;
      if (!parseHeader(hdr, h, &err)) {
        protocolError(0, err);
        break;
      }
      payload.resize(h.payloadLen);
      if (h.payloadLen > 0 && !sock.recvAll(payload.data(), payload.size()))
        break;
      framesIn.fetch_add(1, std::memory_order_relaxed);
      if (h.type == FrameType::kCheck) {
        std::string lib;
        CheckRequest req;
        bool decoded;
        {
          // The trace's first span: decode cost, rooted directly in the
          // request's trace (the wire request id IS the trace id).
          obs::ScopedSpan decodeSpan("session.decode", h.requestId);
          decoded =
              decodeCheckPayload(payload.data(), payload.size(), lib, req,
                                 &err);
        }
        if (!decoded) {
          protocolError(h.requestId, err);
          break;
        }
        req.traceId = h.requestId;
        {
          std::lock_guard<std::mutex> lock(mu);
          ++inflight;
        }
        // Under OverflowPolicy::kBlock a full shard queue blocks right
        // here — the reader stops draining the socket and the client
        // feels TCP backpressure. Under kReject the callback fires
        // inline with a kErrQueueFull result, which the writer turns
        // into a kRejected frame.
        auto self = shared_from_this();
        srv.submitAsync(lib, std::move(req),
                        [self, id = h.requestId](CheckResult r) {
                          self->enqueueResult(id, std::move(r));
                        });
      } else if (h.type == FrameType::kTraceRequest) {
        std::uint64_t traceId = 0;
        if (!decodeTraceRequestPayload(payload.data(), payload.size(),
                                       traceId, &err)) {
          protocolError(h.requestId, err);
          break;
        }
        enqueueRaw(encodeTraceFrame(h.requestId, traceId,
                                    obs::Tracer::instance().collect(traceId)));
      } else if (h.type == FrameType::kMetricsRequest) {
        // Publish the network tier's own counters into the server's
        // registry so one kMetrics frame carries the whole picture.
        const ListenerStats ls = owner.stats();
        obs::Registry& reg = srv.metrics();
        reg.gauge("net.sessions_accepted")
            .set(static_cast<std::int64_t>(ls.sessionsAccepted));
        reg.gauge("net.sessions_open")
            .set(static_cast<std::int64_t>(ls.sessionsOpen));
        reg.gauge("net.frames_in")
            .set(static_cast<std::int64_t>(ls.framesIn));
        reg.gauge("net.frames_out")
            .set(static_cast<std::int64_t>(ls.framesOut));
        reg.gauge("net.malformed_sessions")
            .set(static_cast<std::int64_t>(ls.malformedSessions));
        enqueueRaw(encodeMetricsFrame(h.requestId, srv.metricsSnapshot()));
      } else {
        protocolError(h.requestId, "request frame type expected");
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      readerDone = true;
    }
    cv.notify_all();
    liveLoops.fetch_sub(1, std::memory_order_acq_rel);
  }

  void writerLoop() {
    for (;;) {
      Outgoing o;
      {
        std::unique_lock<std::mutex> lock(mu);
        // Drain contract: the writer exits only after the reader is
        // done AND every accepted request has delivered its result AND
        // the outbox is flushed — so a graceful shutdown answers
        // everything the server accepted.
        cv.wait(lock, [&] {
          return !outbox.empty() || (readerDone && inflight == 0);
        });
        if (outbox.empty()) break;
        o = std::move(outbox.front());
        outbox.pop_front();
      }
      if (dead.load(std::memory_order_relaxed)) continue;  // peer gone
      bool ok = true;
      if (o.isResult) {
        // Close the request's trace with its write-back cost (the id of
        // a TCP-served result doubles as its trace id).
        obs::ScopedSpan writeSpan("reply.write", o.id);
        ResultFrameStream stream(o.id, o.result, chunk);
        std::vector<std::uint8_t> frame;
        while (ok && stream.next(frame)) {
          ok = sock.sendAll(frame.data(), frame.size());
          if (ok) framesOut.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        ok = sock.sendAll(o.raw.data(), o.raw.size());
        if (ok) framesOut.fetch_add(1, std::memory_order_relaxed);
      }
      if (!ok) dead.store(true, std::memory_order_relaxed);
    }
    sock.shutdownWrite();  // orderly EOF after the last response
    liveLoops.fetch_sub(1, std::memory_order_acq_rel);
  }

  bool finished() const {
    return liveLoops.load(std::memory_order_acquire) == 0;
  }

  void join() {
    if (readerThread.joinable()) readerThread.join();
    if (writerThread.joinable()) writerThread.join();
  }

  ~Session() { join(); }
};

Listener::Listener(server::Server& srv, ListenerOptions opts)
    : srv_(srv), opts_(std::move(opts)) {
  std::string err;
  if (!acceptor_.listenOn(opts_.host, opts_.port, &err))
    throw std::runtime_error("net::Listener: " + err);
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

Listener::~Listener() { shutdown(); }

void Listener::acceptLoop() {
  for (;;) {
    Socket s = acceptor_.accept();
    if (!s.valid()) break;  // shutdownListen or fatal error
    auto session = std::make_shared<Session>(
        *this, srv_, std::move(s), opts_.reportChunkViolations);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.push_back(session);
      ++sessionsAccepted_;
    }
    session->start();
    reapFinished();
  }
}

void Listener::reapFinished() {
  std::vector<std::shared_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < sessions_.size();) {
      if (sessions_[i]->finished()) {
        finished.push_back(std::move(sessions_[i]));
        sessions_.erase(sessions_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (const auto& s : finished) s->join();  // outside mu_: joins block
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : finished) {
    reapedFramesIn_ += s->framesIn.load(std::memory_order_relaxed);
    reapedFramesOut_ += s->framesOut.load(std::memory_order_relaxed);
    if (s->malformed.load(std::memory_order_relaxed)) ++malformedSessions_;
  }
}

void Listener::shutdown() {
  std::call_once(shutdownOnce_, [this] {
    // New connects are refused from here on.
    acceptor_.shutdownListen();
    if (acceptThread_.joinable()) acceptThread_.join();
    acceptor_.close();
    // Stop each session's intake; requests already handed to the
    // server keep their in-flight status and the writers drain them.
    std::vector<std::shared_ptr<Session>> live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      live = sessions_;
    }
    for (const auto& s : live) s->sock.shutdownRead();
    for (const auto& s : live) s->join();
    reapFinished();
  });
}

ListenerStats Listener::stats() const {
  ListenerStats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.sessionsAccepted = sessionsAccepted_;
  out.malformedSessions = malformedSessions_;
  out.framesIn = reapedFramesIn_;
  out.framesOut = reapedFramesOut_;
  for (const auto& s : sessions_) {
    if (!s->finished()) ++out.sessionsOpen;
    out.framesIn += s->framesIn.load(std::memory_order_relaxed);
    out.framesOut += s->framesOut.load(std::memory_order_relaxed);
    if (s->malformed.load(std::memory_order_relaxed)) ++out.malformedSessions;
  }
  return out;
}

}  // namespace dic::net
