#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "fusion/data_tamer.h"

namespace dt::server {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

/// One connection. The event loop owns `fd`, `inbuf` and the idle/
/// close bookkeeping; workers only touch the locked outbox and the
/// atomics, holding the session alive through the shared_ptr they
/// captured at admission.
struct Session {
  explicit Session(int fd_in) : fd(fd_in) {}
  const int fd;
  std::string inbuf;
  int64_t last_active_ms = 0;
  /// Framing lost (corrupt frame): answer, flush, then close.
  bool close_after_flush = false;
  std::atomic<int> inflight{0};
  bool closed = false;  // guarded by out_mu
  std::mutex out_mu;
  std::string outbox;  // guarded by out_mu
};

using SessionPtr = std::shared_ptr<Session>;

}  // namespace

struct DtServer::Impl {
  const fusion::DataTamer* tamer;
  /// Non-null only for the read-write constructor: the same facade,
  /// mutably — what kIngest executes through.
  fusion::DataTamer* mutable_tamer = nullptr;
  ServerOptions opts;

  int listen_fd = -1;
  int wake_r = -1, wake_w = -1;
  std::thread loop_thread;
  std::unique_ptr<ThreadPool> pool;
  std::atomic<bool> running{false};
  bool stopped = false;

  /// Admitted (queued or executing) requests — the admission bound.
  std::atomic<size_t> pending{0};
  /// Serializes facade access: the const query surface is documented
  /// not thread-safe, so workers take turns executing while the
  /// network side keeps overlapping reads, writes and decoding.
  std::mutex tamer_mu;

  std::unordered_map<int, SessionPtr> sessions;  // loop thread only

  std::atomic<uint64_t> sessions_accepted{0};
  std::atomic<uint64_t> sessions_rejected{0};
  std::atomic<uint64_t> requests_executed{0};
  std::atomic<uint64_t> requests_rejected{0};
  std::atomic<uint64_t> corrupt_frames{0};
  std::atomic<uint64_t> idle_closes{0};
  std::atomic<uint64_t> peer_disconnects{0};
  std::atomic<uint64_t> planner_plans{0};
  std::atomic<uint64_t> planner_planning_ns{0};
  std::atomic<uint64_t> planner_entries_counted{0};
  std::atomic<uint64_t> planner_estimate_plans{0};
  std::atomic<uint64_t> ingest_requests{0};
  std::atomic<uint64_t> ingest_records{0};
  std::atomic<uint64_t> ingest_clusters_upserted{0};
  std::atomic<uint64_t> ingest_clusters_removed{0};

  void Wake() {
    char b = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!write(wake_w, &b, 1);
  }

  void QueueResponse(const SessionPtr& s, const ResponseEnvelope& env) {
    std::string frame;
    Status st = EncodeFrame(EncodeResponseEnvelope(env), opts.max_frame_size,
                            &frame);
    if (!st.ok()) {
      // The result didn't fit a frame; the tiny error envelope always
      // will.
      ResponseEnvelope err;
      err.id = env.id;
      err.status = Status::OutOfRange("response exceeds max frame size");
      frame.clear();
      EncodeFrame(EncodeResponseEnvelope(err), opts.max_frame_size, &frame)
          .ok();
    }
    {
      std::lock_guard<std::mutex> lock(s->out_mu);
      if (!s->closed) s->outbox += frame;
    }
    Wake();
  }

  /// Answers `id` with a failure without touching admission counters.
  void QueueError(const SessionPtr& s, uint64_t id, Status st) {
    ResponseEnvelope env;
    env.id = id;
    env.status = std::move(st);
    QueueResponse(s, env);
  }

  void ExecuteTask(const SessionPtr& s, const RequestEnvelope& env) {
    if (opts.debug_execution_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.debug_execution_delay_ms));
    }
    ResponseEnvelope out;
    out.id = env.id;
    if (running.load()) {
      std::lock_guard<std::mutex> lock(tamer_mu);
      const bool is_ingest = env.request.op == query::QueryOp::kIngest;
      Result<query::QueryResponse> r =
          is_ingest && mutable_tamer == nullptr
              ? Result<query::QueryResponse>(Status::InvalidArgument(
                    "server is read-only: ingest rejected"))
              : (is_ingest ? mutable_tamer->ExecuteMutable(env.request)
                           : tamer->Execute(env.request));
      if (r.ok()) {
        if (is_ingest) {
          ingest_requests.fetch_add(1);
          ingest_records.fetch_add(static_cast<uint64_t>(r->ingested));
          ingest_clusters_upserted.fetch_add(
              static_cast<uint64_t>(r->ingest_clusters_upserted));
          ingest_clusters_removed.fetch_add(
              static_cast<uint64_t>(r->ingest_clusters_removed));
        }
        // A request that planned something reports nonzero planning
        // time; ops that never touch the planner (inserts, stats)
        // leave the whole block untouched.
        if (r->stats.planning_ns > 0) {
          planner_plans.fetch_add(1);
          planner_planning_ns.fetch_add(
              static_cast<uint64_t>(r->stats.planning_ns));
          planner_entries_counted.fetch_add(
              static_cast<uint64_t>(r->stats.plan_entries_counted));
          if (r->stats.estimate_exact == 0) planner_estimate_plans.fetch_add(1);
        }
        out.response = std::move(*r);
      } else {
        out.status = r.status();
      }
    } else {
      out.status = Status::Unavailable("server shutting down");
    }
    requests_executed.fetch_add(1);
    QueueResponse(s, out);
    s->inflight.fetch_sub(1);
    pending.fetch_sub(1);
  }

  void HandleFrame(const SessionPtr& s, const storage::DocValue& payload) {
    Result<RequestEnvelope> env = DecodeRequestEnvelope(payload);
    if (!env.ok()) {
      // Frame boundaries are intact, so the session survives a bad
      // envelope — the peer just gets the shape error back.
      QueueError(s, 0, env.status());
      return;
    }
    if (s->inflight.load() >= opts.max_inflight_per_session) {
      requests_rejected.fetch_add(1);
      QueueError(s, env->id, Status::Unavailable("session pipeline full"));
      return;
    }
    // Admission control: a full execution queue answers kUnavailable
    // instead of buffering without bound (or silently dropping).
    size_t cur = pending.load();
    do {
      if (cur >= opts.max_pending_requests) {
        requests_rejected.fetch_add(1);
        QueueError(s, env->id, Status::Unavailable("overloaded"));
        return;
      }
    } while (!pending.compare_exchange_weak(cur, cur + 1));
    s->inflight.fetch_add(1);
    RequestEnvelope req = std::move(*env);
    SessionPtr sp = s;
    pool->Schedule([this, sp, req]() { ExecuteTask(sp, req); });
  }

  void ParseFrames(const SessionPtr& s) {
    while (true) {
      storage::DocValue payload;
      size_t consumed = 0;
      Status st =
          TryDecodeFrame(s->inbuf, opts.max_frame_size, &payload, &consumed);
      if (!st.ok()) {
        // Framing is lost; answer once, flush, close.
        corrupt_frames.fetch_add(1);
        s->inbuf.clear();
        QueueError(s, 0, st);
        s->close_after_flush = true;
        return;
      }
      if (consumed == 0) return;  // need more bytes
      s->inbuf.erase(0, consumed);
      HandleFrame(s, payload);
    }
  }

  void CloseSession(const SessionPtr& s) {
    {
      std::lock_guard<std::mutex> lock(s->out_mu);
      s->closed = true;
      s->outbox.clear();
    }
    shutdown(s->fd, SHUT_RDWR);
    close(s->fd);
    sessions.erase(s->fd);
  }

  /// How a session's read side ended this poll round.
  enum class ReadOutcome {
    kOk,     ///< still open (drained to EAGAIN)
    kEof,    ///< clean close: drain owed responses, then close
    kError,  ///< transport is dead (ECONNRESET, ...): close now
  };

  /// Reads until EAGAIN and parses complete frames. A clean EOF keeps
  /// the session draining (workers may still owe responses); a fatal
  /// transport error reports kError so the loop tears the session
  /// down immediately — nothing sent to a reset connection arrives,
  /// and a draining zombie would pin its slot until idle reaping.
  ReadOutcome ReadSession(const SessionPtr& s) {
    char buf[64 * 1024];
    while (true) {
      ssize_t n = recv(s->fd, buf, sizeof buf, 0);
      // Capture errno before anything (NowMs, parsing) can clobber it.
      const int err = n < 0 ? errno : 0;
      if (n > 0) {
        s->inbuf.append(buf, static_cast<size_t>(n));
        s->last_active_ms = NowMs();
        continue;
      }
      if (n == 0) return ReadOutcome::kEof;  // peer closed cleanly
      if (err == EAGAIN || err == EWOULDBLOCK) break;
      if (err == EINTR) continue;
      return ReadOutcome::kError;  // ECONNRESET, ETIMEDOUT, ...
    }
    ParseFrames(s);
    return ReadOutcome::kOk;
  }

  /// Flushes as much buffered output as the socket accepts; false when
  /// the session should close now (fatal write error, or fully drained
  /// after the read side ended).
  bool FlushSession(const SessionPtr& s) {
    std::string chunk;
    {
      std::lock_guard<std::mutex> lock(s->out_mu);
      chunk.swap(s->outbox);
    }
    size_t off = 0;
    while (off < chunk.size()) {
      ssize_t n =
          send(s->fd, chunk.data() + off, chunk.size() - off, MSG_NOSIGNAL);
      const int err = n < 0 ? errno : 0;
      if (n > 0) {
        off += static_cast<size_t>(n);
        s->last_active_ms = NowMs();
        continue;
      }
      // A 0-byte send sets no errno; checking one here would read a
      // stale value and misclassify the socket. Treat it like a full
      // buffer and retry on the next POLLOUT.
      if (n == 0 || err == EAGAIN || err == EWOULDBLOCK) break;
      if (err == EINTR) continue;
      // EPIPE / ECONNRESET / ...: the peer is gone and the remaining
      // output is undeliverable — close now instead of draining.
      peer_disconnects.fetch_add(1);
      return false;
    }
    bool has_output = false;
    if (off < chunk.size()) {
      // Unwritten remainder goes back to the front; workers only ever
      // append.
      std::lock_guard<std::mutex> lock(s->out_mu);
      s->outbox.insert(0, chunk, off, std::string::npos);
      has_output = true;
    } else {
      std::lock_guard<std::mutex> lock(s->out_mu);
      has_output = !s->outbox.empty();
    }
    return !(s->close_after_flush && !has_output && s->inflight.load() == 0);
  }

  void Accept() {
    while (true) {
      int fd = accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN and transient errors alike: retry next wake
      }
      if (static_cast<int>(sessions.size()) >= opts.max_sessions) {
        sessions_rejected.fetch_add(1);
        close(fd);
        continue;
      }
      if (!SetNonBlocking(fd).ok()) {
        close(fd);
        continue;
      }
      // Responses are whole frames flushed as soon as they are encoded:
      // Nagle would hold the second of two pipelined responses until
      // the client's delayed ACK for the first.
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto s = std::make_shared<Session>(fd);
      s->last_active_ms = NowMs();
      sessions.emplace(fd, std::move(s));
      sessions_accepted.fetch_add(1);
    }
  }

  void Loop() {
    std::vector<pollfd> fds;
    std::vector<SessionPtr> polled;
    std::vector<SessionPtr> snapshot;
    while (running.load()) {
      fds.clear();
      polled.clear();
      fds.push_back({listen_fd, POLLIN, 0});
      fds.push_back({wake_r, POLLIN, 0});
      for (auto& [fd, s] : sessions) {
        // A draining session (read side done, workers still owe
        // responses) is left out of the poll set entirely — the wake
        // pipe fires when its output arrives, so no EOF busy-spin.
        short events = 0;
        if (!s->close_after_flush) events |= POLLIN;
        {
          std::lock_guard<std::mutex> lock(s->out_mu);
          if (!s->outbox.empty()) events |= POLLOUT;
        }
        if (events == 0) continue;
        fds.push_back({fd, events, 0});
        polled.push_back(s);
      }
      int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
      if (rc < 0 && errno != EINTR) break;

      if (fds[1].revents & POLLIN) {
        char drain[256];
        while (read(wake_r, drain, sizeof drain) > 0) {
        }
      }
      if (fds[0].revents & (POLLIN | POLLERR)) Accept();

      for (size_t i = 0; i < polled.size(); ++i) {
        const SessionPtr& s = polled[i];
        if (sessions.count(s->fd) == 0) continue;
        short re = fds[i + 2].revents;
        if ((re & (POLLIN | POLLHUP | POLLERR)) && !s->close_after_flush) {
          switch (ReadSession(s)) {
            case ReadOutcome::kOk:
              break;
            case ReadOutcome::kEof:
              s->close_after_flush = true;
              break;
            case ReadOutcome::kError:
              peer_disconnects.fetch_add(1);
              CloseSession(s);
              break;
          }
        }
      }

      // Maintenance pass over every session: flush whatever output is
      // pending (a worker may have finished between poll() calls),
      // close what finished draining, reap the idle.
      snapshot.clear();
      for (auto& [fd, s] : sessions) snapshot.push_back(s);
      const int64_t now = NowMs();
      for (const SessionPtr& s : snapshot) {
        if (sessions.count(s->fd) == 0) continue;
        if (!FlushSession(s)) {
          CloseSession(s);
          continue;
        }
        if (opts.idle_timeout_ms > 0 && !s->close_after_flush &&
            s->inflight.load() == 0 &&
            now - s->last_active_ms > opts.idle_timeout_ms) {
          bool quiet;
          {
            std::lock_guard<std::mutex> lock(s->out_mu);
            quiet = s->outbox.empty();
          }
          if (quiet) {
            idle_closes.fetch_add(1);
            CloseSession(s);
          }
        }
      }
    }
    std::vector<SessionPtr> all;
    for (auto& [fd, s] : sessions) all.push_back(s);
    for (const auto& s : all) CloseSession(s);
    close(listen_fd);
    listen_fd = -1;
  }
};

DtServer::DtServer(const fusion::DataTamer* tamer, ServerOptions opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->tamer = tamer;
  impl_->opts = std::move(opts);
}

DtServer::DtServer(fusion::DataTamer* tamer, ServerOptions opts)
    : DtServer(static_cast<const fusion::DataTamer*>(tamer),
               std::move(opts)) {
  impl_->mutable_tamer = tamer;
}

DtServer::~DtServer() { Stop(); }

Status DtServer::Start() {
  Impl& im = *impl_;
  if (im.stopped || im.running.load()) {
    return Status::InvalidArgument("server already started");
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.opts.port);
  if (inet_pton(AF_INET, im.opts.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad bind address (IPv4 literal "
                                   "expected): " +
                                   im.opts.bind_address);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Status st = Status::IOError(std::string("bind: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  if (listen(fd, 128) < 0) {
    Status st = Status::IOError(std::string("listen: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  socklen_t addr_len = sizeof addr;
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    Status st =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);
  Status st = SetNonBlocking(fd);
  if (!st.ok()) {
    close(fd);
    return st;
  }
  int pipefd[2];
  if (pipe(pipefd) < 0) {
    close(fd);
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  SetNonBlocking(pipefd[0]).ok();
  SetNonBlocking(pipefd[1]).ok();
  im.listen_fd = fd;
  im.wake_r = pipefd[0];
  im.wake_w = pipefd[1];
  // ThreadPool counts the (non-participating) caller, so +1 yields
  // `num_workers` spawned queue workers.
  im.pool = std::make_unique<ThreadPool>(std::max(1, im.opts.num_workers) + 1);
  im.running.store(true);
  im.loop_thread = std::thread([&im] { im.Loop(); });
  return Status::OK();
}

void DtServer::Stop() {
  Impl& im = *impl_;
  if (im.stopped) return;
  im.stopped = true;
  im.running.store(false);
  im.Wake();
  if (im.loop_thread.joinable()) im.loop_thread.join();
  // ThreadPool's destructor runs queued tasks to completion; their
  // responses land in closed sessions' (cleared) outboxes and their
  // wakeups hit the still-open pipe, both harmless.
  im.pool.reset();
  if (im.wake_r >= 0) close(im.wake_r);
  if (im.wake_w >= 0) close(im.wake_w);
  im.wake_r = im.wake_w = -1;
  // Every request acknowledged over the wire must be on disk before
  // the process can exit (group/async modes may hold a synced-behind
  // tail). Workers are joined, so this cannot race an append.
  if (im.tamer != nullptr) {
    Status st = im.tamer->FlushDurability();
    if (!st.ok()) {
      DT_LOG(Error) << "WAL flush on server stop failed: " << st.ToString();
    }
  }
}

ServerStats DtServer::stats() const {
  const Impl& im = *impl_;
  ServerStats out;
  out.sessions_accepted = im.sessions_accepted.load();
  out.sessions_rejected = im.sessions_rejected.load();
  out.requests_executed = im.requests_executed.load();
  out.requests_rejected = im.requests_rejected.load();
  out.corrupt_frames = im.corrupt_frames.load();
  out.idle_closes = im.idle_closes.load();
  out.peer_disconnects = im.peer_disconnects.load();
  out.planner_stats_plans = im.planner_plans.load();
  out.planner_stats_planning_ns = im.planner_planning_ns.load();
  out.planner_stats_entries_counted = im.planner_entries_counted.load();
  out.planner_stats_estimate_plans = im.planner_estimate_plans.load();
  out.ingest_requests = im.ingest_requests.load();
  out.ingest_records = im.ingest_records.load();
  out.ingest_clusters_upserted = im.ingest_clusters_upserted.load();
  out.ingest_clusters_removed = im.ingest_clusters_removed.load();
  if (im.tamer != nullptr) out.durability = im.tamer->durability_stats();
  return out;
}

}  // namespace dt::server
