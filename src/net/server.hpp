// NetServer — the socket front end of the query service.
//
// One accept thread hands each connection to its own thread; a connection
// is a strict request-response loop (read one query-batch frame, submit
// it to the QueryServer's bounded queue via the *blocking* path so TCP
// carries the backpressure, wait the ticket, write one result frame).
// Malformed input closes only that connection, with a best-effort error
// frame naming the reason — never the process (see net/protocol.hpp).
//
// Graceful drain: request_drain() is async-signal-safe (an atomic store
// plus one write to a self-pipe), so a SIGTERM handler may call it
// directly.  The accept loop stops immediately; each connection thread
// finishes the frame it already read — every accepted batch is answered —
// then sends a kUnavailable drain notice and closes.  drain() joins
// everything and returns; only then may the owner shut the QueryServer
// down (so in-flight batches still have workers).
//
// Artifact hot-reload: when opts.watch_artifact_path is set, a watcher
// thread polls the file's (inode, mtime, size) identity every
// watch_interval_ms.  A change — the atomic tmp+fsync+rename publish —
// loads a fresh QueryEngine over a copy of the current engine's graph and
// swap_engine()s it in: v1 answers every batch popped before the swap,
// v2 everything after, no batch mixes versions (server/server.hpp).  A
// corrupt or mismatched new artifact is reported to stderr and v1 keeps
// serving — a bad publish must never take down a healthy server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"

namespace gclus::net {

struct NetServerOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral; the choice is in port()
  /// Artifact sidecar to hot-reload on republish; empty disables.
  std::string watch_artifact_path;
  /// Watcher poll period; 0 reads GCLUS_NET_WATCH_MS (default 200).
  std::uint32_t watch_interval_ms = 0;
  /// How often idle connection/accept loops re-check the drain flag.
  int poll_interval_ms = 50;
};

/// Monotonic counters (relaxed atomics snapshot).
struct NetServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t frames_in = 0;      ///< query batches decoded
  std::uint64_t results_sent = 0;   ///< result frames sent (counted first)
  std::uint64_t errors_sent = 0;    ///< error frames written (incl. drain)
  std::uint64_t bad_frames = 0;     ///< malformed inputs rejected
  std::uint64_t reloads = 0;        ///< artifact hot-swaps performed
};

struct FileId;  ///< watched artifact's on-disk identity (server.cpp)

class NetServer {
 public:
  /// Binds, starts the accept loop (and watcher, if configured).  The
  /// QueryServer must outlive the NetServer and must not be shut down
  /// before drain() returns.
  [[nodiscard]] static StatusOr<std::unique_ptr<NetServer>> start(
      server::QueryServer& qserver, NetServerOptions opts = {});

  ~NetServer();  ///< request_drain() + drain()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Begins the graceful drain.  Async-signal-safe; idempotent.
  void request_drain();

  /// True once a drain has been requested.
  [[nodiscard]] bool draining() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Blocks until the accept loop, every connection thread, and the
  /// watcher have exited.  Returns immediately if already drained.  The
  /// accept loop runs until request_drain(), so callers typically install
  /// a signal handler first and then park in drain().
  void drain();

  [[nodiscard]] NetServerStats stats() const;

 private:
  NetServer(server::QueryServer& qserver, NetServerOptions opts,
            Listener listener, Socket wake_rd, Socket wake_wr);

  void accept_loop();
  void serve_connection(Socket sock);
  void watch_loop(FileId last);

  server::QueryServer& qserver_;
  const NetServerOptions opts_;
  Listener listener_;
  Socket wake_rd_;  ///< self-pipe: read end, polled by the accept loop
  Socket wake_wr_;  ///< write end, written by request_drain()
  std::atomic<bool> stopping_{false};

  std::mutex threads_mu_;
  std::vector<std::thread> connection_threads_;  ///< guarded by threads_mu_
  std::thread accept_thread_;
  std::thread watch_thread_;
  bool drained_ = false;  ///< guarded by threads_mu_

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> results_sent_{0};
  std::atomic<std::uint64_t> errors_sent_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> reloads_{0};
};

}  // namespace gclus::net
