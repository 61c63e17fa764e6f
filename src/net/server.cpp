#include "net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/faultpoint.hpp"
#include "common/parse.hpp"
#include "net/protocol.hpp"
#include "server/engine.hpp"

namespace gclus::net {

/// Identity of the artifact file on disk.  The publish path is an atomic
/// tmp+fsync+rename, so a republish always changes the inode; mtime and
/// size guard against filesystems that recycle inode numbers eagerly.
struct FileId {
  bool exists = false;
  ino_t inode = 0;
  std::int64_t mtime_ns = 0;
  off_t size = 0;

  friend bool operator==(const FileId&, const FileId&) = default;
};

namespace {

FileId stat_file(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {true, st.st_ino,
          static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
              st.st_mtim.tv_nsec,
          st.st_size};
}

}  // namespace

StatusOr<std::unique_ptr<NetServer>> NetServer::start(
    server::QueryServer& qserver, NetServerOptions opts) {
  GCLUS_ASSIGN_OR_RETURN(Listener listener,
                         Listener::bind_loopback(opts.port));
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return status_from_errno(errno, "self-pipe");
  }
  std::unique_ptr<NetServer> server(
      new NetServer(qserver, std::move(opts), std::move(listener),
                    Socket(pipe_fds[0]), Socket(pipe_fds[1])));
  return server;
}

NetServer::NetServer(server::QueryServer& qserver, NetServerOptions opts,
                     Listener listener, Socket wake_rd, Socket wake_wr)
    : qserver_(qserver),
      opts_(std::move(opts)),
      listener_(std::move(listener)),
      wake_rd_(std::move(wake_rd)),
      wake_wr_(std::move(wake_wr)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (!opts_.watch_artifact_path.empty()) {
    // The baseline is taken before start() returns, so a republish that
    // lands before the watcher thread's first tick still reads as a change.
    watch_thread_ = std::thread(
        [this, last = stat_file(opts_.watch_artifact_path)] {
          watch_loop(last);
        });
  }
}

NetServer::~NetServer() {
  request_drain();
  drain();
}

void NetServer::request_drain() {
  // Only async-signal-safe operations: an atomic store and one write().
  stopping_.store(true, std::memory_order_release);
  const char byte = 'x';
  (void)!::write(wake_wr_.fd(), &byte, 1);
}

void NetServer::drain() {
  // The accept loop exits only after request_drain() (or a listener
  // failure), so joining it doubles as "park until drain is requested".
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();  // reset queued-but-unaccepted clients now, not later
  if (watch_thread_.joinable()) watch_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    connections.swap(connection_threads_);
    drained_ = true;
  }
  for (std::thread& t : connections) t.join();
}

void NetServer::accept_loop() {
  pollfd pfds[2] = {{listener_.fd(), POLLIN, 0}, {wake_rd_.fd(), POLLIN, 0}};
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds[0].revents = pfds[1].revents = 0;
    if (::poll(pfds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      std::perror("gclus net: poll on listener");
      return;
    }
    if (pfds[1].revents != 0 || stopping_.load(std::memory_order_acquire)) {
      return;  // drain requested
    }
    if (pfds[0].revents == 0) continue;
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Transient resource pressure (EMFILE & friends): drop this client,
      // keep listening — the backlog must not wedge the server.
      std::perror("gclus net: accept");
      continue;
    }
    Socket sock(fd);
    if (GCLUS_FAULTPOINT("net.accept")) {
      continue;  // injected failure: the dropped client reconnects
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(threads_mu_);
    connection_threads_.emplace_back(
        [this, s = std::move(sock)]() mutable { serve_connection(std::move(s)); });
  }
}

void NetServer::serve_connection(Socket sock) {
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::vector<std::uint8_t> payload;

  const auto send_error = [&](const Status& error) {
    const std::vector<std::uint8_t> bytes = encode_error(error);
    if (write_frame(sock, bytes.data(), bytes.size()).ok()) {
      errors_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  };

  for (;;) {
    const StatusOr<bool> readable =
        wait_readable(sock.fd(), opts_.poll_interval_ms);
    if (!readable.ok()) return;
    if (!*readable) {
      if (stopping_.load(std::memory_order_acquire)) {
        // Idle at drain time: nothing in flight on this connection.
        send_error(UnavailableError("server draining"));
        return;
      }
      continue;
    }

    const StatusOr<bool> got = read_frame(sock, payload);
    if (!got.ok()) {
      // A lying length prefix or a mid-frame close poisons only this
      // connection: report why, close, keep the process serving.
      if (got.status().code() == StatusCode::kInvalidArgument ||
          got.status().code() == StatusCode::kDataLoss) {
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        send_error(got.status());
      }
      return;
    }
    if (!*got) return;  // client finished cleanly

    StatusOr<Frame> frame = decode_frame(payload.data(), payload.size());
    if (!frame.ok()) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      send_error(frame.status());
      return;
    }
    if (frame->type != FrameType::kQueryBatch) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      send_error(InvalidArgumentError(
          "expected a query batch frame from a client"));
      return;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);

    // Blocking submit: a full queue parks this connection thread, and TCP
    // backpressure parks the client in turn.  A frame read before the
    // drain flag flipped still lands here and gets answered — the
    // in-flight guarantee — because the QueryServer outlives drain().
    StatusOr<server::QueryServer::Ticket> ticket =
        qserver_.submit(std::move(frame->queries));
    if (!ticket.ok()) {
      send_error(ticket.status());
      return;
    }
    const std::vector<server::QueryResult>& results = ticket->wait();
    const std::vector<std::uint8_t> bytes = encode_result_batch(results);
    // Count before the write: once the frame is on the wire the client
    // can observe it, so a count taken afterwards could lag an answer the
    // client already holds.  A failed write takes the count back.
    results_sent_.fetch_add(1, std::memory_order_relaxed);
    if (!write_frame(sock, bytes.data(), bytes.size()).ok()) {
      results_sent_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }

    if (stopping_.load(std::memory_order_acquire)) {
      // The batch in flight was answered; anything the client sends after
      // this notice is its retry path's problem.  Without this check a
      // client streaming back-to-back batches would never go idle and the
      // drain would wait out its entire remaining stream.
      send_error(UnavailableError("server draining"));
      return;
    }
  }
}

void NetServer::watch_loop(FileId last) {
  const std::uint32_t interval_ms =
      opts_.watch_interval_ms != 0
          ? opts_.watch_interval_ms
          : static_cast<std::uint32_t>(env_u64("GCLUS_NET_WATCH_MS", 200, 1));
  while (!stopping_.load(std::memory_order_acquire)) {
    // Sleep in short slices so drain() never waits a full interval.
    for (std::uint32_t slept = 0;
         slept < interval_ms && !stopping_.load(std::memory_order_acquire);
         slept += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint32_t>(20, interval_ms - slept)));
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    const FileId cur = stat_file(opts_.watch_artifact_path);
    if (!cur.exists || cur == last) continue;
    // Remember the identity even if the load fails below: a bad publish
    // is reported once, not every tick.
    last = cur;
    StatusOr<server::QueryEngine> next =
        qserver_.engine()->reload(opts_.watch_artifact_path);
    if (!next.ok()) {
      std::fprintf(stderr,
                   "gclus net: artifact reload of %s failed, keeping the "
                   "current engine: %s\n",
                   opts_.watch_artifact_path.c_str(),
                   next.status().to_string().c_str());
      continue;
    }
    qserver_.swap_engine(std::make_shared<const server::QueryEngine>(
        std::move(next).value()));
    reloads_.fetch_add(1, std::memory_order_relaxed);
  }
}

NetServerStats NetServer::stats() const {
  NetServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.results_sent = results_sent_.load(std::memory_order_relaxed);
  s.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gclus::net
