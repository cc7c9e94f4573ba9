#include "service/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <string>
#include <system_error>

#include "common/error.hpp"
#include "service/line_protocol.hpp"

namespace perfq::service {

namespace {

/// Send the whole buffer, looping over short writes. Returns false on a
/// closed/broken connection (the client went away; not an error).
/// MSG_NOSIGNAL: a client that closes with replies still pending must cost
/// only its own session (EPIPE), not SIGPIPE the whole process.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

QueryServer::QueryServer(QueryService& service, std::uint16_t port)
    : service_(service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ConfigError{std::string{"QueryServer: socket(): "} +
                      std::strerror(errno)};
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError{"QueryServer: cannot listen on 127.0.0.1:" +
                      std::to_string(port) + ": " + why};
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Shutting down the listener unblocks accept() (EINVAL) and shutting down
  // client sockets unblocks their blocking reads. The listener is closed —
  // and listen_fd_ written — only AFTER the accept thread is joined, so the
  // accept loop never reads a racing or reused fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    const std::scoped_lock lock(clients_mu_);
    for (const Session& s : sessions_) {
      if (!s.done) ::shutdown(s.fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The accept thread is gone, so no session is added any more.
  std::list<Session> sessions;
  {
    const std::scoped_lock lock(clients_mu_);
    sessions.swap(sessions_);
  }
  for (Session& s : sessions) {
    if (s.thread.joinable()) s.thread.join();
  }
}

void QueryServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    admit(fd);
  }
}

void QueryServer::admit(int fd) {
  std::list<Session> finished;
  std::unique_lock<std::mutex> lock(clients_mu_);
  // Checked under the lock stop() shuts sessions down under: a session
  // registered after that point would never be shut down.
  if (stopping_.load(std::memory_order_acquire)) {
    lock.unlock();
    ::close(fd);
    return;
  }
  std::size_t live = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const auto next = std::next(it);
    if (it->done) {
      finished.splice(finished.end(), sessions_, it);
    } else {
      ++live;
    }
    it = next;
  }
  std::string refusal;
  if (live >= kMaxSessions) {
    refusal = "too many sessions (at most " + std::to_string(kMaxSessions) +
              ")";
  } else {
    Session& session = sessions_.emplace_back();
    session.fd = fd;
    try {
      session.thread =
          std::thread([this, &session] { serve_client(session); });
    } catch (const std::system_error& e) {
      sessions_.pop_back();
      refusal = std::string{"cannot start a session: "} + e.what();
    }
  }
  lock.unlock();
  if (!refusal.empty()) {
    write_all(fd, "ERR " + refusal + "\n");
    ::close(fd);
  }
  // Finished threads only return from serve_client; join them unlocked.
  for (Session& s : finished) s.thread.join();
}

void QueryServer::serve_client(Session& session) {
  session_loop(session.fd);
  // Close under the same lock stop() shuts sockets down under, so the fd is
  // never closed (and possibly reused) while stop() still holds it.
  const std::scoped_lock lock(clients_mu_);
  ::close(session.fd);
  session.done = true;
}

void QueryServer::session_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    // Execute every complete line already buffered.
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      // An over-long line is refused below, like one that never ends.
      if (nl - start > kMaxLineBytes) break;
      std::string_view line{buffer.data() + start, nl - start};
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;
      if (line == "QUIT") {
        write_all(fd, "OK 0\n");
        return;
      }
      const Response r = execute_line(service_, line);
      if (!write_all(fd, r.to_wire())) return;
      if (r.shutdown) {
        shutdown_.store(true, std::memory_order_release);
        return;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      write_all(fd, "ERR request line longer than " +
                        std::to_string(kMaxLineBytes) + " bytes\n");
      return;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // disconnect, or stop() shut the socket down
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfq::service
