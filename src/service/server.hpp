// Loopback TCP front end for the query service: accepts line-protocol
// clients (line_protocol.hpp) and executes their commands against one shared
// QueryService while the host process keeps ingesting on its own thread —
// the deployment shape of the paper's §3.2 model: a resident monitor whose
// operators connect, submit queries, pull results, and leave.
//
// Deliberately minimal plumbing: plain POSIX sockets bound to 127.0.0.1
// only (an operator console, not an exposed service), one thread per client
// (command rates are human-scale) up to kMaxSessions live at once, blocking
// I/O with the listener closed to unblock accept() on stop(). Finished
// sessions are joined as new clients arrive, so a long-running server holds
// no dead threads beyond the cap. All concurrency control lives in the
// service.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>

#include "service/query_service.hpp"

namespace perfq::service {

class QueryServer {
 public:
  /// Longest request line a session buffers. ATTACH carries a whole program
  /// on one line, and 64 KiB is far past any real one. A longer line, with
  /// or without its newline, gets ERR and the session is closed, so no
  /// client can grow the server's memory without bound.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  /// Most sessions served at once. A client past the cap gets ERR and is
  /// closed; so is one whose session thread cannot be started. Either costs
  /// only that connection.
  static constexpr std::size_t kMaxSessions = 64;

  /// Binds 127.0.0.1:`port` and starts accepting (port 0 = ephemeral; read
  /// the bound port back with port()). Throws ConfigError on bind failure.
  /// `service` must outlive the server.
  QueryServer(QueryService& service, std::uint16_t port);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// True once a client issued SHUTDOWN (the host's cue to stop ingest,
  /// stop() the server, and exit).
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Stop accepting, close every client connection, join all threads.
  /// Idempotent; also runs from the destructor.
  void stop();

 private:
  /// One client connection. `done` is set (under clients_mu_) when its
  /// thread no longer touches the session, so the thread can be joined.
  struct Session {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };

  void accept_loop();
  /// Admit a fresh connection: reap finished sessions, then start a session
  /// thread, or answer ERR and close when the cap is reached or the thread
  /// cannot start.
  void admit(int fd);
  void serve_client(Session& session);
  void session_loop(int fd);

  QueryService& service_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_{false};
  std::mutex clients_mu_;  ///< guards sessions_
  std::list<Session> sessions_;  ///< stable addresses for the threads
  std::thread accept_thread_;
};

}  // namespace perfq::service
