// Copyright 2026 The ARSP Authors.
//
// MetricsHttpServer — a deliberately tiny HTTP/1.0-style listener serving
// exactly one resource: GET /metrics → the process MetricsRegistry in
// Prometheus text exposition format. Everything else is a 404. One accept
// thread handles scrapes serially (a scrape is a read-render-write of a few
// KB; Prometheus polls on the order of seconds, so concurrency buys
// nothing), every response closes the connection, and malformed or
// oversized request heads are dropped without parsing heroics.
//
// This is an operational side door, not a product API: arspd opens it only
// when --metrics-port is given, bound to the same loopback-by-default
// stance as the wire port. It is the only way to read the metrics from
// outside the process: the wire protocol has no metrics message.

#ifndef ARSP_OBS_METRICS_HTTP_H_
#define ARSP_OBS_METRICS_HTTP_H_

#include <atomic>
#include <string>
#include <thread>

#include "src/common/status.h"

namespace arsp {
namespace obs {

class MetricsRegistry;

class MetricsHttpServer {
 public:
  /// Serves `registry` (defaults to MetricsRegistry::Global() when null —
  /// the injection point exists for tests).
  explicit MetricsHttpServer(MetricsRegistry* registry = nullptr);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds host:port (port 0 = ephemeral; read it back via port()) and
  /// spawns the accept thread. Internal on bind/listen failure.
  Status Start(const std::string& host, int port);

  /// The bound TCP port; -1 before Start().
  int port() const { return port_; }

  /// Stops accepting and joins the accept thread. Idempotent; also run by
  /// the destructor.
  void Shutdown();

 private:
  void AcceptLoop();
  void ServeOne(int fd);

  MetricsRegistry* registry_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
};

}  // namespace obs
}  // namespace arsp

#endif  // ARSP_OBS_METRICS_HTTP_H_
