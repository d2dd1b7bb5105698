// Copyright 2026 The ARSP Authors.
//
// ArspServer — the long-lived query daemon behind arspd: a blocking TCP
// server holding exactly one ArspEngine plus a *named* dataset registry, so
// wire clients address datasets and views by name instead of by engine
// handle. Every query a client sends goes through the same engine paths an
// in-process caller uses — context pool, result cache, goal pushdown — which
// is what makes the amortization of a resident service real: one index
// build, many queries, across connections.
//
// Threading model (deliberately simple — blocking sockets, no event loop):
//   * one accept thread polls the listening socket;
//   * each accepted connection gets a dedicated handler thread that loops
//     RecvFrame → dispatch → SendFrame until the client disconnects.
//     Dedicated threads — NOT slots on a fixed pool — because a handler
//     occupies its thread for the connection's lifetime: pooling would cap
//     concurrent *connections* at the pool size, and on a small machine
//     (pool of 1) a second client deadlocks behind an idle first one.
//     `max_connections` bounds the thread count explicitly instead; excess
//     connections wait in the TCP backlog. Requests on one connection are
//     strictly sequential (responses cannot interleave); concurrency across
//     connections is the engine's own thread-safety.
//   * Shutdown() (SIGINT in arspd, or a SHUTDOWN message) is a clean drain:
//     stop accepting, shut down every live connection socket (which
//     unblocks their reads), then Wait() joins the accept thread and every
//     handler thread.
//
// Registry semantics:
//   * LOAD_DATASET binds a name to content (inline CSV text, a server-side
//     CSV path, or a GenerateFromSpec generator spec). Names are immutable
//     bindings: re-loading a name with identical content (fingerprint
//     match) idempotently returns the existing handle — the cross-
//     connection amortization clients rely on — while different content is
//     an InvalidArgument.
//   * ADD_VIEW binds a view name to the first num_objects objects of a
//     base name; view handles are first-class query targets, and ranked
//     answers carry *base* object ids + names regardless of the window.
//   * DROP unbinds; dropping a base cascades to its views (mirroring
//     ArspEngine::DropDataset).

#ifndef ARSP_NET_SERVER_H_
#define ARSP_NET_SERVER_H_

#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/net/backend.h"
#include "src/net/protocol.h"

namespace arsp {
namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

namespace net {

/// The single-process backend: one ArspEngine plus the named registry.
/// This is what a plain arspd serves; the cluster layer also uses it
/// directly as an in-process shard (it is a ServiceBackend like any other).
class EngineBackend : public ServiceBackend {
 public:
  explicit EngineBackend(EngineOptions options = {});

  StatusOr<LoadDatasetResponse> Load(const LoadDatasetRequest& request) override;
  StatusOr<AddViewResponse> AddView(const AddViewRequest& request) override;
  StatusOr<QueryResponseWire> Query(const QueryRequestWire& request) override;
  StatusOr<StatsResponse> Stats(const StatsRequest& request) override;
  Status Drop(const DropRequest& request) override;

 private:
  /// One registered name: the engine handle behind it plus everything the
  /// wire layer needs to answer without re-deriving (names for ranked
  /// output, shape for listings, the content fingerprint for idempotent
  /// re-loads).
  struct NamedEntry {
    DatasetHandle handle;
    uint64_t fingerprint = 0;
    bool is_view = false;
    std::string base;              ///< base name (views only)
    std::vector<std::string> views;  ///< view names over this base
    /// Object names of the *base* dataset (ranked ids are base ids).
    std::shared_ptr<const std::vector<std::string>> names;
    int num_objects = 0;
    int num_instances = 0;
    int dim = 0;
  };

  ArspEngine engine_;
  mutable std::mutex mu_;
  std::map<std::string, NamedEntry> registry_;

  // Registry instruments every answered query updates, fetched once.
  obs::Counter* const cache_hits_;
  obs::Histogram* const setup_ms_;
  obs::Histogram* const solve_ms_;
  obs::Counter* const arena_tasks_;
  obs::Counter* const arena_tasks_stolen_;
  obs::Gauge* const index_bytes_mapped_;
};

struct ServerOptions {
  /// Bind address. Defaults to loopback: arspd is a backend service; put a
  /// real ingress in front of it before exposing it.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Maximum concurrent connections (each holds one handler thread);
  /// 0 = unlimited. When at the cap, the accept loop leaves new
  /// connections in the TCP backlog until a slot frees.
  int max_connections = 0;
  /// Engine construction knobs (cache capacity, context pool) for the
  /// default EngineBackend; ignored when `backend` is set.
  EngineOptions engine;
  /// The request backend. Null (the default) builds an internal
  /// EngineBackend from `engine` — the classic single-process daemon. The
  /// cluster layer installs a Coordinator here.
  std::shared_ptr<ServiceBackend> backend;
  /// Optional admission gate for QUERY requests (see QueryGate). Null
  /// admits everything.
  std::shared_ptr<QueryGate> query_gate;
  /// Slow-query log threshold in milliseconds; negative disables (the
  /// default). When enabled, every QUERY is traced internally (the client
  /// does not see the forced spans unless it asked) and any request whose
  /// end-to-end handling exceeds the threshold logs one stderr line with
  /// its trace id, dataset, solver, goal, and per-phase breakdown.
  int slow_query_ms = -1;
};

/// The daemon's server object. Lifecycle: construct → Start() → (serve) →
/// Shutdown() → Wait(). Start/Shutdown/Wait are safe to call from different
/// threads; Shutdown is idempotent and callable from connection handlers
/// (the SHUTDOWN message) — it only signals, Wait() does the joining.
class ArspServer {
 public:
  explicit ArspServer(ServerOptions options = {});
  ~ArspServer();

  ArspServer(const ArspServer&) = delete;
  ArspServer& operator=(const ArspServer&) = delete;

  /// Binds, listens, and spawns the accept thread. Internal on bind/listen
  /// failures (port in use, bad host).
  Status Start();

  /// The bound TCP port (the actual one when options.port was 0); -1 before
  /// Start().
  int port() const;

  /// Initiates a clean drain: stop accepting, unblock every live
  /// connection. Returns immediately; pair with Wait().
  void Shutdown();

  /// Blocks until the accept thread and every connection handler have
  /// finished. Returns immediately if Start() was never called.
  void Wait();

  /// True once Shutdown() ran or a SHUTDOWN message was served — the
  /// daemon's main loop polls this to know when to Wait().
  bool shutdown_requested() const;

  /// Number of requests served since Start (all message types).
  int64_t requests_served() const;

 private:
  void AcceptLoop();
  /// `self` is this handler's node in connection_threads_; the handler
  /// splices it onto finished_threads_ on exit so it can be joined.
  void HandleConnection(int fd, std::list<std::thread>::iterator self);
  /// Joins every thread parked on finished_threads_. Called from the
  /// accept loop each tick (so a long-lived daemon reaps as it goes) and
  /// from Wait() for the final drain.
  void ReapFinishedHandlers();

  /// Dispatches one decoded frame; fills the reply (type + payload).
  /// Returns false when the connection must close (SHUTDOWN). `client_fd`
  /// identifies the connection to the admission gate.
  bool HandleRequest(int client_fd, const Frame& frame,
                     MessageType* reply_type, std::string* reply_payload);

  /// One stderr line for an over-threshold query: trace id, dataset,
  /// solver, goal, total, and the root span's per-phase child durations.
  void LogSlowQuery(const QueryRequestWire& request,
                    const QueryResponseWire& response, double elapsed_ms);

  ServerOptions options_;
  /// arsp_query_latency_ms: the wall time of every answered QUERY, timed
  /// around the backend call; the only latency record STATS reports.
  obs::Histogram* const latency_ms_;
  obs::Counter* const admission_denials_;
  /// The dispatch target: options_.backend, or an EngineBackend built from
  /// options_.engine.
  std::shared_ptr<ServiceBackend> backend_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::set<int> live_connections_;
  int active_connections_ = 0;
  int listen_fd_ = -1;
  int port_ = -1;
  bool started_ = false;
  bool stopping_ = false;
  int64_t requests_served_ = 0;

  /// Live handler threads, one per open connection. A handler moves its
  /// own node to finished_threads_ (under mu_) just before exiting; only
  /// ReapFinishedHandlers joins, so no thread ever joins itself.
  std::list<std::thread> connection_threads_;
  std::list<std::thread> finished_threads_;
  std::thread accept_thread_;
};

}  // namespace net
}  // namespace arsp

#endif  // ARSP_NET_SERVER_H_
