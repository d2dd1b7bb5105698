// Copyright 2026 The ARSP Authors.

#include "src/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/mem.h"
#include "src/common/stopwatch.h"
#include "src/core/queries.h"
#include "src/io/csv.h"
#include "src/io/snapshot.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/simd/kernels.h"
#include "src/uncertain/generators.h"

namespace arsp {
namespace net {

namespace {

// FNV-1a over the load request's identity. Used only for the idempotent-
// reload check, where a collision would wrongly reuse a handle —
// acceptable for a 64-bit hash over inputs the operator controls; names,
// not hashes, are the real identity. CSV text and CSV file sources hash
// identically (file content is read before hashing), so a path preload
// and an inline re-load of the same bytes interoperate; only the
// *interpretation* family (CSV vs generator spec) is mixed in, since the
// same bytes mean different datasets across families.
uint64_t Fingerprint(LoadSource source, bool header,
                     const std::string& content) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  mix(source == LoadSource::kGenerator ? 1 : 0);
  mix(header ? 1 : 0);
  for (char c : content) mix(static_cast<uint8_t>(c));
  return h;
}

// Goal-kind label for the arsp_queries_total metric: a small closed set
// (labels must stay low-cardinality — never the raw goal string, which
// embeds constraint text).
const char* GoalLabel(DerivedKind kind) {
  switch (kind) {
    case DerivedKind::kNone: return "full";
    case DerivedKind::kTopKObjects: return "topk_objects";
    case DerivedKind::kTopKInstances: return "topk_instances";
    case DerivedKind::kObjectsAboveThreshold: return "threshold";
    case DerivedKind::kCountControlled: return "count";
  }
  return "full";
}

// Solver label of a failed query: a registered name (canonical case),
// `auto` for `auto` in any case or an empty name, `unknown` for anything
// else — never the raw client string, which would mint a series per typo.
std::string ErrorSolverLabel(const std::string& solver) {
  const std::string name = SolverRegistry::Normalize(solver);
  if (IsAutoName(name)) return "auto";
  const std::vector<std::string> names = SolverRegistry::Names();
  return std::binary_search(names.begin(), names.end(), name) ? name
                                                               : "unknown";
}

obs::Histogram* PhaseHistogram(const char* phase) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "arsp_query_phase_ms", obs::Histogram::LatencyBucketsMs(),
      {{"phase", phase}},
      "Per-phase solver time (setup = context/index work, solve = the "
      "solver proper).");
}

// The STATS latency block, from the server's latency histogram. The
// histogram is process-global, so servers sharing a process share it.
void FillLatency(const obs::Histogram& latency, StatsResponse* response) {
  response->latency_count = static_cast<int64_t>(latency.Count());
  response->latency_mean_ms =
      response->latency_count > 0
          ? latency.Sum() / static_cast<double>(response->latency_count)
          : 0.0;
  response->latency_p50_ms = latency.Quantile(0.50);
  response->latency_p95_ms = latency.Quantile(0.95);
  response->latency_p99_ms = latency.Quantile(0.99);
  response->latency_p999_ms = latency.Quantile(0.999);
}

}  // namespace

EngineBackend::EngineBackend(EngineOptions options)
    : engine_(options),
      cache_hits_(obs::MetricsRegistry::Global().GetCounter(
          "arsp_query_cache_hits_total", {},
          "Queries answered from the result cache.")),
      setup_ms_(PhaseHistogram("setup")),
      solve_ms_(PhaseHistogram("solve")),
      arena_tasks_(obs::MetricsRegistry::Global().GetCounter(
          "arsp_arena_tasks_total", {},
          "TaskArena tasks executed by parallel solves.")),
      arena_tasks_stolen_(obs::MetricsRegistry::Global().GetCounter(
          "arsp_arena_tasks_stolen_total", {},
          "TaskArena tasks run by a helper thread, not the caller.")),
      index_bytes_mapped_(obs::MetricsRegistry::Global().GetGauge(
          "arsp_index_bytes_mapped", {},
          "Bytes of mmap-backed index sections behind the most recent "
          "query.")) {}

ArspServer::ArspServer(ServerOptions options)
    : options_(std::move(options)),
      latency_ms_(obs::MetricsRegistry::Global().GetHistogram(
          "arsp_query_latency_ms", obs::Histogram::LatencyBucketsMs(), {},
          "Server wall time of each answered QUERY, timed around the "
          "backend call.")),
      admission_denials_(obs::MetricsRegistry::Global().GetCounter(
          "arsp_admission_denials_total", {},
          "QUERY requests refused by the admission gate (answered "
          "RETRY_LATER).")) {
  backend_ = options_.backend != nullptr
                 ? options_.backend
                 : std::make_shared<EngineBackend>(options_.engine);
}

ArspServer::~ArspServer() {
  Shutdown();
  Wait();
}

Status ArspServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("server already started");
  }

  // Resolve the bind address (numeric or hostname, IPv4).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(options_.port);
  const int gai = ::getaddrinfo(options_.host.c_str(), port_str.c_str(),
                                &hints, &resolved);
  if (gai != 0) {
    return Status::Internal("cannot resolve bind address '" + options_.host +
                            "': " + gai_strerror(gai));
  }

  int fd = -1;
  Status bind_status = Status::Internal("no usable address");
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      bind_status =
          Status::Internal(std::string("socket: ") + std::strerror(errno));
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      bind_status = Status::OK();
      break;
    }
    bind_status =
        Status::Internal("bind " + options_.host + ":" + port_str + ": " +
                         std::strerror(errno));
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (!bind_status.ok()) return bind_status;

  if (::listen(fd, 64) != 0) {
    const Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  // Non-blocking accepts bound the shutdown latency: the accept loop polls
  // with a 100ms timeout, but a blocking accept(2) can still hang when a
  // connection that was ready at poll time vanishes before the accept (the
  // peer sent RST, or a SYN-cookie handshake fell through) — the kernel
  // then blocks until the *next* connection. O_NONBLOCK turns that race
  // into EAGAIN and the loop re-polls, so Shutdown() is always observed
  // within one poll tick.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status st =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    listen_fd_ = fd;
    port_ = ntohs(bound.sin_port);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

int ArspServer::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return port_;
}

bool ArspServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

int64_t ArspServer::requests_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_served_;
}

void ArspServer::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  stopping_ = true;
  // Live connections may be blocked in RecvFrame; a socket shutdown turns
  // that into EOF and their handlers exit cleanly. The accept loop notices
  // stopping_ on its next poll tick.
  for (int fd : live_connections_) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

void ArspServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return active_connections_ == 0; });
  }
  // Every handler spliced itself onto finished_threads_ before the drain
  // count hit zero (same critical section); join them all.
  ReapFinishedHandlers();
  std::lock_guard<std::mutex> lock(mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ArspServer::ReapFinishedHandlers() {
  std::list<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reap.swap(finished_threads_);
  }
  // A reaped thread may still be running its epilogue; join synchronizes
  // with its true exit.
  for (std::thread& t : reap) t.join();
}

void ArspServer::AcceptLoop() {
  for (;;) {
    ReapFinishedHandlers();
    int listen_fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      listen_fd = listen_fd_;
      if (options_.max_connections > 0 &&
          active_connections_ >= options_.max_connections) {
        // At the cap: leave pending connections in the TCP backlog and
        // check again next tick. stopping_ is still honored above.
        listen_fd = -1;
      }
    }
    if (listen_fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) return;
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;  // EAGAIN (ready connection vanished) re-polls
    // Accepted sockets inherit no flags from the listener on Linux, but be
    // explicit: the handlers use blocking reads.
    const int cflags = ::fcntl(conn, F_GETFL, 0);
    if (cflags >= 0 && (cflags & O_NONBLOCK) != 0) {
      ::fcntl(conn, F_SETFL, cflags & ~O_NONBLOCK);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(conn);
        return;
      }
      // Registered before the handler starts, so a Shutdown() between
      // accept and handler startup still unblocks this connection.
      live_connections_.insert(conn);
      ++active_connections_;
      connection_threads_.emplace_back();
      const auto self = std::prev(connection_threads_.end());
      *self = std::thread([this, conn, self] { HandleConnection(conn, self); });
    }
  }
}

void ArspServer::HandleConnection(int fd,
                                  std::list<std::thread>::iterator self) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) break;
    }
    StatusOr<Frame> frame = RecvFrame(fd);
    if (!frame.ok()) {
      // Clean close, peer death, or a framing violation (bad magic /
      // truncated frame / oversized frame): the stream cannot be trusted
      // past this point, so the connection ends either way.
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++requests_served_;
    }
    MessageType reply_type = MessageType::kError;
    std::string reply_payload;
    const bool keep_open =
        HandleRequest(fd, *frame, &reply_type, &reply_payload);
    if (reply_payload.size() > kMaxPayloadBytes) {
      // A legitimate request can produce a response past the max-frame
      // guard (include_instances on a huge dataset). SendFrame would
      // reject it without writing, stranding the client in a read — turn
      // it into an ERROR frame so the connection stays usable.
      reply_type = MessageType::kError;
      reply_payload =
          ErrorResponse::From(
              Status::InvalidArgument(
                  "response exceeds the max-frame guard; retry without "
                  "include_instances or query a smaller view"))
              .EncodePayload();
    }
    const Status sent = SendFrame(fd, reply_type, reply_payload);
    if (!keep_open) {
      // SHUTDOWN: the acknowledgment must be on the wire before the drain
      // shuts this very socket down, or the client sees a dead connection
      // instead of an OK.
      Shutdown();
      break;
    }
    if (!sent.ok()) break;
  }
  // Untrack strictly before close: once the fd is closed the kernel may
  // hand the same number to a new accept, and a late erase would untrack
  // *that* connection — leaving Shutdown unable to unblock it (drain
  // hang). Close inside the same critical section so the accept side
  // cannot interleave a reuse between erase and close.
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_connections_.erase(fd);
    ::close(fd);
    // Park this thread for the reaper strictly before announcing the
    // drain, so Wait() joining after active_connections_ == 0 sees every
    // handler on finished_threads_.
    finished_threads_.splice(finished_threads_.end(), connection_threads_,
                             self);
    --active_connections_;
    if (active_connections_ == 0) drained_cv_.notify_all();
  }
}

bool ArspServer::HandleRequest(int client_fd, const Frame& frame,
                               MessageType* reply_type,
                               std::string* reply_payload) {
  // Encodes the outcome of one typed handler: the success message on OK,
  // an ErrorResponse otherwise. Payload decode errors go the same route —
  // the framing is intact, so the connection survives a malformed message.
  const auto reply_error = [&](const Status& status) {
    *reply_type = MessageType::kError;
    *reply_payload = ErrorResponse::From(status).EncodePayload();
  };

  switch (frame.type) {
    case MessageType::kPing: {
      *reply_type = MessageType::kOk;
      reply_payload->clear();
      return true;
    }
    case MessageType::kShutdown: {
      // The caller sends the acknowledgment and *then* initiates the drain
      // (signal-only — joining happens in Wait()); triggering it here
      // would shut this connection's socket down under the pending reply.
      *reply_type = MessageType::kOk;
      reply_payload->clear();
      return false;
    }
    case MessageType::kLoadDataset: {
      LoadDatasetRequest request;
      const Status st = request.DecodePayload(frame.payload);
      if (!st.ok()) {
        reply_error(st);
        return true;
      }
      auto response = backend_->Load(request);
      if (!response.ok()) {
        reply_error(response.status());
        return true;
      }
      *reply_type = MessageType::kLoadResult;
      *reply_payload = response->EncodePayload();
      return true;
    }
    case MessageType::kAddView: {
      AddViewRequest request;
      const Status st = request.DecodePayload(frame.payload);
      if (!st.ok()) {
        reply_error(st);
        return true;
      }
      auto response = backend_->AddView(request);
      if (!response.ok()) {
        reply_error(response.status());
        return true;
      }
      *reply_type = MessageType::kViewResult;
      *reply_payload = response->EncodePayload();
      return true;
    }
    case MessageType::kQuery: {
      QueryRequestWire request;
      const Status st = request.DecodePayload(frame.payload);
      if (!st.ok()) {
        reply_error(st);
        return true;
      }
      // Admission gate: an overloaded service answers with a typed
      // RETRY_LATER instead of queueing the query behind an unbounded
      // backlog. The connection stays usable — retrying is the client's
      // call (the load generator and the cluster client both honor it).
      QueryGate* const gate = options_.query_gate.get();
      if (gate != nullptr) {
        RetryLaterResponse retry;
        if (!gate->Admit(static_cast<uint64_t>(client_fd),
                         &retry.retry_after_ms, &retry.reason)) {
          admission_denials_->Inc();
          *reply_type = MessageType::kRetryLater;
          *reply_payload = retry.EncodePayload();
          return true;
        }
      }
      // The slow-query log needs the phase breakdown, which only a trace
      // carries — force one internally when the log is armed, but never
      // ship forced spans to a client that didn't ask for them.
      const bool forced_trace =
          options_.slow_query_ms >= 0 && !request.want_trace;
      if (forced_trace) request.want_trace = true;
      Stopwatch watch;
      auto response = backend_->Query(request);
      const double elapsed_ms = watch.ElapsedMillis();
      if (gate != nullptr) gate->Release(static_cast<uint64_t>(client_fd));
      // Every query the backend answered, rejected ones included. The one
      // per-query registry lookup: these labels depend on the reply.
      const bool ok = response.ok();
      obs::MetricsRegistry::Global()
          .GetCounter("arsp_queries_total",
                      {{"solver", ok ? response->solver
                                     : ErrorSolverLabel(request.solver)},
                       {"goal", GoalLabel(request.derived_kind)},
                       {"outcome", ok ? "ok" : "error"}},
                      "Queries served, by solver, goal kind, and outcome.")
          ->Inc();
      if (!ok) {
        reply_error(response.status());
        return true;
      }
      latency_ms_->Observe(elapsed_ms);
      if (options_.slow_query_ms >= 0 &&
          elapsed_ms >= static_cast<double>(options_.slow_query_ms)) {
        LogSlowQuery(request, *response, elapsed_ms);
      }
      if (forced_trace) {
        response->trace_id = 0;
        response->trace_spans.clear();
      }
      *reply_type = MessageType::kQueryResult;
      *reply_payload = response->EncodePayload();
      return true;
    }
    case MessageType::kStats: {
      StatsRequest request;
      const Status st = request.DecodePayload(frame.payload);
      if (!st.ok()) {
        reply_error(st);
        return true;
      }
      auto response = backend_->Stats(request);
      if (!response.ok()) {
        reply_error(response.status());
        return true;
      }
      FillLatency(*latency_ms_, &*response);
      *reply_type = MessageType::kStatsResult;
      *reply_payload = response->EncodePayload();
      return true;
    }
    case MessageType::kDrop: {
      DropRequest request;
      Status st = request.DecodePayload(frame.payload);
      if (st.ok()) st = backend_->Drop(request);
      if (!st.ok()) {
        reply_error(st);
        return true;
      }
      *reply_type = MessageType::kOk;
      reply_payload->clear();
      return true;
    }
    default:
      reply_error(Status::InvalidArgument(
          std::string("unexpected message type ") +
          MessageTypeName(frame.type)));
      return true;
  }
}

void ArspServer::LogSlowQuery(const QueryRequestWire& request,
                              const QueryResponseWire& response,
                              double elapsed_ms) {
  // Phase breakdown: the root span's direct children (cache_probe,
  // context_acquire, solve, goal_answer — whichever ran).
  std::string phases;
  for (const obs::Span& root : response.trace_spans) {
    for (const obs::Span& child : root.children) {
      char ms[32];
      std::snprintf(ms, sizeof(ms), "=%.3fms", child.DurationMs());
      phases += " " + child.name + ms;
    }
  }
  std::fprintf(stderr,
               "[arspd] slow query trace=%016" PRIx64
               " dataset=%s solver=%s goal=%s total=%.3fms phases:%s\n",
               response.trace_id, request.dataset.c_str(),
               response.solver.c_str(), response.goal.c_str(), elapsed_ms,
               phases.empty() ? " (none)" : phases.c_str());
}

StatusOr<LoadDatasetResponse> EngineBackend::Load(
    const LoadDatasetRequest& request) {
  if (request.name.empty()) {
    return Status::InvalidArgument("LOAD_DATASET needs a non-empty name");
  }

  // A server-side path ending in ".arsp" is a columnar snapshot: it is
  // mmap-loaded (zero parse, zero copy) instead of read as CSV, and the
  // snapshot header's content hash is the registry fingerprint — two
  // snapshot files with identical sections reuse one handle regardless of
  // path or mtime, exactly like re-shipped CSV bytes.
  const bool is_snapshot =
      request.source == LoadSource::kCsvFile &&
      request.payload.size() > 5 &&
      request.payload.compare(request.payload.size() - 5, 5, ".arsp") == 0;

  // Server-side file sources are read up front so the fingerprint covers
  // content, not the path — a changed file under the same path must not be
  // silently reused. Inline payloads are referenced, not copied (they can
  // be hundreds of MB).
  std::string file_content;
  snapshot::LoadedSnapshot snap;
  uint64_t fingerprint = 0;
  if (is_snapshot) {
    auto loaded = snapshot::LoadSnapshot(request.payload);
    if (!loaded.ok()) return loaded.status();
    snap = std::move(*loaded);
    fingerprint = snap.fingerprint;
  } else {
    if (request.source == LoadSource::kCsvFile) {
      std::ifstream file(request.payload);
      if (!file) {
        return Status::NotFound("cannot open '" + request.payload +
                                "' on the server");
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      file_content = buffer.str();
    }
    const std::string& content = request.source == LoadSource::kCsvFile
                                     ? file_content
                                     : request.payload;
    fingerprint = Fingerprint(request.source, request.header, content);
  }

  // Idempotent re-load: same name + same content reuses the handle (this
  // is what lets separate CLI invocations share one engine dataset and hit
  // the result cache); same name + different content is refused.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = registry_.find(request.name);
    if (it != registry_.end()) {
      if (it->second.is_view || it->second.fingerprint != fingerprint) {
        return Status::InvalidArgument(
            "name '" + request.name +
            "' is already bound to different content (DROP it first)");
      }
      LoadDatasetResponse response;
      response.name = request.name;
      response.num_objects = it->second.num_objects;
      response.num_instances = it->second.num_instances;
      response.dim = it->second.dim;
      response.reused = true;
      return response;
    }
  }

  // Parse / generate outside the registry lock — loads can be slow.
  // Snapshot datasets arrive fully assembled (borrowed columns, attached
  // indexes) and enter the engine by shared pointer — no copy.
  NamedEntry entry;
  if (is_snapshot) {
    entry.num_objects = snap.dataset->num_objects();
    entry.num_instances = snap.dataset->num_instances();
    entry.dim = snap.dataset->dim();
    entry.fingerprint = fingerprint;
    entry.names = std::make_shared<std::vector<std::string>>(
        std::move(snap.object_names));
    entry.handle = engine_.AddDataset(snap.dataset);
  } else {
    const std::string& content = request.source == LoadSource::kCsvFile
                                     ? file_content
                                     : request.payload;
    auto names = std::make_shared<std::vector<std::string>>();
    StatusOr<UncertainDataset> dataset =
        request.source == LoadSource::kGenerator
            ? GenerateFromSpec(content, names.get())
            : ParseUncertainDatasetCsv(content, request.header, names.get());
    if (!dataset.ok()) return dataset.status();
    entry.num_objects = dataset->num_objects();
    entry.num_instances = dataset->num_instances();
    entry.dim = dataset->dim();
    entry.fingerprint = fingerprint;
    entry.names = std::move(names);
    entry.handle = engine_.AddDataset(std::move(*dataset));
  }

  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = registry_.emplace(request.name, entry);
  if (!inserted) {
    // A concurrent load of the same name won the race. Converge on the
    // winner when the content matches; otherwise report the conflict.
    engine_.DropDataset(entry.handle);
    if (it->second.is_view || it->second.fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "name '" + request.name +
          "' is already bound to different content (DROP it first)");
    }
  }
  LoadDatasetResponse response;
  response.name = request.name;
  response.num_objects = it->second.num_objects;
  response.num_instances = it->second.num_instances;
  response.dim = it->second.dim;
  response.reused = !inserted;
  return response;
}

StatusOr<AddViewResponse> EngineBackend::AddView(
    const AddViewRequest& request) {
  if (request.view_name.empty()) {
    return Status::InvalidArgument("ADD_VIEW needs a non-empty view name");
  }
  DatasetHandle base_handle;
  std::shared_ptr<const std::vector<std::string>> base_names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto base = registry_.find(request.base_name);
    if (base == registry_.end()) {
      return Status::NotFound("unknown dataset '" + request.base_name + "'");
    }
    if (base->second.is_view) {
      return Status::InvalidArgument(
          "'" + request.base_name +
          "' is a view — register views against the base dataset");
    }
    const auto existing = registry_.find(request.view_name);
    if (existing != registry_.end()) {
      // Idempotent re-registration (same base, same object count):
      // separate CLI invocations repeating a sweep reuse the view — and
      // therefore its cache entries — instead of erroring out.
      if (existing->second.is_view &&
          existing->second.base == request.base_name &&
          existing->second.num_objects == request.num_objects) {
        AddViewResponse response;
        response.name = request.view_name;
        response.num_objects = existing->second.num_objects;
        response.num_instances = existing->second.num_instances;
        response.dim = existing->second.dim;
        return response;
      }
      return Status::InvalidArgument("name '" + request.view_name +
                                     "' is already registered");
    }
    base_handle = base->second.handle;
    base_names = base->second.names;
  }

  auto handle = engine_.AddView(base_handle, request.num_objects);
  if (!handle.ok()) return handle.status();
  const DatasetView view = engine_.view(*handle);

  NamedEntry entry;
  entry.handle = *handle;
  entry.is_view = true;
  entry.base = request.base_name;
  entry.names = std::move(base_names);
  entry.num_objects = view.num_objects();
  entry.num_instances = view.num_instances();
  entry.dim = view.dim();

  std::lock_guard<std::mutex> lock(mu_);
  const auto base = registry_.find(request.base_name);
  if (base == registry_.end() ||
      base->second.handle.id != base_handle.id) {
    // The base was dropped (and possibly re-loaded under the same name)
    // while the view was being built; the engine-side cascade already
    // destroyed our view handle, so registering the name would bind it to
    // a dead handle. The extra engine drop is a no-op in the
    // already-cascaded case.
    engine_.DropDataset(entry.handle);
    return Status::NotFound("dataset '" + request.base_name +
                            "' was dropped concurrently");
  }
  const auto [it, inserted] = registry_.emplace(request.view_name, entry);
  if (!inserted) {
    engine_.DropDataset(entry.handle);
    return Status::InvalidArgument("name '" + request.view_name +
                                   "' is already registered");
  }
  base->second.views.push_back(request.view_name);
  AddViewResponse response;
  response.name = request.view_name;
  response.num_objects = entry.num_objects;
  response.num_instances = entry.num_instances;
  response.dim = entry.dim;
  return response;
}

StatusOr<QueryResponseWire> EngineBackend::Query(
    const QueryRequestWire& request) {
  DatasetHandle handle;
  std::shared_ptr<const std::vector<std::string>> names;
  int dim = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = registry_.find(request.dataset);
    if (it == registry_.end()) {
      return Status::NotFound("unknown dataset '" + request.dataset + "'");
    }
    handle = it->second.handle;
    names = it->second.names;
    dim = it->second.dim;
  }

  auto constraints = ParseConstraintSpec(request.constraint_spec, dim);
  if (!constraints.ok()) return constraints.status();

  QueryRequest query;
  query.dataset = handle;
  query.constraints = std::move(*constraints);
  query.solver = request.solver;
  for (const std::string& opt : request.options) {
    ARSP_RETURN_IF_ERROR(query.options.ParseKeyValue(opt));
  }
  query.derived.kind = request.derived_kind;
  query.derived.k = request.k;
  query.derived.threshold = request.threshold;
  query.derived.max_objects = request.max_objects;
  query.use_cache = request.use_cache;
  query.allow_pushdown = request.allow_pushdown;
  query.parallelism = request.parallelism;
  // Tracing: enabled only on request (want_trace), reusing a propagated
  // upstream id when one is stamped so one id correlates coordinator and
  // shard timelines. query.trace stays null otherwise — the zero-cost
  // disabled mode.
  std::unique_ptr<obs::Trace> trace;
  if (request.want_trace) {
    trace = std::make_unique<obs::Trace>(
        request.trace_id != 0 ? request.trace_id : obs::Trace::NewTraceId(),
        "engine_query");
    query.trace = trace.get();
  }
  auto response = engine_.Solve(query);
  if (!response.ok()) return response.status();
  if (response->cache_hit) cache_hits_->Inc();
  setup_ms_->Observe(response->stats.setup_millis);
  solve_ms_->Observe(response->stats.solve_millis);
  if (response->stats.tasks_spawned > 0) {
    arena_tasks_->Inc(static_cast<uint64_t>(response->stats.tasks_spawned));
    arena_tasks_stolen_->Inc(
        static_cast<uint64_t>(response->stats.tasks_stolen));
  }
  if (response->stats.index_bytes_mapped > 0) {
    index_bytes_mapped_->Set(response->stats.index_bytes_mapped);
  }

  QueryResponseWire wire;
  wire.solver = response->solver;
  wire.cache_hit = response->cache_hit;
  wire.pushdown = response->pushdown;
  wire.complete = response->result->is_complete();
  wire.goal = response->result->goal.ToString();
  wire.result_size = wire.complete ? CountNonZero(*response->result) : -1;
  wire.count_threshold = response->count_threshold;
  wire.stats = response->stats;
  wire.ranked.reserve(response->ranked.size());
  // Instance-level rankings carry instance ids, which have no name; every
  // object-level kind carries *base* object ids that index the base's
  // name table regardless of the queried window.
  const bool object_ids =
      request.derived_kind != DerivedKind::kTopKInstances;
  for (const auto& [id, prob] : response->ranked) {
    RankedEntry entry;
    entry.object_id = id;
    if (object_ids && names != nullptr &&
        id >= 0 && static_cast<size_t>(id) < names->size()) {
      entry.name = (*names)[static_cast<size_t>(id)];
    }
    entry.prob = prob;
    wire.ranked.push_back(std::move(entry));
  }
  if (request.include_instances && wire.complete) {
    wire.instance_probs = response->result->instance_probs;
  }
  if (trace != nullptr) {
    trace->Annotate("dataset", request.dataset);
    trace->Annotate("solver", wire.solver);
    trace->Finish();
    wire.trace_id = trace->id();
    wire.trace_spans = {trace->root()};
    obs::MaybeWriteChromeTrace(trace->root(), trace->id());
  }
  return wire;
}

StatusOr<StatsResponse> EngineBackend::Stats(const StatsRequest& request) {
  StatsResponse response;
  response.kernel_arch = simd::ActiveArchName();
  const ArspEngine::CacheStats cache = engine_.cache_stats();
  response.cache_hits = cache.hits;
  response.cache_misses = cache.misses;
  response.cache_entries = cache.entries;
  response.pooled_contexts = engine_.pooled_contexts();

  std::vector<DatasetHandle> index_handles;
  {
    std::lock_guard<std::mutex> lock(mu_);
    response.datasets.reserve(registry_.size());
    for (const auto& [name, entry] : registry_) {
      DatasetInfo info;
      info.name = name;
      info.num_objects = entry.num_objects;
      info.num_instances = entry.num_instances;
      info.dim = entry.dim;
      info.is_view = entry.is_view;
      response.datasets.push_back(std::move(info));
    }
    if (!request.dataset.empty()) {
      const auto it = registry_.find(request.dataset);
      if (it == registry_.end()) {
        return Status::NotFound("unknown dataset '" + request.dataset + "'");
      }
      // Index-work counters add up the name's own work plus, for bases,
      // every view registered over it: arsp_cli --subset prints the
      // difference across a sweep, in process and remote alike.
      index_handles.push_back(it->second.handle);
      for (const std::string& view_name : it->second.views) {
        const auto view = registry_.find(view_name);
        if (view != registry_.end()) {
          index_handles.push_back(view->second.handle);
        }
      }
    }
  }
  response.has_index_stats = !index_handles.empty();
  for (const DatasetHandle& handle : index_handles) {
    response.index_work += engine_.index_stats(handle);
    response.index_memory += engine_.index_memory(handle);
  }
  response.peak_rss_bytes = PeakRssBytes();
  return response;
}

Status EngineBackend::Drop(const DropRequest& request) {
  DatasetHandle handle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = registry_.find(request.name);
    if (it == registry_.end()) {
      return Status::NotFound("unknown dataset '" + request.name + "'");
    }
    handle = it->second.handle;
    if (it->second.is_view) {
      // Unlink from the base's view list.
      const auto base = registry_.find(it->second.base);
      if (base != registry_.end()) {
        auto& views = base->second.views;
        views.erase(std::remove(views.begin(), views.end(), request.name),
                    views.end());
      }
      registry_.erase(it);
    } else {
      // The engine cascades a base drop to its views; the registry must
      // agree or later queries would hit dangling handles.
      for (const std::string& view_name : it->second.views) {
        registry_.erase(view_name);
      }
      registry_.erase(it);
    }
  }
  return engine_.DropDataset(handle);
}

}  // namespace net
}  // namespace arsp
