// Copyright 2026 The ARSP Authors.
//
// ServiceBackend — the seam between the wire server's socket machinery and
// whatever answers requests behind it. ArspServer decodes one typed request
// per frame and hands it to a backend; the reply encoding, framing, and
// connection lifecycle stay in the server. Two implementations exist:
//
//   * EngineBackend (src/net/server.h) — one ArspEngine plus the named
//     dataset registry: the classic single-process arspd.
//   * Coordinator (src/cluster/coordinator.h) — places datasets on a set
//     of shards (each itself a ServiceBackend: in-process engines or remote
//     arspd peers) and routes each query whole to one of them.
//
// The coordinator-over-backends recursion is the whole design: a shard
// neither knows nor cares whether it is queried by a CLI, a coordinator,
// or another coordinator.

#ifndef ARSP_NET_BACKEND_H_
#define ARSP_NET_BACKEND_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/net/protocol.h"

namespace arsp {
namespace net {

/// Answers decoded wire requests. Implementations must be thread-safe: the
/// server calls concurrently from every connection handler.
class ServiceBackend {
 public:
  virtual ~ServiceBackend() = default;

  virtual StatusOr<LoadDatasetResponse> Load(
      const LoadDatasetRequest& request) = 0;
  virtual StatusOr<AddViewResponse> AddView(const AddViewRequest& request) = 0;
  virtual StatusOr<QueryResponseWire> Query(
      const QueryRequestWire& request) = 0;
  virtual StatusOr<StatsResponse> Stats(const StatsRequest& request) = 0;
  virtual Status Drop(const DropRequest& request) = 0;
};

/// Admission hook consulted before every QUERY is dispatched to the
/// backend. Denied queries are answered with a typed RETRY_LATER frame
/// instead of queueing unboundedly; the client sees StatusCode::kUnavailable
/// and retries after the hinted delay. Admit/Release bracket one query
/// (Release runs even when the backend fails), so implementations can keep
/// a bounded pending-work budget. Must be thread-safe.
class QueryGate {
 public:
  virtual ~QueryGate() = default;

  /// Returns true to admit the query. On denial fills the retry hint and a
  /// human-readable reason; Release is NOT called for denied queries.
  virtual bool Admit(uint64_t client_id, uint32_t* retry_after_ms,
                     std::string* reason) = 0;
  /// Marks an admitted query finished.
  virtual void Release(uint64_t client_id) = 0;
};

}  // namespace net
}  // namespace arsp

#endif  // ARSP_NET_BACKEND_H_
