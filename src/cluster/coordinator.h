// Copyright 2026 The ARSP Authors.
//
// Coordinator — turns N shards (in-process EngineBackends or remote arspd
// peers behind RemoteShard) into one logical ARSP service with the same
// ServiceBackend interface, so an ArspServer can serve it over the wire
// unchanged (arspd --coordinator).
//
// Placement: LOAD fans a dataset out to the shards ShardPlan picks for it
// (consistent hashing, `replication` copies); every holder gets the FULL
// dataset. Rskyline dominance is global — a shard holding a subset of the
// objects would compute wrong probabilities — so every holder can answer
// any query on its datasets by itself.
//
// Routing: a QUERY is forwarded unchanged to exactly one holder — the one
// with the fewest queries this coordinator has in flight to it. Ties go to
// the holder ShardPlan::Hash(dataset + '\n' + constraint_spec) prefers, so
// an idle repeat lands where its cached result and pooled context already
// are. The reply (answer, stats, completeness) is that holder's, so it is
// bit-identical to a single engine's. Scale-out therefore buys throughput
// across concurrent queries; one query runs on one shard.
//
// Thread safety: all methods are safe for concurrent calls (the server
// invokes them from every connection handler). LOAD/ADDVIEW/STATS/DROP fan
// out to their shards at once: the calling thread makes the first shard's
// call and one std::thread per other shard makes the rest. These admin
// verbs are rare and wait on their shards' I/O, so they start threads per
// call instead of holding CoreBudget slots for the coordinator's lifetime.

#ifndef ARSP_CLUSTER_COORDINATOR_H_
#define ARSP_CLUSTER_COORDINATOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cluster/shard_plan.h"
#include "src/net/backend.h"

namespace arsp {
namespace cluster {

// The cluster layer speaks the wire vocabulary natively.
using net::AddViewRequest;
using net::AddViewResponse;
using net::DatasetInfo;
using net::DropRequest;
using net::LoadDatasetRequest;
using net::LoadDatasetResponse;
using net::QueryRequestWire;
using net::QueryResponseWire;
using net::StatsRequest;
using net::StatsResponse;

class Coordinator : public net::ServiceBackend {
 public:
  /// `shards[i]` is named `shard_names[i]` (the ring key — for remote
  /// shards, conventionally host:port). Sizes must match and be non-empty.
  Coordinator(std::vector<std::shared_ptr<net::ServiceBackend>> shards,
              const std::vector<std::string>& shard_names,
              ShardPlanOptions plan = {});

  StatusOr<LoadDatasetResponse> Load(const LoadDatasetRequest& request) override;
  StatusOr<AddViewResponse> AddView(const AddViewRequest& request) override;
  StatusOr<QueryResponseWire> Query(const QueryRequestWire& request) override;
  StatusOr<StatsResponse> Stats(const StatsRequest& request) override;
  Status Drop(const DropRequest& request) override;

 private:
  /// The shard indices holding `name`, or NotFound.
  StatusOr<std::vector<int>> HoldersOf(const std::string& name) const;

  /// Picks the holder `request` goes to (see the routing rule above) and
  /// counts the query in flight to it; the caller must Release it.
  StatusOr<int> Route(const QueryRequestWire& request);
  void Release(int shard);

  std::vector<std::shared_ptr<net::ServiceBackend>> shards_;
  ShardPlan plan_;

  mutable std::mutex mu_;  ///< guards registry_ and in_flight_
  /// Dataset or view name → the shard indices holding it.
  std::map<std::string, std::vector<int>> registry_;
  /// Queries in flight from this coordinator, per shard index.
  std::vector<int> in_flight_;
};

}  // namespace cluster
}  // namespace arsp

#endif  // ARSP_CLUSTER_COORDINATOR_H_
