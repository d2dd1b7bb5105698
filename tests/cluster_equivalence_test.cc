// Copyright 2026 The ARSP Authors.
//
// Coordinator correctness. A Coordinator over N in-process EngineBackend
// shards must answer every query field for field like a single
// EngineBackend holding the same data (EXPECT_EQ on doubles, no tolerance),
// for every registered solver, every derived-goal kind and shard counts
// {1, 2, 3, 7}. Tie boundaries are pinned explicitly: a top-k cut through
// an exact probability tie, the count-controlled tie extension, and a
// threshold lying exactly on an object's probability. The routing rule is
// pinned with fake shards that block until released: each query reaches
// exactly one holder, concurrent queries spread over the holders, an idle
// repeat returns to the same holder, and a shard error frees its slot. A
// named STATS sums its holders' index work and memory.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/core/solver.h"
#include "src/net/server.h"

namespace arsp {
namespace {

using cluster::Coordinator;
using net::EngineBackend;
using net::LoadDatasetRequest;
using net::LoadSource;
using net::QueryRequestWire;
using net::QueryResponseWire;
using net::ServiceBackend;

// A multi-instance synthetic (enum refuses it: 3^18 worlds > the cap, which
// must fail identically through the coordinator) and a single-instance IIP.
struct DatasetCase {
  const char* name;
  const char* spec;
  const char* constraints;
};
constexpr DatasetCase kDatasets[] = {
    {"syn", "synthetic:m=14,cnt=3,d=3,l=0.3,seed=11", "wr:0.5,2.0,0.4,1.8"},
    {"iip", "iip:n=30,seed=5", "wr:0.5,2.0"},
};

// Objects 1 and 2 share an identical instance layout, so their rskyline
// probabilities are exactly equal doubles (the TiedDataset of
// goal_equivalence_test, shipped as CSV). Small enough for enum.
constexpr char kTiedCsv[] =
    "a,1.0,0.1,0.9\n"
    "b,0.5,0.3,0.5\nb,0.5,0.5,0.3\n"
    "c,0.5,0.3,0.5\nc,0.5,0.5,0.3\n"
    "d,0.5,0.7,0.8\nd,0.5,0.9,0.6\n";

std::unique_ptr<Coordinator> MakeCluster(int num_shards) {
  std::vector<std::shared_ptr<ServiceBackend>> shards;
  std::vector<std::string> names;
  for (int s = 0; s < num_shards; ++s) {
    shards.push_back(std::make_shared<EngineBackend>());
    names.push_back("shard-" + std::to_string(s));
  }
  return std::make_unique<Coordinator>(std::move(shards), std::move(names));
}

void LoadGenerator(ServiceBackend& backend, const std::string& name,
                   const std::string& spec) {
  LoadDatasetRequest load;
  load.name = name;
  load.source = LoadSource::kGenerator;
  load.payload = spec;
  auto response = backend.Load(load);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
}

void LoadCsv(ServiceBackend& backend, const std::string& name,
             const std::string& csv) {
  LoadDatasetRequest load;
  load.name = name;
  load.source = LoadSource::kCsvText;
  load.payload = csv;
  auto response = backend.Load(load);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
}

QueryRequestWire MakeQuery(const std::string& dataset,
                           const std::string& constraints,
                           const std::string& solver,
                           DerivedKind kind = DerivedKind::kNone) {
  QueryRequestWire request;
  request.dataset = dataset;
  request.constraint_spec = constraints;
  request.solver = solver;
  request.derived_kind = kind;
  // The sweeps compare *solve* metadata (complete, goal, size). With the
  // cache on, a daemon may legitimately serve a later goal query from an
  // earlier full result — metadata then depends on query history, not on
  // sharding, on either side. Cache behavior gets its own test below.
  request.use_cache = false;
  return request;
}

// The routed answer must be indistinguishable from the single daemon's:
// same solver, completeness, goal, pushdown and result size, same ranked
// ids, names, and bit-identical probabilities, same derived threshold, and
// (when shipped) the identical instance-probability vector.
void ExpectBitIdentical(const QueryResponseWire& reference,
                        const QueryResponseWire& routed,
                        const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(reference.solver, routed.solver);
  EXPECT_EQ(reference.complete, routed.complete);
  EXPECT_EQ(reference.goal, routed.goal);
  EXPECT_EQ(reference.pushdown, routed.pushdown);
  EXPECT_EQ(reference.result_size, routed.result_size);
  EXPECT_EQ(reference.count_threshold, routed.count_threshold);
  ASSERT_EQ(reference.ranked.size(), routed.ranked.size());
  for (size_t i = 0; i < reference.ranked.size(); ++i) {
    EXPECT_EQ(reference.ranked[i].object_id, routed.ranked[i].object_id)
        << "rank " << i;
    EXPECT_EQ(reference.ranked[i].name, routed.ranked[i].name) << "rank " << i;
    EXPECT_EQ(reference.ranked[i].prob, routed.ranked[i].prob) << "rank " << i;
  }
  EXPECT_EQ(reference.instance_probs, routed.instance_probs);
}

// The goal grid each (dataset, solver) pair is swept through. The boundary
// threshold (a probability exactly on an object) is appended by the caller
// once the reference full ranking is known.
std::vector<QueryRequestWire> GoalGrid(const std::string& dataset,
                                       const std::string& constraints,
                                       const std::string& solver) {
  std::vector<QueryRequestWire> grid;
  {
    QueryRequestWire q = MakeQuery(dataset, constraints, solver);
    q.include_instances = true;
    grid.push_back(q);  // full answer, instance vector shipped
  }
  for (int k : {0, 1, 3, -1}) {  // -1 ranks everything; 0 is empty
    QueryRequestWire q = MakeQuery(dataset, constraints, solver,
                                   DerivedKind::kTopKObjects);
    q.k = k;
    grid.push_back(q);
  }
  {
    QueryRequestWire q = MakeQuery(dataset, constraints, solver,
                                   DerivedKind::kCountControlled);
    q.max_objects = 3;
    grid.push_back(q);
  }
  {
    QueryRequestWire q = MakeQuery(dataset, constraints, solver,
                                   DerivedKind::kObjectsAboveThreshold);
    q.threshold = 0.25;
    grid.push_back(q);
  }
  {
    QueryRequestWire q = MakeQuery(dataset, constraints, solver,
                                   DerivedKind::kTopKInstances);
    q.k = 5;
    grid.push_back(q);
  }
  return grid;
}

const char* KindName(DerivedKind kind) {
  switch (kind) {
    case DerivedKind::kNone: return "full";
    case DerivedKind::kTopKObjects: return "topk";
    case DerivedKind::kTopKInstances: return "topk-inst";
    case DerivedKind::kObjectsAboveThreshold: return "threshold";
    case DerivedKind::kCountControlled: return "count";
  }
  return "?";
}

// Sweeps every registered solver over the goal grid on `dataset`,
// comparing `cluster` against the single-backend `reference`. Solvers the
// engine rejects for this dataset/constraint combination must be rejected
// identically (same status code) through the coordinator.
void SweepSolvers(ServiceBackend& reference, ServiceBackend& cluster,
                  const std::string& dataset, const std::string& constraints,
                  const std::string& label,
                  std::vector<std::string> solvers = {}) {
  if (solvers.empty()) solvers = SolverRegistry::Names();
  for (const std::string& solver : solvers) {
    SCOPED_TRACE(label + "/" + solver);
    // Probe applicability with a full ranking; inapplicable solvers must
    // fail with the same code on both sides.
    QueryRequestWire probe = MakeQuery(dataset, constraints, solver,
                                       DerivedKind::kTopKObjects);
    probe.k = -1;
    auto reference_probe = reference.Query(probe);
    auto cluster_probe = cluster.Query(probe);
    ASSERT_EQ(reference_probe.ok(), cluster_probe.ok())
        << "reference: " << reference_probe.status().ToString()
        << " cluster: " << cluster_probe.status().ToString();
    if (!reference_probe.ok()) {
      EXPECT_EQ(reference_probe.status().code(),
                cluster_probe.status().code());
      continue;
    }
    ExpectBitIdentical(*reference_probe, *cluster_probe, "rank-all");

    std::vector<QueryRequestWire> grid =
        GoalGrid(dataset, constraints, solver);
    // A threshold lying exactly on an object's probability — the boundary
    // tie ("probability == threshold" is included).
    if (reference_probe->ranked.size() >= 2 &&
        reference_probe->ranked[1].prob > 0.0) {
      QueryRequestWire q = MakeQuery(dataset, constraints, solver,
                                     DerivedKind::kObjectsAboveThreshold);
      q.threshold = reference_probe->ranked[1].prob;
      grid.push_back(q);
    }
    for (const QueryRequestWire& request : grid) {
      SCOPED_TRACE(std::string(KindName(request.derived_kind)) + " k=" +
                   std::to_string(request.k));
      auto expected = reference.Query(request);
      auto routed = cluster.Query(request);
      ASSERT_EQ(expected.ok(), routed.ok())
          << "reference: " << expected.status().ToString()
          << " cluster: " << routed.status().ToString();
      if (!expected.ok()) {
        EXPECT_EQ(expected.status().code(), routed.status().code());
        continue;
      }
      ExpectBitIdentical(*expected, *routed, "routed");
      if (request.derived_kind == DerivedKind::kTopKObjects ||
          request.derived_kind == DerivedKind::kCountControlled) {
        // Only thresholds push down: top-k and count-controlled answers
        // are sliced from a complete result.
        EXPECT_FALSE(routed->pushdown);
        EXPECT_TRUE(routed->complete);
      }
    }
  }
}

TEST(ClusterEquivalence, RegistrySweepAcrossShardCounts) {
  for (int num_shards : {1, 2, 3, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    auto coordinator = MakeCluster(num_shards);
    EngineBackend reference;
    for (const DatasetCase& dataset : kDatasets) {
      LoadGenerator(*coordinator, dataset.name, dataset.spec);
      LoadGenerator(reference, dataset.name, dataset.spec);
      SweepSolvers(reference, *coordinator, dataset.name,
                   dataset.constraints, dataset.name);
    }
  }
}

TEST(ClusterEquivalence, TieBoundariesSurviveRouting) {
  // The exact-tie dataset: k = 2 cuts through the tie (id order keeps the
  // lower base id), count-controlled k = 2 extends to 3, and a threshold
  // exactly equal to the tied probability includes both.
  auto coordinator = MakeCluster(3);
  EngineBackend reference;
  LoadCsv(*coordinator, "tied", kTiedCsv);
  LoadCsv(reference, "tied", kTiedCsv);
  constexpr char kRank[] = "rank:1";

  for (const char* solver : {"kdtt+", "mwtt", "bnb", "enum", "loop"}) {
    SCOPED_TRACE(solver);
    QueryRequestWire all =
        MakeQuery("tied", kRank, solver, DerivedKind::kTopKObjects);
    all.k = -1;
    auto reference_all = reference.Query(all);
    if (!reference_all.ok()) continue;  // solver not applicable here
    ASSERT_GE(reference_all->ranked.size(), 3u);
    const double tied = reference_all->ranked[1].prob;
    ASSERT_EQ(tied, reference_all->ranked[2].prob);  // the exact tie
    ASSERT_GT(tied, 0.0);

    QueryRequestWire topk =
        MakeQuery("tied", kRank, solver, DerivedKind::kTopKObjects);
    topk.k = 2;
    auto routed_topk = coordinator->Query(topk);
    auto reference_topk = reference.Query(topk);
    ASSERT_TRUE(routed_topk.ok()) << routed_topk.status().ToString();
    ASSERT_TRUE(reference_topk.ok());
    ExpectBitIdentical(*reference_topk, *routed_topk, "topk-tie");
    ASSERT_EQ(routed_topk->ranked.size(), 2u);
    EXPECT_EQ(routed_topk->ranked[1].object_id, 1);  // id order breaks the tie

    QueryRequestWire count =
        MakeQuery("tied", kRank, solver, DerivedKind::kCountControlled);
    count.max_objects = 2;
    auto routed_count = coordinator->Query(count);
    auto reference_count = reference.Query(count);
    ASSERT_TRUE(routed_count.ok()) << routed_count.status().ToString();
    ASSERT_TRUE(reference_count.ok());
    ExpectBitIdentical(*reference_count, *routed_count, "count-tie");
    ASSERT_EQ(routed_count->ranked.size(), 3u);  // the tie extends the answer
    EXPECT_EQ(routed_count->count_threshold, tied);

    QueryRequestWire at = MakeQuery("tied", kRank, solver,
                                    DerivedKind::kObjectsAboveThreshold);
    at.threshold = tied;
    auto routed_at = coordinator->Query(at);
    auto reference_at = reference.Query(at);
    ASSERT_TRUE(routed_at.ok()) << routed_at.status().ToString();
    ASSERT_TRUE(reference_at.ok());
    ExpectBitIdentical(*reference_at, *routed_at, "threshold-tie");
    ASSERT_EQ(routed_at->ranked.size(), 3u);
    EXPECT_EQ(routed_at->ranked[1].object_id, 1);
    EXPECT_EQ(routed_at->ranked[2].object_id, 2);
  }
}

TEST(ClusterEquivalence, ViewsRouteAcrossShards) {
  // Views registered through the coordinator land on the base's holders and
  // route like any dataset; ranked answers still carry base object ids.
  auto coordinator = MakeCluster(3);
  EngineBackend reference;
  const DatasetCase& dataset = kDatasets[1];
  LoadGenerator(*coordinator, dataset.name, dataset.spec);
  LoadGenerator(reference, dataset.name, dataset.spec);

  net::AddViewRequest add;
  add.base_name = dataset.name;
  add.view_name = "iip#25";
  add.num_objects = 25;
  auto through = coordinator->AddView(add);
  ASSERT_TRUE(through.ok()) << through.status().ToString();
  EXPECT_EQ(through->num_objects, 25);
  ASSERT_TRUE(reference.AddView(add).ok());

  SweepSolvers(reference, *coordinator, "iip#25", dataset.constraints,
               "view");

  // Dropping the base through the coordinator cascades on every shard.
  net::DropRequest drop;
  drop.name = dataset.name;
  ASSERT_TRUE(coordinator->Drop(drop).ok());
  auto gone = coordinator->Query(
      MakeQuery("iip#25", dataset.constraints, "kdtt+"));
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST(ClusterEquivalence, RepeatQueryIsAClusterWideCacheHit) {
  auto coordinator = MakeCluster(3);
  const DatasetCase& dataset = kDatasets[1];
  LoadGenerator(*coordinator, dataset.name, dataset.spec);
  QueryRequestWire request =
      MakeQuery(dataset.name, dataset.constraints, "kdtt+");
  request.use_cache = true;
  auto miss = coordinator->Query(request);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss->cache_hit);
  auto hit = coordinator->Query(request);
  ASSERT_TRUE(hit.ok());
  // An idle repeat goes back to the holder that cached the answer.
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->result_size, miss->result_size);

  // Aggregated stats see the dataset once (deduplicated across holders)
  // and sum the shard caches.
  auto stats = coordinator->Stats(net::StatsRequest{dataset.name});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->datasets.size(), 1u);
  EXPECT_EQ(stats->datasets[0].name, dataset.name);
  EXPECT_GT(stats->cache_hits, 0);
  EXPECT_TRUE(stats->has_index_stats);
}

TEST(ClusterEquivalence, StatsSumTheShardsIndexWorkAndMemory) {
  // A cache-off query leaves its context pooled on the holder it ran on,
  // which then reports the context's score rows as index memory. The
  // coordinator's STATS must carry the sum over its shards.
  const std::vector<std::shared_ptr<ServiceBackend>> shards = {
      std::make_shared<EngineBackend>(), std::make_shared<EngineBackend>()};
  Coordinator coordinator(shards, {"shard-0", "shard-1"});
  const DatasetCase& dataset = kDatasets[1];
  LoadGenerator(coordinator, dataset.name, dataset.spec);
  auto response = coordinator.Query(
      MakeQuery(dataset.name, dataset.constraints, "kdtt+"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  ExecutionContext::IndexBuildStats work;
  ColumnBytes memory;
  for (const auto& shard : shards) {
    auto part = shard->Stats(net::StatsRequest{dataset.name});
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    work += part->index_work;
    memory += part->index_memory;
  }
  EXPECT_EQ(work.score_maps, 1);
  EXPECT_GT(memory.resident, 0u);

  auto front = coordinator.Stats(net::StatsRequest{dataset.name});
  ASSERT_TRUE(front.ok()) << front.status().ToString();
  EXPECT_TRUE(front->has_index_stats);
  EXPECT_EQ(front->index_memory.resident, memory.resident);
  EXPECT_EQ(front->index_memory.mapped, memory.mapped);
  EXPECT_EQ(front->index_work.score_maps, work.score_maps);
  EXPECT_EQ(front->index_work.kdtree_builds, work.kdtree_builds);
}

TEST(ClusterEquivalence, UnknownNamesAndBadSpecsFailCleanly) {
  auto coordinator = MakeCluster(2);
  EXPECT_EQ(coordinator->Query(MakeQuery("nope", "wr:0.5,2.0", "kdtt+"))
                .status()
                .code(),
            StatusCode::kNotFound);
  const DatasetCase& dataset = kDatasets[1];
  LoadGenerator(*coordinator, dataset.name, dataset.spec);
  EXPECT_EQ(coordinator->Query(MakeQuery(dataset.name, "wr:banana", "kdtt+"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      coordinator->Query(MakeQuery(dataset.name, dataset.constraints,
                                   "no-such-solver"))
          .ok());
}

// A shard that counts the queries it receives and, while held, blocks each
// one until the test releases it. Every other verb succeeds at once.
class FakeShard : public ServiceBackend {
 public:
  StatusOr<net::LoadDatasetResponse> Load(
      const LoadDatasetRequest& request) override {
    net::LoadDatasetResponse response;
    response.name = request.name;
    response.num_objects = 8;
    return response;
  }
  StatusOr<net::AddViewResponse> AddView(
      const net::AddViewRequest& request) override {
    net::AddViewResponse response;
    response.name = request.view_name;
    return response;
  }
  StatusOr<QueryResponseWire> Query(const QueryRequestWire&) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++queries_;
    cv_.wait(lock, [this] { return !held_; });
    if (fail_) return Status::Unavailable("shard is failing");
    return QueryResponseWire{};
  }
  StatusOr<net::StatsResponse> Stats(const net::StatsRequest&) override {
    return net::StatsResponse{};
  }
  Status Drop(const net::DropRequest&) override { return Status::OK(); }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }
  void Unhold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }
  void Fail() {
    std::lock_guard<std::mutex> lock(mu_);
    fail_ = true;
  }
  int queries() {
    std::lock_guard<std::mutex> lock(mu_);
    return queries_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  bool fail_ = false;
  int queries_ = 0;
};

struct FakeCluster {
  std::vector<std::shared_ptr<FakeShard>> shards;
  std::unique_ptr<Coordinator> coordinator;

  explicit FakeCluster(int num_shards) {
    std::vector<std::shared_ptr<ServiceBackend>> backends;
    std::vector<std::string> names;
    for (int s = 0; s < num_shards; ++s) {
      shards.push_back(std::make_shared<FakeShard>());
      backends.push_back(shards.back());
      names.push_back("fake-" + std::to_string(s));
    }
    coordinator =
        std::make_unique<Coordinator>(std::move(backends), std::move(names));
    LoadGenerator(*coordinator, "d", "fake");
  }

  std::vector<int> Counts() {
    std::vector<int> counts;
    for (const auto& shard : shards) counts.push_back(shard->queries());
    return counts;
  }
  int Total() {
    int total = 0;
    for (int c : Counts()) total += c;
    return total;
  }
};

TEST(ClusterRouting, EachQueryReachesExactlyOneHolder) {
  FakeCluster cluster(2);
  const auto kinds = {
      DerivedKind::kNone, DerivedKind::kTopKObjects,
      DerivedKind::kTopKInstances, DerivedKind::kObjectsAboveThreshold,
      DerivedKind::kCountControlled};
  int sent = 0;
  for (const DerivedKind kind : kinds) {
    SCOPED_TRACE(KindName(kind));
    ASSERT_TRUE(
        cluster.coordinator->Query(MakeQuery("d", "wr:0.5,2.0", "kdtt+", kind))
            .ok());
    EXPECT_EQ(cluster.Total(), ++sent);
  }
}

TEST(ClusterRouting, IdleRepeatLandsOnTheSameHolder) {
  FakeCluster cluster(3);
  for (const char* constraints : {"wr:0.5,2.0", "wr:0.4,2.5", "rank:1"}) {
    SCOPED_TRACE(constraints);
    const std::vector<int> before = cluster.Counts();
    for (int repeat = 0; repeat < 5; ++repeat) {
      ASSERT_TRUE(
          cluster.coordinator->Query(MakeQuery("d", constraints, "kdtt+"))
              .ok());
    }
    const std::vector<int> after = cluster.Counts();
    int holders_hit = 0;
    for (size_t s = 0; s < after.size(); ++s) {
      const int got = after[s] - before[s];
      EXPECT_TRUE(got == 0 || got == 5) << "shard " << s << " got " << got;
      if (got > 0) ++holders_hit;
    }
    EXPECT_EQ(holders_hit, 1);
  }
}

TEST(ClusterRouting, ConcurrentQueriesLandOnDifferentHolders) {
  FakeCluster cluster(2);
  for (const auto& shard : cluster.shards) shard->Hold();
  // The same query twice: idle, both would go to the hash's holder, but the
  // first one is still in flight there when the second arrives.
  const QueryRequestWire query = MakeQuery("d", "wr:0.5,2.0", "kdtt+");
  const auto send = [&] {
    EXPECT_TRUE(cluster.coordinator->Query(query).ok());
  };
  const auto await_total = [&](int n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cluster.Total() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread first(send);
  await_total(1);
  std::thread second(send);
  await_total(2);
  EXPECT_EQ(cluster.Counts(), (std::vector<int>{1, 1}));
  for (const auto& shard : cluster.shards) shard->Unhold();
  first.join();
  second.join();
}

TEST(ClusterRouting, ShardErrorReleasesItsSlot) {
  FakeCluster cluster(2);
  for (const auto& shard : cluster.shards) shard->Fail();
  const QueryRequestWire query = MakeQuery("d", "wr:0.5,2.0", "kdtt+");
  // Each failed query must give its slot back: a leaked slot would make the
  // idle repeat look busy on its holder and send it to the other one.
  for (int repeat = 0; repeat < 4; ++repeat) {
    EXPECT_EQ(cluster.coordinator->Query(query).status().code(),
              StatusCode::kUnavailable);
  }
  const std::vector<int> counts = cluster.Counts();
  EXPECT_TRUE(counts == (std::vector<int>{4, 0}) ||
              counts == (std::vector<int>{0, 4}))
      << counts[0] << "/" << counts[1];
}

}  // namespace
}  // namespace arsp
