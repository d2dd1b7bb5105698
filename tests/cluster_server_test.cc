// Copyright 2026 The ARSP Authors.
//
// The cluster stack over real sockets: an ArspServer serving a Coordinator
// whose shards are RemoteShards dialing two backend arspd processes' worth
// of ArspServers — the exact `arspd --coordinator` topology, in-process.
// Covers: bit-identical answers through two wire hops, the typed
// RETRY_LATER overload reply (client surfaces kUnavailable with the retry
// hint), admission applying only to QUERY, cross-process trace stitching
// (want_trace through the coordinator returns a span tree holding the
// chosen shard's solve subtree), a coordinator's STATS latency timing its
// own hop and reporting its own peak RSS, a coordinator front counting the
// queries it rejects, and the bounded-shutdown-latency regression for the
// nonblocking accept loop.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/admission.h"
#include "src/cluster/coordinator.h"
#include "src/cluster/remote_shard.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using cluster::AdmissionController;
using cluster::AdmissionOptions;
using cluster::Coordinator;
using cluster::CoordinatorOptions;
using cluster::RemoteShard;

constexpr char kSpec[] = "iip:n=50,seed=9";
constexpr char kWr[] = "wr:0.5,2.0";

std::unique_ptr<net::ArspServer> StartServer(net::ServerOptions options) {
  options.port = 0;
  auto server = std::make_unique<net::ArspServer>(std::move(options));
  const Status started = server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  EXPECT_GT(server->port(), 0);
  return server;
}

net::ArspClient Connect(const net::ArspServer& server) {
  auto client = net::ArspClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

void LoadIip(net::ArspClient& client, const std::string& name) {
  net::LoadDatasetRequest load;
  load.name = name;
  load.source = net::LoadSource::kGenerator;
  load.payload = kSpec;
  auto response = client.LoadDataset(load);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
}

net::QueryRequestWire WireQuery(const std::string& dataset,
                                DerivedKind kind = DerivedKind::kNone) {
  net::QueryRequestWire request;
  request.dataset = dataset;
  request.constraint_spec = kWr;
  request.solver = "kdtt+";
  request.derived_kind = kind;
  return request;
}

TEST(ClusterServer, CoordinatorDaemonAnswersBitIdenticallyToASingleDaemon) {
  // Two backend daemons (the shards), dialed via RemoteShard.
  auto shard_a = StartServer({});
  auto shard_b = StartServer({});
  std::vector<std::shared_ptr<net::ServiceBackend>> shards = {
      std::make_shared<RemoteShard>("127.0.0.1", shard_a->port()),
      std::make_shared<RemoteShard>("127.0.0.1", shard_b->port()),
  };
  net::ServerOptions coordinator_options;
  coordinator_options.backend = std::make_shared<Coordinator>(
      shards, std::vector<std::string>{"a", "b"}, CoordinatorOptions{});
  auto coordinator = StartServer(std::move(coordinator_options));

  // The unsharded reference daemon.
  auto single = StartServer({});
  net::ArspClient single_client = Connect(*single);
  LoadIip(single_client, "iip");

  net::ArspClient client = Connect(*coordinator);
  LoadIip(client, "iip");

  // Full answer: the instance vector is bit-identical.
  net::QueryRequestWire full = WireQuery("iip");
  full.include_instances = true;
  auto routed = client.Query(full);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  auto expected = single_client.Query(full);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(routed->complete);
  EXPECT_EQ(routed->instance_probs, expected->instance_probs);
  EXPECT_EQ(routed->result_size, expected->result_size);

  // Ranked kinds: ids, names, probabilities bit-exact through both hops.
  for (const DerivedKind kind :
       {DerivedKind::kTopKObjects,
        DerivedKind::kObjectsAboveThreshold,
        DerivedKind::kCountControlled}) {
    net::QueryRequestWire request = WireQuery("iip", kind);
    request.k = 5;
    request.threshold = 0.5;
    request.max_objects = 5;
    auto got = client.Query(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = single_client.Query(request);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->ranked.size(), want->ranked.size());
    for (size_t i = 0; i < got->ranked.size(); ++i) {
      EXPECT_EQ(got->ranked[i].object_id, want->ranked[i].object_id);
      EXPECT_EQ(got->ranked[i].name, want->ranked[i].name);
      EXPECT_EQ(got->ranked[i].prob, want->ranked[i].prob);
    }
    EXPECT_EQ(got->count_threshold, want->count_threshold);
  }

  // Both shards actually hold the dataset (replication 0 = everywhere), so
  // either can be the routing target.
  net::ArspClient direct_a = Connect(*shard_a);
  auto stats_a = direct_a.Stats("iip");
  ASSERT_TRUE(stats_a.ok()) << stats_a.status().ToString();
  net::ArspClient direct_b = Connect(*shard_b);
  auto stats_b = direct_b.Stats("iip");
  ASSERT_TRUE(stats_b.ok()) << stats_b.status().ToString();

  for (auto* server : {coordinator.get(), single.get(), shard_a.get(),
                       shard_b.get()}) {
    server->Shutdown();
    server->Wait();
  }
}

// Depth-first search for spans named `name`; appends matches to `out`.
void FindSpans(const obs::Span& span, const std::string& name,
               std::vector<const obs::Span*>* out) {
  if (span.name == name) out->push_back(&span);
  for (const obs::Span& child : span.children) FindSpans(child, name, out);
}

bool HasAnnotation(const obs::Span& span, const std::string& key,
                   const std::string& value) {
  for (const auto& [k, v] : span.annotations) {
    if (k == key && v == value) return true;
  }
  return false;
}

TEST(ClusterServer, CoordinatorStitchesShardTracesIntoOneTree) {
  auto shard_a = StartServer({});
  auto shard_b = StartServer({});
  std::vector<std::shared_ptr<net::ServiceBackend>> shards = {
      std::make_shared<RemoteShard>("127.0.0.1", shard_a->port()),
      std::make_shared<RemoteShard>("127.0.0.1", shard_b->port()),
  };
  net::ServerOptions coordinator_options;
  coordinator_options.backend = std::make_shared<Coordinator>(
      shards, std::vector<std::string>{"a", "b"}, CoordinatorOptions{});
  auto coordinator = StartServer(std::move(coordinator_options));

  net::ArspClient client = Connect(*coordinator);
  LoadIip(client, "iip");

  // An untraced query stays untraced: no id, no spans leak back.
  auto untraced = client.Query(WireQuery("iip"));
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
  EXPECT_EQ(untraced->trace_id, 0u);
  EXPECT_TRUE(untraced->trace_spans.empty());

  // A traced query returns the coordinator's tree with one forward span
  // holding the chosen shard's adopted engine_query subtree, labeled with
  // its shard index. A fresh constraint spec keeps the shard result caches
  // cold so the subtree records a real solve span, not just the cache probe.
  net::QueryRequestWire traced = WireQuery("iip");
  traced.constraint_spec = "wr:0.4,2.5";
  traced.want_trace = true;
  auto response = client.Query(traced);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->trace_id, 0u);
  std::vector<obs::Span> spans;
  ASSERT_TRUE(obs::DeserializeSpans(response->trace_spans, &spans));
  ASSERT_EQ(spans.size(), 1u);
  const obs::Span& root = spans[0];
  EXPECT_EQ(root.name, "coordinator_query");

  std::vector<const obs::Span*> forward;
  FindSpans(root, "forward", &forward);
  ASSERT_EQ(forward.size(), 1u);
  ASSERT_EQ(forward[0]->children.size(), 1u);
  const obs::Span& shard_query = forward[0]->children[0];
  EXPECT_EQ(shard_query.name, "engine_query");
  // The trace reached exactly one shard: the tree holds one engine_query.
  std::vector<const obs::Span*> all_shard_queries;
  FindSpans(root, "engine_query", &all_shard_queries);
  EXPECT_EQ(all_shard_queries.size(), 1u);
  const int chosen = HasAnnotation(shard_query, "shard", "0") ? 0 : 1;
  EXPECT_TRUE(HasAnnotation(shard_query, "shard", std::to_string(chosen)));
  EXPECT_TRUE(HasAnnotation(*forward[0], "shard", std::to_string(chosen)));
  // The shard subtree carries its daemon's solve span — the cross-process
  // timeline the --trace flag renders.
  std::vector<const obs::Span*> solves;
  FindSpans(shard_query, "solve", &solves);
  EXPECT_EQ(solves.size(), 1u);
  EXPECT_GE(shard_query.end_ns, shard_query.start_ns);

  // The rendered stitched tree is printable end to end.
  const std::string text = obs::RenderSpanTree(root, response->trace_id);
  EXPECT_NE(text.find("forward"), std::string::npos);
  EXPECT_NE(text.find("shard=" + std::to_string(chosen)), std::string::npos);

  for (auto* server :
       {coordinator.get(), shard_a.get(), shard_b.get()}) {
    server->Shutdown();
    server->Wait();
  }
}

TEST(ClusterServer, OverloadRepliesTypedRetryLater) {
  // One query's worth of budget: the second QUERY on the same connection is
  // denied with the typed RETRY_LATER reply, which the client surfaces as
  // kUnavailable carrying the backoff hint — NOT a generic error, NOT a
  // closed connection.
  AdmissionOptions admission;
  admission.client_qps = 0.001;  // ~17 minutes per token: no refill in-test
  admission.client_burst = 1.0;
  net::ServerOptions options;
  options.query_gate = std::make_shared<AdmissionController>(admission);
  auto server = StartServer(std::move(options));

  net::ArspClient client = Connect(*server);
  LoadIip(client, "iip");  // LOAD is not admission-gated
  ASSERT_TRUE(client.Query(WireQuery("iip")).ok());  // spends the burst

  auto denied = client.Query(WireQuery("iip"));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(denied.status().message().find("retry after"),
            std::string::npos)
      << denied.status().ToString();

  // The connection survives a denial; non-QUERY traffic is never gated.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Stats().ok());

  // A second connection is a distinct admission client with its own burst.
  net::ArspClient other = Connect(*server);
  EXPECT_TRUE(other.Query(WireQuery("iip")).ok());

  server->Shutdown();
  server->Wait();
}

TEST(ClusterServer, DeniedQueriesDoNotLeakPendingBudget) {
  // A rate denial must not consume a pending slot (Release is only paired
  // with successful Admit): after many denials the pending gauge is zero
  // and admitted counts only the successes.
  AdmissionOptions admission;
  admission.client_qps = 0.001;
  admission.client_burst = 1.0;
  admission.max_pending = 4;
  auto gate = std::make_shared<AdmissionController>(admission);
  net::ServerOptions options;
  options.query_gate = gate;
  auto server = StartServer(std::move(options));

  net::ArspClient client = Connect(*server);
  LoadIip(client, "iip");
  ASSERT_TRUE(client.Query(WireQuery("iip")).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.Query(WireQuery("iip")).status().code(),
              StatusCode::kUnavailable);
  }
  EXPECT_EQ(gate->pending(), 0);
  EXPECT_EQ(gate->admitted(), 1);
  EXPECT_EQ(gate->denied(), 5);

  server->Shutdown();
  server->Wait();
}

// A shard that answers every query after 20 ms and reports empty STATS, so
// any latency a coordinator's STATS shows is the coordinator's own.
class SlowShard : public net::ServiceBackend {
 public:
  StatusOr<net::LoadDatasetResponse> Load(
      const net::LoadDatasetRequest& request) override {
    net::LoadDatasetResponse response;
    response.name = request.name;
    return response;
  }
  StatusOr<net::AddViewResponse> AddView(
      const net::AddViewRequest& request) override {
    net::AddViewResponse response;
    response.name = request.view_name;
    return response;
  }
  StatusOr<net::QueryResponseWire> Query(
      const net::QueryRequestWire&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return net::QueryResponseWire{};
  }
  StatusOr<net::StatsResponse> Stats(const net::StatsRequest&) override {
    return net::StatsResponse{};
  }
  Status Drop(const net::DropRequest&) override { return Status::OK(); }
};

// A front server over a Coordinator with one SlowShard.
std::unique_ptr<net::ArspServer> StartSlowCoordinator() {
  net::ServerOptions options;
  options.backend = std::make_shared<Coordinator>(
      std::vector<std::shared_ptr<net::ServiceBackend>>{
          std::make_shared<SlowShard>()},
      std::vector<std::string>{"slow"}, CoordinatorOptions{});
  return StartServer(std::move(options));
}

TEST(ClusterServer, CoordinatorStatsReportItsOwnWallTime) {
  auto server = StartSlowCoordinator();
  net::ArspClient client = Connect(*server);
  LoadIip(client, "iip");

  // The latency histogram is process-global (other servers in this binary
  // observe into it too), so compare deltas around the five queries. A
  // failed query is not a sample.
  auto before = client.Stats();
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  constexpr int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(client.Query(WireQuery("iip")).ok());
  }
  EXPECT_EQ(client.Query(WireQuery("nope")).status().code(),
            StatusCode::kNotFound);
  auto after = client.Stats();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->latency_count - before->latency_count, kQueries);
  const double total_before =
      static_cast<double>(before->latency_count) * before->latency_mean_ms;
  const double total_after =
      static_cast<double>(after->latency_count) * after->latency_mean_ms;
  EXPECT_GE(total_after - total_before, 99.0);

  server->Shutdown();
  server->Wait();
}

TEST(ClusterServer, CoordinatorFrontCountsTheQueriesItRejects) {
  // The coordinator rejects a name it never registered before any shard
  // sees the query; the front server counts it all the same.
  auto server = StartSlowCoordinator();
  net::ArspClient client = Connect(*server);
  const uint64_t before = testing_util::ErrorQueries();
  EXPECT_EQ(client.Query(WireQuery("never-loaded")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(testing_util::ErrorQueries(), before + 1);

  server->Shutdown();
  server->Wait();
}

TEST(ClusterServer, CoordinatorStatsReportItsOwnPeakRss) {
  // The shard reports empty STATS, so the peak is the coordinator's own.
  auto server = StartSlowCoordinator();
  net::ArspClient client = Connect(*server);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->peak_rss_bytes, 0);

  server->Shutdown();
  server->Wait();
}

TEST(ClusterServer, ShutdownLatencyIsBoundedByThePollTick) {
  // The nonblocking-accept regression: Shutdown() + Wait() of an idle
  // server must complete within a few poll ticks (100ms each), never hang
  // waiting for a next connection. Generous bound for loaded CI machines.
  auto server = StartServer({});
  // An accepted-and-closed connection exercises the accept path first.
  { net::ArspClient client = Connect(*server); }

  const auto begin = std::chrono::steady_clock::now();
  server->Shutdown();
  server->Wait();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_LT(elapsed_ms, 2000.0);
}

}  // namespace
}  // namespace arsp
