// Copyright 2026 The ARSP Authors.
//
// End-to-end loopback tests for the arspd service stack: one in-process
// ArspServer on an ephemeral port, real sockets, real ArspClients. The
// acceptance bar (ISSUE 5): a daemon-held dataset serves full, top-k
// (pushdown), and view-scoped queries from multiple concurrent client
// connections; answers are bit-identical to an in-process ArspEngine fed
// the same data; a repeated query is a cache hit; and the index-work
// counters prove the dataset was indexed exactly once across all
// connections. Also covered: the daemon surviving malformed loads (crafted
// snapshots included), name fingerprinting, drop cascades, clean shutdown,
// and the slow-query log.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/queries.h"
#include "src/index/kdtree.h"
#include "src/io/snapshot.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/simd/kernels.h"
#include "src/uncertain/generators.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

// Deterministic generator spec: the wire side loads it by spec, the
// in-process reference generates the identical dataset from the same seed.
constexpr char kIipSpec[] = "iip:n=200,seed=3";
constexpr char kWr[] = "wr:0.5,2.0";

class NetLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::ServerOptions options;
    options.port = 0;  // ephemeral
    options.max_connections = 4;
    server_ = std::make_unique<net::ArspServer>(options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    server_->Shutdown();
    server_->Wait();
  }

  net::ArspClient Connect() {
    auto client = net::ArspClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  // Registers the IIP dataset on the daemon under `name`.
  void LoadIip(net::ArspClient& client, const std::string& name) {
    net::LoadDatasetRequest load;
    load.name = name;
    load.source = net::LoadSource::kGenerator;
    load.payload = kIipSpec;
    auto response = client.LoadDataset(load);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->num_objects, 200);
  }

  // The in-process reference: same generated bytes, same engine code path.
  DatasetHandle AddReferenceIip() {
    auto dataset = GenerateFromSpec(kIipSpec);
    EXPECT_TRUE(dataset.ok());
    return reference_.AddDataset(std::move(*dataset));
  }

  StatusOr<QueryResponse> ReferenceSolve(DatasetHandle handle,
                                         const std::string& solver,
                                         DerivedKind kind, int k = 10,
                                         double threshold = 0.5) {
    QueryRequest request;
    request.dataset = handle;
    auto constraints =
        ParseConstraintSpec(kWr, reference_.view(handle).dim());
    EXPECT_TRUE(constraints.ok());
    request.constraints = std::move(*constraints);
    request.solver = solver;
    request.derived.kind = kind;
    request.derived.k = k;
    request.derived.threshold = threshold;
    return reference_.Solve(request);
  }

  std::unique_ptr<net::ArspServer> server_;
  ArspEngine reference_;
};

net::QueryRequestWire WireQuery(const std::string& dataset,
                                const std::string& solver,
                                DerivedKind kind = DerivedKind::kNone) {
  net::QueryRequestWire request;
  request.dataset = dataset;
  request.constraint_spec = kWr;
  request.solver = solver;
  request.derived_kind = kind;
  return request;
}

// Wire ranked answers must equal the engine's (object ids, probabilities
// bit-exact, same order).
void ExpectRankedEqual(const std::vector<net::RankedEntry>& wire,
                       const std::vector<std::pair<int, double>>& local) {
  ASSERT_EQ(wire.size(), local.size());
  for (size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(wire[i].object_id, local[i].first) << "rank " << i;
    EXPECT_EQ(wire[i].prob, local[i].second) << "rank " << i;
  }
}

TEST_F(NetLoopbackTest, PingPong) {
  net::ArspClient client = Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetLoopbackTest, FullQueryBitIdenticalToInProcessEngine) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");

  net::QueryRequestWire request = WireQuery("iip", "kdtt+");
  request.include_instances = true;
  auto wire = client.Query(request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_TRUE(wire->complete);
  EXPECT_FALSE(wire->cache_hit);
  EXPECT_EQ(wire->solver, "kdtt+");

  const DatasetHandle handle = AddReferenceIip();
  auto local = ReferenceSolve(handle, "kdtt+", DerivedKind::kNone);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  // Bit-identical: the full instance-probability vector, element for
  // element (EXPECT_EQ on doubles is exact equality).
  EXPECT_EQ(wire->instance_probs, local.value().result->instance_probs);
  EXPECT_EQ(wire->result_size, CountNonZero(*local.value().result));
}

TEST_F(NetLoopbackTest, TopKIsPostHocAndMatchesInProcessAnswer) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");

  net::QueryRequestWire request =
      WireQuery("iip", "kdtt+", DerivedKind::kTopKObjects);
  request.k = 5;
  auto wire = client.Query(request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  // Top-k never pushes down, even into kdtt+: it is sliced from a complete
  // result.
  EXPECT_FALSE(wire->pushdown);
  EXPECT_TRUE(wire->complete);

  const DatasetHandle handle = AddReferenceIip();
  auto local =
      ReferenceSolve(handle, "kdtt+", DerivedKind::kTopKObjects, /*k=*/5);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value().pushdown, wire->pushdown);
  ExpectRankedEqual(wire->ranked, local.value().ranked);
}

TEST_F(NetLoopbackTest, ThresholdQueryMatchesInProcessAnswer) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");

  net::QueryRequestWire request =
      WireQuery("iip", "kdtt+", DerivedKind::kObjectsAboveThreshold);
  request.threshold = 0.5;
  auto wire = client.Query(request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  const DatasetHandle handle = AddReferenceIip();
  auto local = ReferenceSolve(handle, "kdtt+",
                              DerivedKind::kObjectsAboveThreshold,
                              /*k=*/10, /*threshold=*/0.5);
  ASSERT_TRUE(local.ok());
  ExpectRankedEqual(wire->ranked, local.value().ranked);
}

TEST_F(NetLoopbackTest, ViewScopedQueryMatchesInProcessAnswer) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");

  net::AddViewRequest add;
  add.base_name = "iip";
  add.view_name = "iip#120";
  add.num_objects = 120;
  auto view = client.AddView(add);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->num_objects, 120);

  // Idempotent re-registration of the identical window.
  auto again = client.AddView(add);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->num_objects, 120);
  // Same name, different window: refused.
  add.num_objects = 60;
  EXPECT_FALSE(client.AddView(add).ok());

  net::QueryRequestWire request = WireQuery("iip#120", "kdtt+");
  request.include_instances = true;
  auto wire = client.Query(request);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  const DatasetHandle base = AddReferenceIip();
  auto local_view = reference_.AddView(base, 120);
  ASSERT_TRUE(local_view.ok());
  auto local = ReferenceSolve(*local_view, "kdtt+", DerivedKind::kNone);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(wire->instance_probs, local.value().result->instance_probs);

  // Ranked answers on views carry *base* object ids.
  net::QueryRequestWire topk =
      WireQuery("iip#120", "kdtt+", DerivedKind::kTopKObjects);
  topk.k = 3;
  auto wire_topk = client.Query(topk);
  ASSERT_TRUE(wire_topk.ok());
  auto local_topk =
      ReferenceSolve(*local_view, "kdtt+", DerivedKind::kTopKObjects, 3);
  ASSERT_TRUE(local_topk.ok());
  ExpectRankedEqual(wire_topk->ranked, local_topk.value().ranked);
}

TEST_F(NetLoopbackTest, RepeatQueryIsACacheHitAcrossConnections) {
  net::ArspClient first = Connect();
  LoadIip(first, "iip");
  auto miss = first.Query(WireQuery("iip", "kdtt+"));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);

  // Same connection: hit.
  auto hit = first.Query(WireQuery("iip", "kdtt+"));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->result_size, miss->result_size);

  // A *different* connection re-loading the same content reuses the name
  // binding and hits the same cache entry — the daemon's whole point.
  net::ArspClient second = Connect();
  net::LoadDatasetRequest reload;
  reload.name = "iip";
  reload.source = net::LoadSource::kGenerator;
  reload.payload = kIipSpec;
  auto reloaded = second.LoadDataset(reload);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->reused);
  auto cross = second.Query(WireQuery("iip", "kdtt+"));
  ASSERT_TRUE(cross.ok());
  EXPECT_TRUE(cross->cache_hit);
}

TEST_F(NetLoopbackTest, DatasetIndexedOnceAcrossConcurrentConnections) {
  {
    net::ArspClient loader = Connect();
    LoadIip(loader, "iip");
  }

  // Reference answer for the bit-identity check below ("dual" exercises
  // the context's instance kd-tree, the counter this test pins down).
  const DatasetHandle handle = AddReferenceIip();
  auto expected = ReferenceSolve(handle, "dual", DerivedKind::kNone);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::vector<double>& expected_probs =
      expected.value().result->instance_probs;

  // Six connections in two waves of three concurrent ones: fresh solves
  // first, which race on one pooled context and keep it pooled, then cached
  // ones, which find it there. A cached miss that pooled its own context
  // would release it once its result is cached, so running the cached wave
  // first would let a later fresh solve build again. Every connection must
  // see the bit-identical full answer.
  constexpr int kClients = 6;
  constexpr int kWave = 3;
  std::vector<std::string> failures(kClients);
  std::vector<std::vector<double>> answers(kClients);
  for (int wave = 0; wave < kClients / kWave; ++wave) {
    std::vector<std::thread> threads;
    for (int t = wave * kWave; t < (wave + 1) * kWave; ++t) {
      threads.emplace_back([this, t, wave, &failures, &answers] {
        auto client = net::ArspClient::Connect("127.0.0.1", server_->port());
        if (!client.ok()) {
          failures[t] = client.status().ToString();
          return;
        }
        net::QueryRequestWire request = WireQuery("iip", "dual");
        request.include_instances = true;
        request.use_cache = wave == 1;
        auto response = client->Query(request);
        if (!response.ok()) {
          failures[t] = response.status().ToString();
          return;
        }
        answers[t] = std::move(response->instance_probs);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "client " << t << ": " << failures[t];
    EXPECT_EQ(answers[t], expected_probs) << "client " << t;
  }

  // The counters prove the service amortized: one kd-tree build served
  // every connection (pooled context, mutex-guarded lazy init).
  net::ArspClient client = Connect();
  auto stats = client.Stats("iip");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->has_index_stats);
  EXPECT_EQ(stats->index_work.kdtree_builds, 1);
  EXPECT_EQ(stats->pooled_contexts, 1u);  // the fresh wave's context
  EXPECT_GT(stats->latency_count, 0);
  EXPECT_GE(stats->latency_p95_ms, stats->latency_p50_ms);
  // The daemon reports its own simd dispatch arch (loopback: same process).
  EXPECT_EQ(stats->kernel_arch, simd::ActiveArchName());
}

TEST_F(NetLoopbackTest, ViewSweepReusesTheBaseIndexAcrossConnections) {
  {
    net::ArspClient loader = Connect();
    LoadIip(loader, "iip");
  }
  // An m% sweep driven over the wire, one connection per step (the CLI's
  // --connect --subset shape): every step solves over the base's pooled
  // artifacts instead of rebuilding.
  for (int count : {40, 80, 120, 160, 200}) {
    net::ArspClient client = Connect();
    net::AddViewRequest add;
    add.base_name = "iip";
    add.view_name = "iip#prefix:" + std::to_string(count);
    add.num_objects = count;
    ASSERT_TRUE(client.AddView(add).ok());
    auto response = client.Query(WireQuery(add.view_name, "dual"));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  // Prime the base context too, then check the aggregate.
  net::ArspClient client = Connect();
  ASSERT_TRUE(client.Query(WireQuery("iip", "dual")).ok());
  auto stats = client.Stats("iip");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->has_index_stats);
  EXPECT_EQ(stats->index_work.kdtree_builds, 1);  // ONE for base + views
}

TEST_F(NetLoopbackTest, MalformedLoadDoesNotKillTheDaemon) {
  net::ArspClient client = Connect();

  net::LoadDatasetRequest bad;
  bad.name = "bad";
  bad.source = net::LoadSource::kCsvText;
  bad.payload = "a,not-a-number,1.0\n";
  auto failed = client.LoadDataset(bad);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);

  // NaN-poisoned and over-mass files likewise fail cleanly.
  bad.payload = "a,nan,1.0\n";
  EXPECT_FALSE(client.LoadDataset(bad).ok());
  bad.payload = "a,0.8,1.0\na,0.8,2.0\n";
  EXPECT_FALSE(client.LoadDataset(bad).ok());

  // The connection — and the daemon — survive: the next requests work.
  EXPECT_TRUE(client.Ping().ok());
  net::LoadDatasetRequest good;
  good.name = "good";
  good.source = net::LoadSource::kCsvText;
  good.payload = "a,0.9,1,8\nb,0.8,3,4\nc,0.7,5,2\n";
  auto loaded = client.LoadDataset(good);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_objects, 3);
  auto response = client.Query(WireQuery("good", "auto"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->result_size, 3);
}

TEST_F(NetLoopbackTest, CraftedSnapshotLoadDoesNotKillTheDaemon) {
  // Snapshots with a bad kd child index or instance object id, every
  // checksum re-sealed: each LOAD is an InvalidArgument reply, and the
  // same daemon then serves a good query.
  auto dataset = GenerateFromSpec(kIipSpec);
  ASSERT_TRUE(dataset.ok());
  const std::string path = ::testing::TempDir() + "/arsp_net_crafted.arsp";
  ASSERT_TRUE(snapshot::WriteSnapshot(*dataset, path).ok());
  const testing_util::SnapshotImage pristine(path);

  net::ArspClient client = Connect();
  net::LoadDatasetRequest load;
  load.name = "crafted";
  load.source = net::LoadSource::kCsvFile;
  load.payload = ::testing::TempDir() + "/arsp_net_crafted_bad.arsp";
  for (const bool kd_child : {true, false}) {
    SCOPED_TRACE(kd_child ? "kd child index" : "instance object id");
    testing_util::SnapshotImage image = pristine;
    if (kd_child) {
      KdNode root = image.Get<KdNode>(snapshot::kKdNodes, 0);
      root.right = 1 << 30;
      image.Set(snapshot::kKdNodes, 0, root);
    } else {
      image.Set<int32_t>(snapshot::kInstanceObjects, 0, 100000000);
    }
    image.Seal();
    image.Write(load.payload);
    auto failed = client.LoadDataset(load);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument)
        << failed.status().ToString();
  }

  LoadIip(client, "iip");
  const DatasetHandle handle = AddReferenceIip();
  auto response =
      client.Query(WireQuery("iip", "kdtt+", DerivedKind::kTopKObjects));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto local = ReferenceSolve(handle, "kdtt+", DerivedKind::kTopKObjects);
  ASSERT_TRUE(local.ok());
  ExpectRankedEqual(response->ranked, local->ranked);
}

TEST_F(NetLoopbackTest, NameBindingsAreContentFingerprinted) {
  net::ArspClient client = Connect();
  net::LoadDatasetRequest load;
  load.name = "data";
  load.source = net::LoadSource::kCsvText;
  load.payload = "a,0.9,1,8\nb,0.8,3,4\n";
  auto first = client.LoadDataset(load);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->reused);

  // Identical content: idempotent reuse.
  auto second = client.LoadDataset(load);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->reused);

  // The same bytes through the server-path source: still a reuse — the
  // fingerprint covers content, not the delivery mechanism.
  const std::string path = ::testing::TempDir() + "/arsp_net_fingerprint.csv";
  {
    std::ofstream file(path);
    file << "a,0.9,1,8\nb,0.8,3,4\n";
  }
  net::LoadDatasetRequest from_file;
  from_file.name = "data";
  from_file.source = net::LoadSource::kCsvFile;
  from_file.payload = path;
  auto via_file = client.LoadDataset(from_file);
  ASSERT_TRUE(via_file.ok()) << via_file.status().ToString();
  EXPECT_TRUE(via_file->reused);

  // Different content under the same name: refused, binding unchanged.
  load.payload = "a,0.9,1,8\nb,0.8,3,4\nc,0.7,5,2\n";
  auto conflict = client.LoadDataset(load);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kInvalidArgument);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->datasets.size(), 1u);
  EXPECT_EQ(stats->datasets[0].num_objects, 2);
}

TEST_F(NetLoopbackTest, DropCascadesFromBaseToViews) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");
  net::AddViewRequest add;
  add.base_name = "iip";
  add.view_name = "iip#50";
  add.num_objects = 50;
  ASSERT_TRUE(client.AddView(add).ok());

  ASSERT_TRUE(client.Drop("iip").ok());
  // Both names are gone, base and view alike.
  auto base_query = client.Query(WireQuery("iip", "kdtt+"));
  EXPECT_EQ(base_query.status().code(), StatusCode::kNotFound);
  auto view_query = client.Query(WireQuery("iip#50", "kdtt+"));
  EXPECT_EQ(view_query.status().code(), StatusCode::kNotFound);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->datasets.empty());
  // Dropping again: clean NotFound.
  EXPECT_EQ(client.Drop("iip").code(), StatusCode::kNotFound);
}

TEST_F(NetLoopbackTest, BadRequestsAreCleanErrorsAndTheConnectionSurvives) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");

  // Every rejected query is served, so each one adds one to the error
  // series, whichever layer rejects it.
  uint64_t errors = testing_util::ErrorQueries();
  const auto expect_counted = [&errors]() {
    EXPECT_EQ(testing_util::ErrorQueries(), errors + 1);
    errors = testing_util::ErrorQueries();
  };
  // Unknown dataset.
  auto unknown = client.Query(WireQuery("nope", "kdtt+"));
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  expect_counted();
  // Malformed constraint spec.
  net::QueryRequestWire bad_spec = WireQuery("iip", "kdtt+");
  bad_spec.constraint_spec = "wr:banana";
  EXPECT_EQ(client.Query(bad_spec).status().code(),
            StatusCode::kInvalidArgument);
  expect_counted();
  // Solver option that is not key=value.
  net::QueryRequestWire bad_opt = WireQuery("iip", "kdtt+");
  bad_opt.options = {"fanout"};
  EXPECT_EQ(client.Query(bad_opt).status().code(),
            StatusCode::kInvalidArgument);
  expect_counted();
  // Negative parallelism.
  net::QueryRequestWire negative = WireQuery("iip", "kdtt+");
  negative.parallelism = -1;
  EXPECT_EQ(client.Query(negative).status().code(),
            StatusCode::kInvalidArgument);
  expect_counted();
  // Unknown solver.
  auto bad_solver = client.Query(WireQuery("iip", "no-such-solver"));
  EXPECT_FALSE(bad_solver.ok());
  expect_counted();
  // Capability mismatch surfaces as FailedPrecondition, same as locally
  // (dual-2d-ms needs single-instance 2d data under weight ratios — IIP is
  // single-instance 2d, so use a rank constraint to break it).
  net::QueryRequestWire incompatible = WireQuery("iip", "dual-2d-ms");
  incompatible.constraint_spec = "rank:1";
  EXPECT_EQ(client.Query(incompatible).status().code(),
            StatusCode::kFailedPrecondition);
  expect_counted();
  // Unknown stats name.
  EXPECT_EQ(client.Stats("nope").status().code(), StatusCode::kNotFound);
  // A view object count outside the base's [0, objects] is refused and
  // registers nothing.
  for (const int32_t num_objects : {-1, 1 << 30}) {
    net::AddViewRequest bad_view;
    bad_view.base_name = "iip";
    bad_view.view_name = "iip#bad";
    bad_view.num_objects = num_objects;
    auto refused = client.AddView(bad_view);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find(
                  "view object count " + std::to_string(num_objects) +
                  " out of range"),
              std::string::npos)
        << refused.status().ToString();
    EXPECT_EQ(client.Query(WireQuery("iip#bad", "kdtt+")).status().code(),
              StatusCode::kNotFound);
    expect_counted();
  }

  // After all that, the same connection still serves real queries.
  auto response = client.Query(WireQuery("iip", "kdtt+"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->complete);
}

TEST_F(NetLoopbackTest, UnknownSolverNamesShareOneMetricSeries) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");
  // Label cardinality is a contract: a client's typo must not mint a
  // metric series that lives as long as the process.
  for (int i = 0; i < 5; ++i) {
    auto response =
        client.Query(WireQuery("iip", "bogus-" + std::to_string(i)));
    EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
  }
  // The server shares this process's registry: these are the bytes the
  // daemon's /metrics endpoint serves.
  const std::string text =
      obs::MetricsRegistry::Global().RenderPrometheusText();
  EXPECT_EQ(text.find("bogus-"), std::string::npos);
  EXPECT_NE(text.find("solver=\"unknown\""), std::string::npos);

  // `auto` is no registry name, yet a failed `auto` query, in any case,
  // keeps its own label instead of joining `unknown`.
  const uint64_t before = testing_util::ErrorQueries("auto");
  EXPECT_EQ(client.Query(WireQuery("nope", "AUTO")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(testing_util::ErrorQueries("auto"), before + 1);
}

TEST_F(NetLoopbackTest, InfiniteRatioBoundIsAnErrorReply) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");

  // An infinite upper bound, written out or overflowed by strtod, is
  // refused before a solver sees it (KDTT+ crashes on one).
  for (const char* spec : {"wr:1,inf", "wr:inf,inf", "wr:1e308,1e309"}) {
    net::QueryRequestWire request = WireQuery("iip", "kdtt+");
    request.constraint_spec = spec;
    EXPECT_EQ(client.Query(request).status().code(),
              StatusCode::kInvalidArgument)
        << spec;
    // The daemon still answers on the same connection.
    EXPECT_TRUE(client.Ping().ok()) << spec;
  }
}

TEST_F(NetLoopbackTest, QdttBeyondItsVertexLimitIsAnErrorReply) {
  net::ArspClient client = Connect();
  net::LoadDatasetRequest load;
  load.name = "wide";
  load.source = net::LoadSource::kCsvText;
  load.payload =
      "a,0.9,1,8,2,7,3,6,4,5\n"
      "b,0.8,3,4,5,6,7,8,1,2\n"
      "c,0.7,5,2,8,1,6,3,7,4\n";
  ASSERT_TRUE(client.LoadDataset(load).ok());

  // Seven ratio ranges in d = 8: a 128-vertex region, past the 63 mapped
  // dimensions a quadrant code holds.
  net::QueryRequestWire request = WireQuery("wide", "qdtt+");
  request.constraint_spec =
      "wr:0.5,2,0.5,2,0.5,2,0.5,2,0.5,2,0.5,2,0.5,2";
  EXPECT_EQ(client.Query(request).status().code(),
            StatusCode::kFailedPrecondition);

  // The daemon is still up: the same connection and a fresh one answer.
  EXPECT_TRUE(client.Ping().ok());
  net::ArspClient fresh = Connect();
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST_F(NetLoopbackTest, OutOfRangeSolverOptionIsAnErrorReply) {
  net::ArspClient client = Connect();
  LoadIip(client, "iip");

  // Wire options reach the solvers' Configure unchanged. Each of these once
  // aborted the daemon, or silently ran with a wrapped value.
  const std::pair<const char*, const char*> cases[] = {
      {"bnb", "rtree_fanout=3"},          {"bnb", "rtree_fanout=1025"},
      {"bnb", "rtree_fanout=2147483648"}, {"mwtt", "fanout=2147483648"},
      {"enum", "max_worlds=nan"},         {"kdtt+", "parallelism=4294967298"},
  };
  for (const auto& [solver, option] : cases) {
    net::QueryRequestWire request = WireQuery("iip", solver);
    request.options = {option};
    EXPECT_EQ(client.Query(request).status().code(),
              StatusCode::kInvalidArgument)
        << solver << " " << option;
  }

  // The daemon is still up, and the same connection serves a valid query.
  auto response = client.Query(WireQuery("iip", "bnb"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->complete);
}

TEST_F(NetLoopbackTest, SolverOptionFloodIsAnErrorReply) {
  // A raw connection: ArspClient would first build the 4,194,304 strings
  // (128 MiB) that the daemon must not.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(net::SendFrame(fd, net::MessageType::kQuery,
                             testing_util::QueryWithEmptyOptions(4194304))
                  .ok());
  auto reply = net::RecvFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::MessageType::kError);
  net::ErrorResponse error;
  ASSERT_TRUE(error.DecodePayload(reply->payload).ok());
  EXPECT_EQ(error.code, StatusCode::kInvalidArgument) << error.message;
  EXPECT_NE(error.message.find("more than 64 solver options"),
            std::string::npos)
      << error.message;

  // The daemon still answers on the same connection.
  ASSERT_TRUE(net::SendFrame(fd, net::MessageType::kPing, "").ok());
  auto pong = net::RecvFrame(fd);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->type, net::MessageType::kOk);
  ::close(fd);
}

TEST_F(NetLoopbackTest, ShutdownMessageDrainsTheServer) {
  net::ArspClient client = Connect();
  ASSERT_TRUE(client.Shutdown().ok());
  server_->Wait();
  EXPECT_TRUE(server_->shutdown_requested());
  // New connections are refused once the listener is down (the accept loop
  // exits on the next poll tick; Wait above already joined it).
  auto late = net::ArspClient::Connect("127.0.0.1", server_->port());
  if (late.ok()) {
    // The OS may still complete a connect against a closed listener's
    // backlog remnants; any request must then fail.
    EXPECT_FALSE(late->Ping().ok());
  }
}

TEST(SlowQueryLog, LogsTheForcedTraceButShipsNoSpans) {
  // At a 0 ms threshold every QUERY is slow: the server traces it although
  // the client did not ask, logs one line with the root span's phases, and
  // answers the untraced client without the forced spans.
  net::ServerOptions options;
  options.slow_query_ms = 0;
  net::ArspServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto client = net::ArspClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  net::LoadDatasetRequest load;
  load.name = "iip";
  load.source = net::LoadSource::kGenerator;
  load.payload = kIipSpec;
  ASSERT_TRUE(client->LoadDataset(load).ok());

  testing::internal::CaptureStderr();
  auto response = client->Query(WireQuery("iip", "kdtt+"));
  const std::string log = testing::internal::GetCapturedStderr();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->trace_id, 0u);
  EXPECT_TRUE(response->trace_spans.empty());
  size_t lines = 0;
  for (size_t at = log.find("[arspd] slow query"); at != std::string::npos;
       at = log.find("[arspd] slow query", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 1u) << log;
  EXPECT_NE(log.find(" cache_probe="), std::string::npos) << log;
  EXPECT_NE(log.find(" solve="), std::string::npos) << log;
  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace arsp
