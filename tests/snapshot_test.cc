// Copyright 2026 The ARSP Authors.
//
// Snapshot format tests: a written-then-mmap-loaded dataset must be
// byte-identical to the in-memory original (columns, names, fingerprint),
// every registered solver must produce bit-identical probabilities over
// both — with and without goals, for both constraint families — and every
// class of malformed file (truncation, corruption, wrong version, foreign
// endianness, re-sealed files with broken index shapes or ids) must be
// rejected with a clean error, never a crash.

#include "src/io/snapshot.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/queries.h"
#include "src/core/solver.h"
#include "src/index/kdtree.h"
#include "src/index/rtree.h"
#include "src/prefs/score_mapper.h"
#include "tests/test_util.h"

namespace arsp {
namespace {

using snapshot::LoadSnapshot;
using snapshot::SnapshotLoadOptions;
using snapshot::SnapshotWriteOptions;
using snapshot::WriteSnapshot;
using testing_util::RandomDataset;
using testing_util::RandomWr;
using testing_util::SnapshotImage;
using testing_util::WrRegion;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void ExpectColumnsEqual(const Column<T>& got, const Column<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.bytes()), 0);
}

TEST(SnapshotRoundTrip, ColumnsNamesAndBoundsAreBitIdentical) {
  const UncertainDataset dataset = RandomDataset(20, 4, 3, 0.3, 501);
  std::vector<std::string> names;
  for (int j = 0; j < dataset.num_objects(); ++j) {
    names.push_back("obj-" + std::to_string(j));
  }
  const std::string path = TempPath("roundtrip.arsp");
  SnapshotWriteOptions options;
  options.object_names = names;
  ASSERT_TRUE(WriteSnapshot(dataset, path, options).ok());

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const UncertainDataset& snap = *loaded->dataset;

  EXPECT_EQ(snap.dim(), dataset.dim());
  EXPECT_EQ(snap.num_objects(), dataset.num_objects());
  EXPECT_EQ(snap.num_instances(), dataset.num_instances());
  ExpectColumnsEqual(snap.coords_column(), dataset.coords_column());
  ExpectColumnsEqual(snap.probs_column(), dataset.probs_column());
  ExpectColumnsEqual(snap.instance_objects_column(),
                     dataset.instance_objects_column());
  ExpectColumnsEqual(snap.object_starts_column(),
                     dataset.object_starts_column());
  ExpectColumnsEqual(snap.object_probs_column(), dataset.object_probs_column());
  EXPECT_EQ(snap.bounds().min_corner(), dataset.bounds().min_corner());
  EXPECT_EQ(snap.bounds().max_corner(), dataset.bounds().max_corner());
  EXPECT_EQ(loaded->object_names, names);
  EXPECT_GT(loaded->bytes_mapped, 0u);

  // Zero-copy contract: every hot column is borrowed (pointing into the
  // mapping), and the prebuilt indexes arrived attached.
  EXPECT_TRUE(snap.coords_column().borrowed());
  EXPECT_TRUE(snap.probs_column().borrowed());
  ASSERT_NE(snap.attached_kdtree(), nullptr);
  ASSERT_NE(snap.attached_rtree(), nullptr);
  EXPECT_TRUE(snap.attached_kdtree()->nodes_column().borrowed());
  EXPECT_TRUE(snap.attached_rtree()->nodes_column().borrowed());
  EXPECT_EQ(snap.attached_kdtree()->size(), dataset.num_instances());
  EXPECT_EQ(snap.attached_rtree()->size(), dataset.num_instances());
  EXPECT_EQ(snap.attached_scores(), nullptr);  // none were written
}

TEST(SnapshotRoundTrip, AttachedIndexesMatchFreshBuildsBitExactly) {
  const UncertainDataset dataset = RandomDataset(25, 3, 2, 0.0, 502, true);
  const std::string path = TempPath("indexes.arsp");
  ASSERT_TRUE(WriteSnapshot(dataset, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());

  const DatasetView view(dataset);
  const KdTree fresh_kd = KdTree::FromView(view);
  const RTree fresh_rt = RTree::BulkLoadFromView(view);
  const KdTree& snap_kd = *loaded->dataset->attached_kdtree();
  const RTree& snap_rt = *loaded->dataset->attached_rtree();
  ExpectColumnsEqual(snap_kd.nodes_column(), fresh_kd.nodes_column());
  ExpectColumnsEqual(snap_kd.node_bounds_column(),
                     fresh_kd.node_bounds_column());
  ExpectColumnsEqual(snap_kd.item_coords_column(),
                     fresh_kd.item_coords_column());
  ExpectColumnsEqual(snap_kd.item_ids_column(), fresh_kd.item_ids_column());
  ExpectColumnsEqual(snap_rt.nodes_column(), fresh_rt.nodes_column());
  ExpectColumnsEqual(snap_rt.node_bounds_column(),
                     fresh_rt.node_bounds_column());
  ExpectColumnsEqual(snap_rt.node_kids_column(), fresh_rt.node_kids_column());
  ExpectColumnsEqual(snap_rt.entry_coords_column(),
                     fresh_rt.entry_coords_column());
  EXPECT_EQ(snap_rt.root_id(), fresh_rt.root_id());
}

// Every registered solver, both constraint families, full solves and goal
// solves: a snapshot-served dataset must be indistinguishable — bit for
// bit — from the in-memory build it was written from. A solver without
// kCapGoalPushdown ignores the goal, so its one solve per family answers
// every goal (ENUM's 746K possible worlds are the whole cost of this test).
TEST(SnapshotEquivalence, EverySolverAndGoalIsBitIdentical) {
  const UncertainDataset dataset = RandomDataset(18, 3, 3, 0.25, 503);
  const PreferenceRegion region = WrRegion(3, 2);
  const WeightRatioConstraints wr = RandomWr(3, 77);

  const std::string path = TempPath("solvers.arsp");
  SnapshotWriteOptions options;
  options.scores_region = &region;  // ship pre-mapped scores too
  ASSERT_TRUE(WriteSnapshot(dataset, path, options).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  const auto snap = loaded->dataset;

  const std::vector<QueryGoal> goals = {
      QueryGoal{}, QueryGoal::TopK(3), QueryGoal::Threshold(0.25),
      QueryGoal::CountControlled(4)};

  for (const std::string& name : SolverRegistry::Names()) {
    auto solver = SolverRegistry::Create(name);
    ASSERT_TRUE(solver.ok()) << name;
    const bool pushes_down =
        ((*solver)->capabilities() & kCapGoalPushdown) != 0;
    for (int family = 0; family < 2; ++family) {
      auto mem_context =
          family == 0 ? std::make_unique<ExecutionContext>(dataset, region)
                      : std::make_unique<ExecutionContext>(dataset, wr);
      auto snap_context =
          family == 0
              ? std::make_unique<ExecutionContext>(DatasetView(snap), region)
              : std::make_unique<ExecutionContext>(DatasetView(snap), wr);
      StatusOr<ArspResult> mem_result = Status::Internal("not solved");
      StatusOr<ArspResult> snap_result = Status::Internal("not solved");
      for (size_t g = 0; g < goals.size(); ++g) {
        const QueryGoal& goal = goals[g];
        SCOPED_TRACE(name + (family == 0 ? "/region" : "/wr") + "/" +
                     goal.ToString());
        if (g == 0 || pushes_down) {
          mem_result = (*solver)->Solve(*mem_context, goal);
          snap_result = (*solver)->Solve(*snap_context, goal);
        }
        ASSERT_EQ(mem_result.ok(), snap_result.ok());
        if (!mem_result.ok()) continue;  // inapplicable either way
        if (mem_result->is_complete()) {
          ASSERT_EQ(mem_result->instance_probs.size(),
                    snap_result->instance_probs.size());
          for (size_t i = 0; i < mem_result->instance_probs.size(); ++i) {
            EXPECT_EQ(mem_result->instance_probs[i],
                      snap_result->instance_probs[i])
                << "instance " << i;
          }
        }
        const auto mem_ranked =
            AnswerGoal(*mem_result, mem_context->view(), goal);
        const auto snap_ranked =
            AnswerGoal(*snap_result, snap_context->view(), goal);
        ASSERT_EQ(mem_ranked.size(), snap_ranked.size());
        for (size_t i = 0; i < mem_ranked.size(); ++i) {
          EXPECT_EQ(mem_ranked[i].first, snap_ranked[i].first);
          EXPECT_EQ(mem_ranked[i].second, snap_ranked[i].second);
        }
      }
    }
  }
}

TEST(SnapshotEquivalence, AttachedArtifactsAreAdoptedNotRebuilt) {
  const UncertainDataset dataset = RandomDataset(15, 3, 3, 0.0, 504);
  const PreferenceRegion region = WrRegion(3, 2);
  const std::string path = TempPath("adopt.arsp");
  SnapshotWriteOptions options;
  options.scores_region = &region;
  options.rtree_fanout = 16;
  ASSERT_TRUE(WriteSnapshot(dataset, path, options).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());

  ExecutionContext context(DatasetView(loaded->dataset), region);
  context.instance_kdtree();
  context.instance_rtree(16);
  context.scores();
  const auto stats = context.index_build_stats();
  EXPECT_EQ(stats.snapshot_hits, 3);
  EXPECT_EQ(stats.kdtree_builds, 0);
  EXPECT_EQ(stats.rtree_builds, 0);
  EXPECT_EQ(stats.score_maps, 0);

  const ColumnBytes footprint = context.IndexMemoryFootprint();
  EXPECT_GT(footprint.mapped, 0u);  // artifacts live in the mapping
  EXPECT_EQ(footprint.resident, 0u);

  // A different region must NOT adopt the shipped scores (hash mismatch).
  const PreferenceRegion other = WrRegion(3, 1);
  ExecutionContext other_context(DatasetView(loaded->dataset), other);
  other_context.scores();
  EXPECT_EQ(other_context.index_build_stats().snapshot_hits, 0);
  EXPECT_EQ(other_context.index_build_stats().score_maps, 1);
}

TEST(SnapshotIdentity, FingerprintIsContentNotPath) {
  const UncertainDataset dataset = RandomDataset(10, 2, 2, 0.0, 505);
  const std::string a = TempPath("fp_a.arsp");
  const std::string b = TempPath("fp_b.arsp");
  ASSERT_TRUE(WriteSnapshot(dataset, a).ok());
  ASSERT_TRUE(WriteSnapshot(dataset, b).ok());
  auto la = LoadSnapshot(a);
  auto lb = LoadSnapshot(b);
  ASSERT_TRUE(la.ok() && lb.ok());
  EXPECT_EQ(la->fingerprint, lb->fingerprint);
  EXPECT_NE(la->fingerprint, 0u);

  const UncertainDataset other = RandomDataset(10, 2, 2, 0.0, 506);
  const std::string c = TempPath("fp_c.arsp");
  ASSERT_TRUE(WriteSnapshot(other, c).ok());
  auto lc = LoadSnapshot(c);
  ASSERT_TRUE(lc.ok());
  EXPECT_NE(la->fingerprint, lc->fingerprint);
}

// ------------------------------------------------------------- rejection

TEST(SnapshotRejection, TruncatedFilesAreInvalid) {
  const UncertainDataset dataset = RandomDataset(12, 3, 2, 0.0, 507);
  const std::string path = TempPath("trunc.arsp");
  ASSERT_TRUE(WriteSnapshot(dataset, path).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 256u);

  const std::string cut = TempPath("trunc_cut.arsp");
  for (const size_t keep :
       {size_t{1}, size_t{32}, size_t{63}, size_t{200}, bytes.size() / 2,
        bytes.size() - 1}) {
    WriteAll(cut, bytes.substr(0, keep));
    const auto loaded = LoadSnapshot(cut);
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " bytes";
  }
}

TEST(SnapshotRejection, WrongMagicVersionAndEndianness) {
  const UncertainDataset dataset = RandomDataset(8, 2, 2, 0.0, 508);
  const std::string path = TempPath("hdr.arsp");
  ASSERT_TRUE(WriteSnapshot(dataset, path).ok());
  const std::string bytes = ReadAll(path);
  const std::string bad = TempPath("hdr_bad.arsp");

  {
    std::string mutated = bytes;
    mutated[0] = 'X';  // magic
    WriteAll(bad, mutated);
    const auto loaded = LoadSnapshot(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  }
  {
    std::string mutated = bytes;
    mutated[8] = 99;  // version (little-endian low byte)
    WriteAll(bad, mutated);
    const auto loaded = LoadSnapshot(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  }
  {
    // Version 1 stored 32-byte kd nodes, with a subtree weight sum no probe
    // read; version 2 stores 20-byte ones. A version-1 file is refused at
    // its header, before any of its nodes could be misread.
    ASSERT_EQ(snapshot::kVersion, 2u);
    std::string mutated = bytes;
    const uint32_t version_one = 1;
    std::memcpy(&mutated[offsetof(snapshot::SnapshotHeader, version)],
                &version_one, sizeof(version_one));
    WriteAll(bad, mutated);
    const auto loaded = LoadSnapshot(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(
        loaded.status().message().find("unsupported snapshot version 1"),
        std::string::npos)
        << loaded.status().ToString();
  }
  {
    std::string mutated = bytes;
    std::swap(mutated[12], mutated[15]);  // endian marker byte order
    WriteAll(bad, mutated);
    const auto loaded = LoadSnapshot(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("byte order"),
              std::string::npos);
  }
}

TEST(SnapshotRejection, CorruptedSectionFailsItsChecksum) {
  const UncertainDataset dataset = RandomDataset(12, 3, 2, 0.0, 509);
  const std::string path = TempPath("corrupt.arsp");
  ASSERT_TRUE(WriteSnapshot(dataset, path).ok());
  const SnapshotImage pristine(path);

  // Flip one bit of a coordinate (section payload, past header+table).
  SnapshotImage image = pristine;
  image.Set<uint8_t>(snapshot::kCoords, 13,
                     image.Get<uint8_t>(snapshot::kCoords, 13) ^ 0x40);
  const std::string bad = TempPath("corrupt_bad.arsp");
  image.Write(bad);

  const auto strict = LoadSnapshot(bad);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("checksum"), std::string::npos);

  // With verification off the structural checks still pass — this is the
  // documented trade: no sequential read, trust the bytes.
  SnapshotLoadOptions trusting;
  trusting.verify_checksums = false;
  EXPECT_TRUE(LoadSnapshot(bad, trusting).ok());

  // ...except the ids solvers index unchecked, which the structural checks
  // cover: the same flip in an r-tree entry id names no instance.
  image = pristine;
  image.Set<uint8_t>(snapshot::kRtEntryIds, 0,
                     image.Get<uint8_t>(snapshot::kRtEntryIds, 0) ^ 0x40);
  image.Write(bad);
  const auto flipped_id = LoadSnapshot(bad, trusting);
  ASSERT_FALSE(flipped_id.ok());
  EXPECT_NE(flipped_id.status().message().find("names no instance"),
            std::string::npos);
}

TEST(SnapshotRejection, TamperedSectionTableIsCaughtByTheHeaderHash) {
  const UncertainDataset dataset = RandomDataset(8, 2, 2, 0.0, 510);
  const std::string path = TempPath("table.arsp");
  ASSERT_TRUE(WriteSnapshot(dataset, path).ok());
  std::string bytes = ReadAll(path);
  // First table entry starts at offset 64; corrupt its length field.
  bytes[64 + 16] = static_cast<char>(bytes[64 + 16] ^ 0x01);
  const std::string bad = TempPath("table_bad.arsp");
  WriteAll(bad, bytes);
  // Even with checksum verification off, the table hash always runs.
  SnapshotLoadOptions trusting;
  trusting.verify_checksums = false;
  const auto loaded = LoadSnapshot(bad, trusting);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("header hash"), std::string::npos);
}

// Files with one structural value patched and every checksum and the
// header hash re-sealed: the loader must refuse each with InvalidArgument,
// not abort in an index constructor or hand a solver an id it indexes
// without a bound check.
TEST(SnapshotRejection, CraftedStructureIsInvalidNotFatal) {
  const UncertainDataset dataset = RandomDataset(40, 3, 2, 0.0, 511);
  const PreferenceRegion region = WrRegion(2, 1);
  SnapshotWriteOptions options;
  options.scores_region = &region;
  const std::string path = TempPath("crafted.arsp");
  ASSERT_TRUE(WriteSnapshot(dataset, path, options).ok());
  ASSERT_TRUE(LoadSnapshot(path).ok());
  const SnapshotImage pristine(path);
  const snapshot::SnapshotMeta meta =
      pristine.Get<snapshot::SnapshotMeta>(snapshot::kMeta, 0);
  ASSERT_GT(meta.kd_num_nodes, 1);
  ASSERT_GT(meta.rt_num_nodes, 1);  // the root is an internal node
  const size_t root_kids =
      static_cast<size_t>(meta.rt_root) * (meta.rt_fanout + 1);

  const auto edit_kd_root = [](SnapshotImage& image, auto edit) {
    KdNode root = image.Get<KdNode>(snapshot::kKdNodes, 0);
    edit(root);
    image.Set(snapshot::kKdNodes, 0, root);
  };
  const struct {
    const char* name;
    std::function<void(SnapshotImage&)> patch;
  } cases[] = {
      {"kd child index past the pool",
       [&](SnapshotImage& image) {
         edit_kd_root(image,
                      [&](KdNode& root) { root.right = meta.kd_num_nodes; });
       }},
      {"kd child index back at the root",
       [&](SnapshotImage& image) {
         edit_kd_root(image, [](KdNode& root) { root.left = 0; });
       }},
      {"r-tree kid id past the pool",
       [&](SnapshotImage& image) {
         image.Set<int32_t>(snapshot::kRtKids, root_kids,
                            meta.rt_num_nodes + 7);
       }},
      {"r-tree kid id naming the root",
       [&](SnapshotImage& image) {
         image.Set<int32_t>(snapshot::kRtKids, root_kids, meta.rt_root);
       }},
      {"instance object id",
       [](SnapshotImage& image) {
         image.Set<int32_t>(snapshot::kInstanceObjects, 0, 100000000);
       }},
      {"score row object id",
       [](SnapshotImage& image) {
         image.Set<int32_t>(snapshot::kScoreObjects, 0, 1);
       }},
      {"kd item id",
       [&](SnapshotImage& image) {
         image.Set<int32_t>(snapshot::kKdItemIds, 0, meta.num_instances);
       }},
      {"r-tree entry id",
       [](SnapshotImage& image) {
         image.Set<int32_t>(snapshot::kRtEntryIds, 0, -1);
       }},
      {"bounds min above max",
       [](SnapshotImage& image) {
         image.Set<double>(snapshot::kBounds, 0, 2.0);
       }},
  };
  const std::string bad = TempPath("crafted_bad.arsp");
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    SnapshotImage image = pristine;
    c.patch(image);
    image.Seal();
    image.Write(bad);
    const auto loaded = LoadSnapshot(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

TEST(SnapshotRejection, RTreeFanoutBelowTheMinimumIsInvalidNotFatal) {
  UncertainDatasetBuilder builder(2);
  builder.AddSingleton(Point{0.5, 0.5}, 0.9);
  const auto dataset = builder.Build();
  ASSERT_TRUE(dataset.ok());
  const std::string path = TempPath("fanout.arsp");
  ASSERT_TRUE(WriteSnapshot(*dataset, path).ok());
  SnapshotImage image(path);
  auto meta = image.Get<snapshot::SnapshotMeta>(snapshot::kMeta, 0);
  ASSERT_EQ(meta.rt_num_nodes, 1);
  // Fan-out 3 with its kid section cut to one node's 3 + 1 slots: every
  // section length agrees with the meta shape, but no RTree takes 3.
  meta.rt_fanout = 3;
  image.Set(snapshot::kMeta, 0, meta);
  image.SetLength(snapshot::kRtKids, 4 * sizeof(int32_t));
  const std::string bad = TempPath("fanout_bad.arsp");
  image.Seal();
  image.Write(bad);
  const auto loaded = LoadSnapshot(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotRejection, NonexistentAndEmptyFiles) {
  EXPECT_FALSE(LoadSnapshot(TempPath("does_not_exist.arsp")).ok());
  const std::string empty = TempPath("empty.arsp");
  WriteAll(empty, "");
  EXPECT_FALSE(LoadSnapshot(empty).ok());
}

}  // namespace
}  // namespace arsp
