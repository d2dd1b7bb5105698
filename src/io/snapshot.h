// Copyright 2026 The ARSP Authors.
//
// The .arsp columnar snapshot format — the out-of-core half of the data
// plane. A snapshot holds everything a daemon needs to serve a dataset:
// the dataset's columns, its tight bounds, both spatial indexes as flat
// arenas (KdTree and RTree node pools, exactly the in-memory layout), an
// optional pre-mapped score section tagged with the preference region's
// vertex hash, and optional object display names.
//
// Layout (all integers little-endian; the endian marker rejects foreign
// byte orders rather than translating them):
//
//   +--------------------+ 0
//   | SnapshotHeader     |  64 bytes: magic, version, endian, table size,
//   |                    |  content hash (the dataset fingerprint)
//   +--------------------+ 64
//   | SectionEntry[k]    |  32 bytes each: id, offset, length, FNV-1a
//   +--------------------+  checksum of the section bytes
//   | sections ...       |  each starting on a 64-byte boundary
//   +--------------------+
//
// Because every section is the exact byte image of a Column<T> arena, a
// load is: mmap the file, validate the table (and checksums, unless
// disabled), and point borrowed Columns at the mapped bytes. No parsing,
// no copying — the kernel pages data in on first touch, so a 10M-instance
// dataset serves queries with resident memory far below its file size.
//
// The content hash doubles as the daemon's registry fingerprint for
// snapshot-sourced LOAD_DATASET requests: two files with identical section
// content hash identically regardless of path or mtime.

#ifndef ARSP_IO_SNAPSHOT_H_
#define ARSP_IO_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

class PreferenceRegion;

namespace snapshot {

inline constexpr char kMagic[8] = {'A', 'R', 'S', 'P', 'S', 'N', 'A', 'P'};
inline constexpr uint32_t kVersion = 2;
inline constexpr uint32_t kEndianMarker = 0x01020304u;
inline constexpr size_t kSectionAlignment = 64;

/// Section ids. Order in the file follows this numbering; unknown ids in a
/// newer-minor file are skipped by readers (forward-compatible sections).
enum SectionId : uint32_t {
  kMeta = 1,             ///< SnapshotMeta (fixed 64-byte POD)
  kBounds = 2,           ///< 2·dim doubles: bounds min row, max row
  kCoords = 3,           ///< n × dim doubles, row-major
  kProbs = 4,            ///< n doubles
  kInstanceObjects = 5,  ///< n int32
  kObjectStarts = 6,     ///< m + 1 int32
  kObjectProbs = 7,      ///< m doubles
  kKdNodes = 8,          ///< KdNode pool
  kKdBounds = 9,         ///< kd node bounds, 2·dim doubles per node
  kKdItemCoords = 10,    ///< n × dim doubles (build order)
  kKdItemWeights = 11,   ///< n doubles
  kKdItemIds = 12,       ///< n int32
  kRtNodes = 13,         ///< RtNode pool
  kRtBounds = 14,        ///< rt node bounds, 2·dim doubles per node
  kRtKids = 15,          ///< rt kid slots, (max_entries + 1) int32 per node
  kRtEntryCoords = 16,   ///< n × dim doubles (leaf order)
  kRtEntryWeights = 17,  ///< n doubles
  kRtEntryIds = 18,      ///< n int32
  kScoreCoords = 19,     ///< n × mapped_dim doubles (optional)
  kScoreProbs = 20,      ///< n doubles (optional)
  kScoreObjects = 21,    ///< n int32 (optional)
  kNames = 22,           ///< '\n'-joined object names (optional)
};

/// Fixed 64-byte file header.
struct SnapshotHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t endian = 0;
  uint32_t section_count = 0;
  uint32_t reserved = 0;
  uint64_t content_hash = 0;  ///< FNV-1a over the section table bytes
  uint8_t pad[32] = {};
};
static_assert(sizeof(SnapshotHeader) == 64, "header layout is part of the format");

/// One section table entry (32 bytes).
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;    ///< absolute byte offset; 64-byte aligned
  uint64_t length = 0;    ///< bytes
  uint64_t checksum = 0;  ///< FNV-1a over the section bytes
};
static_assert(sizeof(SectionEntry) == 32, "table layout is part of the format");

/// Dataset-shape metadata (fixed 64-byte POD in section kMeta).
struct SnapshotMeta {
  int32_t dim = 0;
  int32_t num_instances = 0;
  int32_t num_objects = 0;
  int32_t kd_leaf_size = 0;
  int32_t kd_num_nodes = 0;
  int32_t rt_fanout = 0;
  int32_t rt_num_nodes = 0;
  int32_t rt_root = -1;
  int32_t score_mapped_dim = 0;  ///< 0 when no score sections are present
  uint32_t flags = 0;            ///< kFlagHasScores | kFlagHasNames
  uint64_t score_vertex_hash = 0;
  uint8_t pad[16] = {};
};
static_assert(sizeof(SnapshotMeta) == 64, "meta layout is part of the format");

inline constexpr uint32_t kFlagHasScores = 1u << 0;
inline constexpr uint32_t kFlagHasNames = 1u << 1;

/// FNV-1a-64 over a byte range; the checksum and fingerprint primitive.
uint64_t Fnv1a(const void* data, size_t length,
               uint64_t seed = 1469598103934665603ull);

/// A read-only file mapping: POSIX mmap when available, a heap read
/// fallback otherwise. Loaded snapshots pin one of these via the dataset's
/// backing slot; borrowed columns point into data().
class MmapFile {
 public:
  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  static StatusOr<std::shared_ptr<const MmapFile>> Open(
      const std::string& path);

  const uint8_t* data() const { return static_cast<const uint8_t*>(addr_); }
  size_t size() const { return size_; }
  /// True when the file is kernel-mapped (pages on demand); false on the
  /// heap-read fallback (fully resident).
  bool mapped() const { return mapped_; }

 private:
  MmapFile() = default;
  void* addr_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
};

struct SnapshotWriteOptions {
  int kd_leaf_size = 16;
  int rtree_fanout = 16;
  /// When set, the writer pre-maps every instance through the region's
  /// ScoreMapper and ships the score columns, tagged with the mapper's
  /// vertex hash. Queries whose region hashes identically mmap their
  /// scores; all other queries map in memory as usual.
  const PreferenceRegion* scores_region = nullptr;
  /// Object display names ('\n' is reserved); empty = no names section.
  std::vector<std::string> object_names;
};

/// Builds both indexes over `dataset` and writes a version-2 snapshot.
/// The dataset must be in-memory (owned columns are not required, but the
/// writer reads every column once to checksum and serialize it).
Status WriteSnapshot(const UncertainDataset& dataset, const std::string& path,
                     const SnapshotWriteOptions& options = {});

struct SnapshotLoadOptions {
  /// Verify every section's FNV-1a checksum before use. Costs one
  /// sequential read of the file; structural validation (table bounds,
  /// section sizes, index shape, and the ranges of the id columns solvers
  /// index unchecked) always runs regardless.
  bool verify_checksums = true;
};

/// A loaded snapshot: the dataset (columns borrowed from the mapping,
/// indexes and any score section attached), plus identity and size.
struct LoadedSnapshot {
  std::shared_ptr<const UncertainDataset> dataset;
  std::vector<std::string> object_names;  ///< empty when none were written
  uint64_t fingerprint = 0;               ///< header content hash
  size_t bytes_mapped = 0;                ///< file size backing the columns
  bool mapped = false;                    ///< false on the read fallback
};

/// Maps `path` and assembles the dataset with zero copy. InvalidArgument
/// on any malformed, truncated, foreign-endian, wrong-version, or (with
/// verification on) corrupted file.
StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const SnapshotLoadOptions& options = {});

}  // namespace snapshot

/// Friend of UncertainDataset: assembles datasets around borrowed columns
/// for the snapshot loader.
class SnapshotLoader {
 public:
  static StatusOr<snapshot::LoadedSnapshot> Load(
      const std::string& path, const snapshot::SnapshotLoadOptions& options);
};

}  // namespace arsp

#endif  // ARSP_IO_SNAPSHOT_H_
