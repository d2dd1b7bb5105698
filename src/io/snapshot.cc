// Copyright 2026 The ARSP Authors.

#include "src/io/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/index/kdtree.h"
#include "src/index/rtree.h"
#include "src/prefs/score_mapper.h"
#include "src/uncertain/dataset_view.h"

namespace arsp {
namespace snapshot {

uint64_t Fnv1a(const void* data, size_t length, uint64_t seed) {
  uint64_t h = seed;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < length; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------------------ MmapFile

MmapFile::~MmapFile() {
  if (addr_ == nullptr) return;
  if (mapped_) {
    ::munmap(addr_, size_);
  } else {
    ::operator delete(addr_, std::align_val_t(kSectionAlignment));
  }
}

StatusOr<std::shared_ptr<const MmapFile>> MmapFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("fstat('" + path + "'): " + err);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument("'" + path + "' is empty");
  }

  auto file = std::shared_ptr<MmapFile>(new MmapFile());
  file->size_ = size;
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (addr != MAP_FAILED) {
    file->addr_ = addr;
    file->mapped_ = true;
    ::close(fd);
    return std::shared_ptr<const MmapFile>(std::move(file));
  }

  // Read fallback (filesystems without mmap support): fully resident, but
  // the loaded snapshot behaves identically.
  file->addr_ = ::operator new(size, std::align_val_t(kSectionAlignment));
  file->mapped_ = false;
  size_t done = 0;
  while (done < size) {
    const ssize_t got = ::read(fd, static_cast<char*>(file->addr_) + done,
                               size - done);
    if (got <= 0) {
      const std::string err = got < 0 ? std::strerror(errno) : "short read";
      ::close(fd);
      return Status::Internal("read('" + path + "'): " + err);
    }
    done += static_cast<size_t>(got);
  }
  ::close(fd);
  return std::shared_ptr<const MmapFile>(std::move(file));
}

// -------------------------------------------------------------------- writer

namespace {

struct SectionBlob {
  uint32_t id = 0;
  const void* data = nullptr;
  size_t length = 0;
};

size_t AlignUp(size_t v) {
  return (v + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

Status WriteFile(const std::string& path,
                 const SnapshotHeader& header,
                 const std::vector<SectionEntry>& table,
                 const std::vector<SectionBlob>& blobs) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Status::Internal("cannot create '" + path +
                            "': " + std::strerror(errno));
  }
  const auto put = [out](const void* data, size_t length) {
    return length == 0 || std::fwrite(data, 1, length, out) == length;
  };
  static constexpr char kZeros[kSectionAlignment] = {};
  bool ok = put(&header, sizeof(header)) &&
            put(table.data(), table.size() * sizeof(SectionEntry));
  size_t pos = sizeof(header) + table.size() * sizeof(SectionEntry);
  for (size_t i = 0; ok && i < blobs.size(); ++i) {
    const size_t pad = table[i].offset - pos;
    ok = put(kZeros, pad) && put(blobs[i].data, blobs[i].length);
    pos = table[i].offset + blobs[i].length;
  }
  if (std::fclose(out) != 0) ok = false;
  if (!ok) {
    std::remove(path.c_str());
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(const UncertainDataset& dataset, const std::string& path,
                     const SnapshotWriteOptions& options) {
  const int d = dataset.dim();
  const int n = dataset.num_instances();
  const int m = dataset.num_objects();
  if (d < 1) {
    return Status::InvalidArgument("cannot snapshot an unbuilt dataset");
  }
  if (!options.object_names.empty() &&
      static_cast<int>(options.object_names.size()) != m) {
    return Status::InvalidArgument("object_names must have one entry per "
                                   "object");
  }

  // Build the artifacts the snapshot ships. Index builds follow the exact
  // in-memory paths, so a loaded snapshot answers queries bit-identically
  // to a fresh build over the same data.
  const DatasetView view(dataset);
  const KdTree kdtree = KdTree::FromView(view, options.kd_leaf_size);
  const RTree rtree = RTree::BulkLoadFromView(view, options.rtree_fanout);

  ScoreBuffer scores;
  uint64_t vertex_hash = 0;
  int mapped_dim = 0;
  const bool has_scores = options.scores_region != nullptr;
  if (has_scores) {
    const ScoreMapper mapper(*options.scores_region);
    scores = mapper.MapView(view);
    vertex_hash = mapper.VertexHash();
    mapped_dim = mapper.mapped_dim();
  }

  std::string names_blob;
  const bool has_names = !options.object_names.empty();
  for (size_t j = 0; j < options.object_names.size(); ++j) {
    if (options.object_names[j].find('\n') != std::string::npos) {
      return Status::InvalidArgument("object names must not contain newlines");
    }
    if (j > 0) names_blob.push_back('\n');
    names_blob += options.object_names[j];
  }

  std::vector<double> bounds_rows(static_cast<size_t>(2 * d));
  if (n > 0) {
    for (int k = 0; k < d; ++k) {
      bounds_rows[static_cast<size_t>(k)] = dataset.bounds().min_corner()[k];
      bounds_rows[static_cast<size_t>(d + k)] = dataset.bounds().max_corner()[k];
    }
  } else {
    for (int k = 0; k < d; ++k) {
      bounds_rows[static_cast<size_t>(k)] =
          std::numeric_limits<double>::infinity();
      bounds_rows[static_cast<size_t>(d + k)] =
          -std::numeric_limits<double>::infinity();
    }
  }

  SnapshotMeta meta;
  meta.dim = d;
  meta.num_instances = n;
  meta.num_objects = m;
  meta.kd_leaf_size = options.kd_leaf_size;
  meta.kd_num_nodes = kdtree.num_nodes();
  meta.rt_fanout = options.rtree_fanout;
  meta.rt_num_nodes = rtree.num_nodes();
  meta.rt_root = rtree.root_id();
  meta.score_mapped_dim = mapped_dim;
  meta.flags = (has_scores ? kFlagHasScores : 0u) |
               (has_names ? kFlagHasNames : 0u);
  meta.score_vertex_hash = vertex_hash;

  std::vector<SectionBlob> blobs;
  const auto add = [&blobs](uint32_t id, const void* data, size_t length) {
    blobs.push_back(SectionBlob{id, data, length});
  };
  const auto add_col = [&add](uint32_t id, const auto& column) {
    add(id, column.data(), column.bytes());
  };
  add(kMeta, &meta, sizeof(meta));
  add(kBounds, bounds_rows.data(), bounds_rows.size() * sizeof(double));
  add_col(kCoords, dataset.coords_column());
  add_col(kProbs, dataset.probs_column());
  add_col(kInstanceObjects, dataset.instance_objects_column());
  add_col(kObjectStarts, dataset.object_starts_column());
  add_col(kObjectProbs, dataset.object_probs_column());
  add_col(kKdNodes, kdtree.nodes_column());
  add_col(kKdBounds, kdtree.node_bounds_column());
  add_col(kKdItemCoords, kdtree.item_coords_column());
  add_col(kKdItemWeights, kdtree.item_weights_column());
  add_col(kKdItemIds, kdtree.item_ids_column());
  add_col(kRtNodes, rtree.nodes_column());
  add_col(kRtBounds, rtree.node_bounds_column());
  add_col(kRtKids, rtree.node_kids_column());
  add_col(kRtEntryCoords, rtree.entry_coords_column());
  add_col(kRtEntryWeights, rtree.entry_weights_column());
  add_col(kRtEntryIds, rtree.entry_ids_column());
  if (has_scores) {
    add_col(kScoreCoords, scores.coords);
    add_col(kScoreProbs, scores.probs);
    add_col(kScoreObjects, scores.objects);
  }
  if (has_names) add(kNames, names_blob.data(), names_blob.size());

  // Lay out the section table, checksum each section, then fingerprint the
  // table itself — the content hash covers every section's id, placement,
  // and checksum, so it identifies the full content.
  std::vector<SectionEntry> table(blobs.size());
  size_t offset =
      sizeof(SnapshotHeader) + blobs.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < blobs.size(); ++i) {
    offset = AlignUp(offset);
    table[i].id = blobs[i].id;
    table[i].offset = offset;
    table[i].length = blobs[i].length;
    table[i].checksum = Fnv1a(blobs[i].data, blobs[i].length);
    offset += blobs[i].length;
  }

  SnapshotHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.endian = kEndianMarker;
  header.section_count = static_cast<uint32_t>(blobs.size());
  header.content_hash =
      Fnv1a(table.data(), table.size() * sizeof(SectionEntry));

  return WriteFile(path, header, table, blobs);
}

// -------------------------------------------------------------------- loader

StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  return SnapshotLoader::Load(path);
}

}  // namespace snapshot

namespace {

using snapshot::SectionEntry;
using snapshot::SnapshotHeader;
using snapshot::SnapshotMeta;

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed snapshot: " + what);
}

}  // namespace

StatusOr<snapshot::LoadedSnapshot> SnapshotLoader::Load(
    const std::string& path) {
  auto file_or = snapshot::MmapFile::Open(path);
  if (!file_or.ok()) return file_or.status();
  std::shared_ptr<const snapshot::MmapFile> file = std::move(*file_or);
  const uint8_t* base = file->data();
  const size_t size = file->size();

  // ---- header
  if (size < sizeof(SnapshotHeader)) return Malformed("truncated header");
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, snapshot::kMagic, sizeof(snapshot::kMagic)) !=
      0) {
    return Malformed("bad magic (not an .arsp snapshot)");
  }
  if (header.endian != snapshot::kEndianMarker) {
    return Malformed("foreign byte order");
  }
  if (header.version != snapshot::kVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(header.version) +
        " (this build reads version " + std::to_string(snapshot::kVersion) +
        ")");
  }
  if (header.section_count == 0 || header.section_count > 4096) {
    return Malformed("implausible section count");
  }
  const size_t table_bytes =
      static_cast<size_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(SnapshotHeader) + table_bytes > size) {
    return Malformed("truncated section table");
  }

  // ---- section table (always fingerprint-checked: it is cheap and the
  // content hash is the registry identity)
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), base + sizeof(SnapshotHeader), table_bytes);
  if (snapshot::Fnv1a(table.data(), table_bytes) != header.content_hash) {
    return Malformed("section table does not match the header hash");
  }
  std::unordered_map<uint32_t, const SectionEntry*> by_id;
  for (const SectionEntry& entry : table) {
    if (entry.offset % snapshot::kSectionAlignment != 0 ||
        entry.offset < sizeof(SnapshotHeader) + table_bytes ||
        entry.offset > size || entry.length > size - entry.offset) {
      return Malformed("section " + std::to_string(entry.id) +
                       " is out of bounds");
    }
    if (!by_id.emplace(entry.id, &entry).second) {
      return Malformed("duplicate section " + std::to_string(entry.id));
    }
  }
  const auto find = [&by_id](uint32_t id) -> const SectionEntry* {
    const auto it = by_id.find(id);
    return it == by_id.end() ? nullptr : it->second;
  };
  const auto require = [&find](uint32_t id,
                               const SectionEntry** out) -> Status {
    *out = find(id);
    if (*out == nullptr) {
      return Malformed("missing section " + std::to_string(id));
    }
    return Status::OK();
  };

  for (const SectionEntry& entry : table) {
    if (snapshot::Fnv1a(base + entry.offset, entry.length) !=
        entry.checksum) {
      return Malformed("section " + std::to_string(entry.id) +
                       " failed its checksum");
    }
  }

  // ---- meta + structural validation: every section length must match the
  // shape meta declares, so the borrowed columns below can never read past
  // their section even if file content is garbage.
  const SectionEntry* meta_entry = nullptr;
  ARSP_RETURN_IF_ERROR(require(snapshot::kMeta, &meta_entry));
  if (meta_entry->length != sizeof(SnapshotMeta)) {
    return Malformed("meta section has the wrong size");
  }
  SnapshotMeta meta;
  std::memcpy(&meta, base + meta_entry->offset, sizeof(meta));
  if (meta.dim < 1 || meta.num_instances < 0 || meta.num_objects < 0 ||
      meta.kd_num_nodes < 0 || meta.rt_num_nodes < 0 ||
      meta.rt_fanout < RTree::kMinFanout ||
      meta.rt_fanout > RTree::kMaxFanout || meta.score_mapped_dim < 0) {
    return Malformed("implausible meta shape");
  }
  const size_t d = static_cast<size_t>(meta.dim);
  const size_t n = static_cast<size_t>(meta.num_instances);
  const size_t m = static_cast<size_t>(meta.num_objects);

  const auto expect = [&require](uint32_t id, size_t count_bytes,
                                 const SectionEntry** out) -> Status {
    ARSP_RETURN_IF_ERROR(require(id, out));
    if ((*out)->length != count_bytes) {
      return Malformed("section " + std::to_string(id) +
                       " length disagrees with the meta shape");
    }
    return Status::OK();
  };

  const SectionEntry* bounds_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kBounds, 2 * d * sizeof(double), &bounds_s));
  const SectionEntry* coords_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kCoords, n * d * sizeof(double), &coords_s));
  const SectionEntry* probs_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kProbs, n * sizeof(double), &probs_s));
  const SectionEntry* iobj_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kInstanceObjects, n * sizeof(int32_t), &iobj_s));
  const SectionEntry* starts_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kObjectStarts, (m + 1) * sizeof(int32_t), &starts_s));
  const SectionEntry* oprobs_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kObjectProbs, m * sizeof(double), &oprobs_s));

  const size_t kd_nodes = static_cast<size_t>(meta.kd_num_nodes);
  const SectionEntry* kd_nodes_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kKdNodes, kd_nodes * sizeof(KdNode), &kd_nodes_s));
  const SectionEntry* kd_bounds_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kKdBounds, kd_nodes * 2 * d * sizeof(double), &kd_bounds_s));
  const SectionEntry* kd_coords_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kKdItemCoords, n * d * sizeof(double), &kd_coords_s));
  const SectionEntry* kd_weights_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kKdItemWeights, n * sizeof(double), &kd_weights_s));
  const SectionEntry* kd_ids_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kKdItemIds, n * sizeof(int32_t), &kd_ids_s));

  const size_t rt_nodes = static_cast<size_t>(meta.rt_num_nodes);
  const size_t rt_cap = static_cast<size_t>(meta.rt_fanout) + 1;
  const SectionEntry* rt_nodes_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kRtNodes, rt_nodes * sizeof(RtNode), &rt_nodes_s));
  const SectionEntry* rt_bounds_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kRtBounds, rt_nodes * 2 * d * sizeof(double), &rt_bounds_s));
  const SectionEntry* rt_kids_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kRtKids, rt_nodes * rt_cap * sizeof(int32_t), &rt_kids_s));
  const SectionEntry* rt_coords_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kRtEntryCoords, n * d * sizeof(double), &rt_coords_s));
  const SectionEntry* rt_weights_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kRtEntryWeights, n * sizeof(double), &rt_weights_s));
  const SectionEntry* rt_ids_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kRtEntryIds, n * sizeof(int32_t), &rt_ids_s));

  const auto f64 = [base](const SectionEntry* entry) {
    return Column<double>::Borrowed(
        reinterpret_cast<const double*>(base + entry->offset),
        entry->length / sizeof(double));
  };
  const auto i32 = [base](const SectionEntry* entry) {
    return Column<int32_t>::Borrowed(
        reinterpret_cast<const int32_t*>(base + entry->offset),
        entry->length / sizeof(int32_t));
  };

  // Solvers index per-object and per-instance arrays with the ids below
  // unguarded, so their ranges are structural invariants, not content
  // details: the object ranges are monotonic and cover the instances, each
  // instance (and score row) names the object whose range holds it, and
  // each index entry names an instance. Checked in place, in the mapping.
  const auto column = [base](const SectionEntry* entry) {
    return reinterpret_cast<const int32_t*>(base + entry->offset);
  };
  const int32_t* starts = column(starts_s);
  if (starts[0] != 0 || starts[m] != static_cast<int32_t>(n)) {
    return Malformed("object starts do not cover the instance range");
  }
  for (size_t j = 0; j < m; ++j) {
    if (starts[j + 1] < starts[j]) {
      return Malformed("object starts are not monotonic");
    }
  }
  const auto check_objects = [m, starts](const int32_t* objects,
                                         const char* what) -> Status {
    for (size_t j = 0; j < m; ++j) {
      for (int32_t i = starts[j]; i < starts[j + 1]; ++i) {
        if (objects[i] != static_cast<int32_t>(j)) {
          return Malformed(std::string(what) + " names the wrong object");
        }
      }
    }
    return Status::OK();
  };
  const auto check_instances = [n](const int32_t* ids,
                                   const char* what) -> Status {
    for (size_t i = 0; i < n; ++i) {
      if (ids[i] < 0 || static_cast<size_t>(ids[i]) >= n) {
        return Malformed(std::string(what) + " names no instance");
      }
    }
    return Status::OK();
  };
  ARSP_RETURN_IF_ERROR(check_objects(column(iobj_s), "an instance"));
  ARSP_RETURN_IF_ERROR(check_instances(column(kd_ids_s), "a kd-tree item"));
  ARSP_RETURN_IF_ERROR(check_instances(column(rt_ids_s), "an r-tree entry"));

  auto dataset = std::make_shared<UncertainDataset>();
  dataset->dim_ = meta.dim;
  dataset->coords_ = f64(coords_s);
  dataset->probs_ = f64(probs_s);
  dataset->instance_objects_ = i32(iobj_s);
  dataset->object_starts_ = i32(starts_s);
  dataset->object_probs_ = f64(oprobs_s);
  if (n > 0) {
    const double* rows =
        reinterpret_cast<const double*>(base + bounds_s->offset);
    Point lo(meta.dim), hi(meta.dim);
    for (int k = 0; k < meta.dim; ++k) {
      lo[k] = rows[k];
      hi[k] = rows[meta.dim + k];
      if (!(lo[k] <= hi[k])) return Malformed("bounds are not a box");
    }
    dataset->bounds_ = Mbr(std::move(lo), std::move(hi));
  } else {
    dataset->bounds_ = Mbr::Empty(meta.dim);
  }

  StatusOr<KdTree> kdtree = KdTree::FromFlat(
      meta.dim, f64(kd_coords_s), f64(kd_weights_s), i32(kd_ids_s),
      Column<KdNode>::Borrowed(
          reinterpret_cast<const KdNode*>(base + kd_nodes_s->offset),
          kd_nodes),
      f64(kd_bounds_s));
  if (!kdtree.ok()) return Malformed(kdtree.status().message());
  StatusOr<RTree> rtree = RTree::FromFlat(
      meta.dim, meta.rt_fanout, meta.rt_root, meta.num_instances,
      Column<RtNode>::Borrowed(
          reinterpret_cast<const RtNode*>(base + rt_nodes_s->offset),
          rt_nodes),
      f64(rt_bounds_s), i32(rt_kids_s), f64(rt_coords_s), f64(rt_weights_s),
      i32(rt_ids_s));
  if (!rtree.ok()) return Malformed(rtree.status().message());
  dataset->AttachIndexes(
      std::make_shared<const KdTree>(std::move(kdtree).value()),
      std::make_shared<const RTree>(std::move(rtree).value()),
      meta.rt_fanout);

  if (meta.flags & snapshot::kFlagHasScores) {
    const size_t dprime = static_cast<size_t>(meta.score_mapped_dim);
    const SectionEntry* sc_coords_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kScoreCoords, n * dprime * sizeof(double), &sc_coords_s));
    const SectionEntry* sc_probs_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kScoreProbs, n * sizeof(double), &sc_probs_s));
    const SectionEntry* sc_objects_s = nullptr;
  ARSP_RETURN_IF_ERROR(expect(snapshot::kScoreObjects, n * sizeof(int32_t), &sc_objects_s));
    ARSP_RETURN_IF_ERROR(check_objects(column(sc_objects_s), "a score row"));
    auto scores = std::make_shared<AttachedScores>();
    scores->vertex_hash = meta.score_vertex_hash;
    scores->mapped_dim = meta.score_mapped_dim;
    scores->coords = f64(sc_coords_s);
    scores->probs = f64(sc_probs_s);
    scores->objects = i32(sc_objects_s);
    dataset->AttachScores(std::move(scores));
  }

  snapshot::LoadedSnapshot loaded;
  if (meta.flags & snapshot::kFlagHasNames) {
    const SectionEntry* names_s = nullptr;
    ARSP_RETURN_IF_ERROR(require(snapshot::kNames, &names_s));
    const char* blob = reinterpret_cast<const char*>(base + names_s->offset);
    const std::string joined(blob, names_s->length);
    size_t start = 0;
    while (loaded.object_names.size() < m) {
      const size_t split = joined.find('\n', start);
      if (split == std::string::npos) {
        loaded.object_names.push_back(joined.substr(start));
        start = joined.size() + 1;
        break;
      }
      loaded.object_names.push_back(joined.substr(start, split - start));
      start = split + 1;
    }
    if (loaded.object_names.size() != m) {
      return Malformed("names section does not have one name per object");
    }
  }

  dataset->set_backing(file);
  loaded.dataset = std::move(dataset);
  loaded.fingerprint = header.content_hash;
  loaded.bytes_mapped = size;
  loaded.mapped = file->mapped();
  return loaded;
}

}  // namespace arsp
