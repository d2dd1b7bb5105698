// Copyright 2026 The ARSP Authors.
//
// The uncertain data model of the paper (§II-B): a dataset D of m uncertain
// objects, each a discrete probability distribution over instances in R^d.
// An object materializes as at most one of its instances; objects are
// mutually independent; Σ_t p(t) ≤ 1 per object (strict < 1 means the object
// may be absent from a possible world).
//
// Storage is columnar (structure-of-arrays): one contiguous coordinate
// stream (row-major, d doubles per instance), one probability stream, one
// object-id stream, plus per-object range/probability columns. Each stream
// is a Column<T> — owned when built in memory, borrowed when the dataset
// was loaded from an mmap'ed snapshot (src/io/snapshot.h), in which case
// `backing` pins the mapping and prebuilt indexes/scores may ride along.

#ifndef ARSP_UNCERTAIN_UNCERTAIN_DATASET_H_
#define ARSP_UNCERTAIN_UNCERTAIN_DATASET_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/column.h"
#include "src/common/status.h"
#include "src/geometry/mbr.h"
#include "src/geometry/point.h"

namespace arsp {

class KdTree;
class RTree;

/// One instance of an uncertain object, as a value. The dataset no longer
/// stores Instance records (storage is columnar); instance(i) materializes
/// one on demand for cold paths — hot paths read coords()/prob()/object_of().
struct Instance {
  Point point;
  double prob = 0.0;
  int object_id = 0;    ///< Index of the owning object in the dataset.
  int instance_id = 0;  ///< Global index in the flattened instance set I.
};

/// Pre-mapped SV(·) scores shipped inside a snapshot: valid only for the
/// preference-region vertex set identified by `vertex_hash` (an FNV-1a hash
/// of the dimension-major vertex matrix — see ScoreMapper::VertexHash).
/// ExecutionContext::scores() borrows the coordinates when the hash
/// matches; the probabilities and object ids are the dataset's own columns.
struct AttachedScores {
  uint64_t vertex_hash = 0;
  int mapped_dim = 0;
  Column<double> coords;  ///< n × mapped_dim, row-major
};

/// Immutable uncertain dataset; build through UncertainDatasetBuilder or
/// load through snapshot::Load.
class UncertainDataset {
 public:
  /// An empty 0-dimensional dataset (useful as a placeholder before
  /// assignment; every query-facing API requires a built dataset).
  UncertainDataset() : bounds_(Mbr::Empty(0)) {}

  /// Data-space dimensionality d.
  int dim() const { return dim_; }
  /// Number of uncertain objects m.
  int num_objects() const {
    return object_starts_.empty()
               ? 0
               : static_cast<int>(object_starts_.size()) - 1;
  }
  /// Total number of instances n = |I|.
  int num_instances() const { return static_cast<int>(probs_.size()); }

  /// Raw coordinate row of instance `i` (d contiguous doubles) — the hot
  /// zero-copy accessor; points straight into the column (possibly mmap'ed).
  const double* coords(int i) const {
    return coords_.data() + static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }
  /// Point of instance `i`, by value (cold paths; allocates).
  Point point(int i) const {
    return Point(std::vector<double>(coords(i), coords(i) + dim_));
  }
  double prob(int i) const { return probs_[static_cast<size_t>(i)]; }
  /// Owning object of instance `i`.
  int object_of(int i) const {
    return instance_objects_[static_cast<size_t>(i)];
  }
  /// Instance `i` materialized as a value (compatibility accessor for cold
  /// paths and tests; hot code reads the columns).
  Instance instance(int i) const {
    return Instance{point(i), prob(i), object_of(i), i};
  }

  /// [begin, end) range of object `j` in the flattened instance order.
  std::pair<int, int> object_range(int j) const {
    return {object_starts_[static_cast<size_t>(j)],
            object_starts_[static_cast<size_t>(j) + 1]};
  }
  /// Number of instances of object `j`.
  int object_size(int j) const {
    const auto [b, e] = object_range(j);
    return e - b;
  }
  /// Total existence probability Σ_t p(t) of object `j`.
  double object_prob(int j) const {
    return object_probs_[static_cast<size_t>(j)];
  }

  /// Tight bounding box of all instances.
  const Mbr& bounds() const { return bounds_; }

  /// Number of possible worlds, as a double (it overflows integers fast);
  /// each object contributes (#instances + [Σp < 1]) choices.
  double NumPossibleWorlds() const;

  // ------------------------------------------------------------ columns
  // Raw column access for the snapshot writer and the footprint stats.
  const Column<double>& coords_column() const { return coords_; }
  const Column<double>& probs_column() const { return probs_; }
  const Column<int32_t>& instance_objects_column() const {
    return instance_objects_;
  }
  const Column<int32_t>& object_starts_column() const {
    return object_starts_;
  }
  const Column<double>& object_probs_column() const { return object_probs_; }

  /// Resident vs. mapped bytes of the dataset's own columns.
  ColumnBytes memory_bytes() const;

  // ------------------------------------------- snapshot loader surface
  // Set once during snapshot::Load, before the dataset is shared; readers
  // treat them as immutable. The backing handle pins the mmap region every
  // borrowed column points into.

  void set_backing(std::shared_ptr<const void> backing) {
    backing_ = std::move(backing);
  }
  const std::shared_ptr<const void>& backing() const { return backing_; }

  void AttachIndexes(std::shared_ptr<const KdTree> kdtree,
                     std::shared_ptr<const RTree> rtree, int rtree_fanout) {
    attached_kdtree_ = std::move(kdtree);
    attached_rtree_ = std::move(rtree);
    attached_rtree_fanout_ = rtree_fanout;
  }
  const std::shared_ptr<const KdTree>& attached_kdtree() const {
    return attached_kdtree_;
  }
  const std::shared_ptr<const RTree>& attached_rtree() const {
    return attached_rtree_;
  }
  int attached_rtree_fanout() const { return attached_rtree_fanout_; }

  void AttachScores(std::shared_ptr<const AttachedScores> scores) {
    attached_scores_ = std::move(scores);
  }
  const std::shared_ptr<const AttachedScores>& attached_scores() const {
    return attached_scores_;
  }

 private:
  friend class UncertainDatasetBuilder;
  friend class SnapshotLoader;

  int dim_ = 0;
  Column<double> coords_;             ///< n × d, row-major
  Column<double> probs_;              ///< n
  Column<int32_t> instance_objects_;  ///< n
  Column<int32_t> object_starts_;     ///< m + 1 (prefix offsets)
  Column<double> object_probs_;       ///< m
  Mbr bounds_;

  std::shared_ptr<const void> backing_;  ///< mmap pin for borrowed columns
  std::shared_ptr<const KdTree> attached_kdtree_;
  std::shared_ptr<const RTree> attached_rtree_;
  int attached_rtree_fanout_ = 0;
  std::shared_ptr<const AttachedScores> attached_scores_;
};

/// Incremental builder with validation.
class UncertainDatasetBuilder {
 public:
  /// Builder for a d-dimensional dataset.
  explicit UncertainDatasetBuilder(int dim) : dim_(dim) {
    ARSP_CHECK(dim >= 1);
  }

  /// Adds one uncertain object given its instances and probabilities.
  /// Returns the object id.
  int AddObject(std::vector<Point> points, std::vector<double> probs);

  /// Convenience: object with a single certain-ish instance.
  int AddSingleton(Point point, double prob) {
    return AddObject({std::move(point)}, {prob});
  }

  /// Validates (dims match, probs in (0,1], per-object sums ≤ 1) and builds.
  StatusOr<UncertainDataset> Build();

 private:
  int dim_;
  std::vector<std::vector<Point>> object_points_;
  std::vector<std::vector<double>> object_probs_;
};

}  // namespace arsp

#endif  // ARSP_UNCERTAIN_UNCERTAIN_DATASET_H_
