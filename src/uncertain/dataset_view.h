// Copyright 2026 The ARSP Authors.
//
// Zero-copy windows over an UncertainDataset. The paper's m% sweeps (Fig. 6)
// and any service serving overlapping sub-queries of one hot dataset need
// "the first m objects" / "this object subset" as a queryable unit; before
// this layer existed the only way to get one was TakeObjects, a deep copy
// that forced every downstream structure (SV(·) mapping, kd-/R-trees) to be
// rebuilt from scratch per subset.
//
// A DatasetView is a cheap immutable handle (shared internal rep, freely
// copyable) describing a window over a base dataset:
//   * full view        — the whole dataset,
//   * prefix view      — the first `m` objects (the Fig. 6 m% case); since
//                        instances are stored contiguously per object, local
//                        instance/object ids coincide with base ids and the
//                        view needs no id tables at all,
//   * subset view      — an arbitrary (sorted) object subset, carrying
//                        remapped local ids plus the base↔local tables.
// Views never duplicate instance payloads (points/probabilities); they hold
// at most integer id tables and a recomputed bounding box.
//
// Id convention: a view exposes *local* ids — objects 0..num_objects()-1 and
// instances 0..num_instances()-1, instances of one object contiguous —
// exactly the contract of a standalone dataset, so solvers run unchanged on
// views. base_instance_id()/base_object_id() translate local → base, and
// LocalInstanceOf() translates base → local (-1 when outside the view),
// which is how shared full-dataset indexes are probed on behalf of a view.

#ifndef ARSP_UNCERTAIN_DATASET_VIEW_H_
#define ARSP_UNCERTAIN_DATASET_VIEW_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/geometry/mbr.h"
#include "src/geometry/point.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Descriptor of which objects of a base dataset a view exposes. Specs are
/// plain values: build one with Full/Prefix/Subset and pass it to
/// DatasetView::Create (or ArspEngine::AddView).
struct ViewSpec {
  enum class Kind { kFull, kPrefix, kSubset };

  Kind kind = Kind::kFull;
  /// Object count for kPrefix.
  int prefix = 0;
  /// Base object ids for kSubset; Subset() sorts and dedups.
  std::vector<int> objects;

  static ViewSpec Full() { return ViewSpec{}; }
  static ViewSpec Prefix(int num_objects);
  static ViewSpec Subset(std::vector<int> object_ids);

  /// Textual encoding ("full" / "prefix:m" / "subset:j1,j2,..."), for
  /// logs, tests, and callers keying their own view registries. Canonical
  /// (equal keys ⇔ equal windows) only after DatasetView::Create has
  /// normalized the spec — hand-built unsorted subset lists encode their
  /// raw order. ArspEngine does NOT use it: engine fingerprints are handle
  /// ids, which identify a view exactly (the spec is pinned at AddView).
  std::string CacheKey() const;
};

/// Immutable zero-copy window over an UncertainDataset. Cheap to copy (the
/// internal rep is shared); default-constructed views are invalid until
/// assigned. The base dataset must outlive the view unless it was created
/// from a shared_ptr (then the view keeps it alive).
class DatasetView {
 public:
  DatasetView() = default;

  /// Full view; non-owning (the base must outlive the view).
  explicit DatasetView(const UncertainDataset& base);

  /// Full view sharing ownership of the base.
  explicit DatasetView(std::shared_ptr<const UncertainDataset> base);

  /// View per `spec`; InvalidArgument on out-of-range prefixes or object
  /// ids. Non-owning.
  static StatusOr<DatasetView> Create(const UncertainDataset& base,
                                      ViewSpec spec);

  /// View per `spec`, sharing ownership of the base.
  static StatusOr<DatasetView> Create(
      std::shared_ptr<const UncertainDataset> base, ViewSpec spec);

  bool valid() const { return rep_ != nullptr; }
  const UncertainDataset& base() const { return *rep_->base; }
  const ViewSpec& spec() const { return rep_->spec; }

  /// True iff the view exposes every object of the base.
  bool is_full() const { return rep_->spec.kind == ViewSpec::Kind::kFull; }
  /// True for full and prefix views: local ids coincide with base ids and
  /// the view's instances are a contiguous base prefix — the property the
  /// zero-copy score-span and index-prefix reuse paths rely on.
  bool is_prefix() const { return rep_->spec.kind != ViewSpec::Kind::kSubset; }

  /// The spec's CacheKey.
  std::string CacheKey() const { return rep_->spec.CacheKey(); }

  int dim() const { return rep_->base->dim(); }
  int num_objects() const { return rep_->num_objects; }
  int num_instances() const { return rep_->num_instances; }

  /// Tight bounding box of the view's instances (recomputed, not the
  /// base's).
  const Mbr& bounds() const { return rep_->bounds; }

  /// [begin, end) local-instance range of local object `j`.
  std::pair<int, int> object_range(int j) const {
    if (is_prefix()) return rep_->base->object_range(j);
    return rep_->object_ranges[static_cast<size_t>(j)];
  }
  int object_size(int j) const {
    const auto [b, e] = object_range(j);
    return e - b;
  }
  double object_prob(int j) const {
    return rep_->base->object_prob(base_object_id(j));
  }
  /// Base object id of local object `j`.
  int base_object_id(int j) const {
    if (is_prefix()) return j;
    return rep_->object_base_ids[static_cast<size_t>(j)];
  }

  /// Raw coordinate row of local instance `i` (dim() contiguous doubles) —
  /// a pointer into the base's columnar storage (this is the zero-copy
  /// part; for a snapshot-loaded base it points into the mmap'ed file).
  const double* coords(int i) const {
    return rep_->base->coords(base_instance_id(i));
  }
  /// Point of local instance `i`, by value (cold paths; allocates — hot
  /// loops read coords()).
  Point point(int i) const {
    return rep_->base->point(base_instance_id(i));
  }
  double prob(int i) const {
    return rep_->base->prob(base_instance_id(i));
  }
  /// Local object id owning local instance `i`.
  int object_of(int i) const {
    if (is_prefix()) return rep_->base->object_of(i);
    return rep_->instance_objects[static_cast<size_t>(i)];
  }
  /// Base instance id of local instance `i`.
  int base_instance_id(int i) const {
    if (is_prefix()) return i;
    return rep_->instance_base_ids[static_cast<size_t>(i)];
  }

  /// Local id of the base instance `base_id`, or -1 when it lies outside
  /// the view. O(1); identity (below the bound) for full/prefix views.
  int LocalInstanceOf(int base_id) const {
    if (is_prefix()) return base_id < rep_->num_instances ? base_id : -1;
    return rep_->local_of_base[static_cast<size_t>(base_id)];
  }

  /// Exclusive upper bound on the base instance ids inside the view: every
  /// member id is < id_bound(). For prefix views this is tight
  /// (num_instances), which lets shared indexes skip whole delta subtrees.
  int id_bound() const { return rep_->id_bound; }

  /// Number of possible worlds of the view (same semantics as
  /// UncertainDataset::NumPossibleWorlds).
  double NumPossibleWorlds() const;

  /// True iff every object in the view has exactly one instance.
  bool single_instance_objects() const;

  /// Deep copy of the view into a standalone dataset — the explicit,
  /// pay-for-it materialization (TakeObjects is implemented with it). Tests
  /// use it to assert view-vs-copy solver equivalence.
  UncertainDataset Materialize() const;

 private:
  struct Rep {
    const UncertainDataset* base = nullptr;
    std::shared_ptr<const UncertainDataset> owner;  // may be null
    ViewSpec spec;
    int num_objects = 0;
    int num_instances = 0;
    int id_bound = 0;
    Mbr bounds;
    // Subset views only (prefix views need no tables):
    std::vector<int> object_base_ids;                // local j -> base j
    std::vector<std::pair<int, int>> object_ranges;  // local ranges
    std::vector<int> instance_base_ids;              // local i -> base i
    std::vector<int> instance_objects;               // local i -> local j
    std::vector<int> local_of_base;                  // base i -> local i | -1
  };

  static StatusOr<DatasetView> CreateImpl(
      const UncertainDataset& base,
      std::shared_ptr<const UncertainDataset> owner, ViewSpec spec);

  explicit DatasetView(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  std::shared_ptr<const Rep> rep_;
};

}  // namespace arsp

#endif  // ARSP_UNCERTAIN_DATASET_VIEW_H_
