// Copyright 2026 The ARSP Authors.
//
// Zero-copy windows over an UncertainDataset. The paper's m% sweeps (Fig. 6)
// query "the first m objects" of one dataset as a unit; before this layer
// existed the only way to get one was TakeObjects, a deep copy that forced
// every downstream structure (SV(·) mapping, kd-/R-trees) to be rebuilt
// from scratch per prefix.
//
// A DatasetView is a cheap immutable handle (shared internal rep, freely
// copyable) over a base dataset:
//   * full view   — the whole dataset,
//   * prefix view — the first `m` objects (the Fig. 6 m% case).
// Instances are stored contiguously per object, so a view's instances are
// the base's first num_instances() instances and its ids are the base's
// ids: objects 0..num_objects()-1 and instances 0..num_instances()-1,
// instances of one object contiguous — exactly the contract of a standalone
// dataset, so solvers run unchanged on views. A view holds no id table and
// never duplicates instance payloads (points/probabilities), only a
// recomputed bounding box. An index built over the whole base serves every
// view as is: its entries with id < num_instances() are the view's.

#ifndef ARSP_UNCERTAIN_DATASET_VIEW_H_
#define ARSP_UNCERTAIN_DATASET_VIEW_H_

#include <memory>
#include <string>
#include <utility>

#include "src/common/status.h"
#include "src/geometry/mbr.h"
#include "src/geometry/point.h"
#include "src/uncertain/uncertain_dataset.h"

namespace arsp {

/// Descriptor of which objects of a base dataset a view exposes. Specs are
/// plain values: build one with Full/Prefix and pass it to
/// DatasetView::Create (or ArspEngine::AddView).
struct ViewSpec {
  enum class Kind { kFull, kPrefix };

  Kind kind = Kind::kFull;
  /// Object count for kPrefix.
  int prefix = 0;

  static ViewSpec Full() { return ViewSpec{}; }
  static ViewSpec Prefix(int num_objects);

  /// Textual encoding ("full" / "prefix:m"), for logs, tests, and callers
  /// keying their own view registries. ArspEngine does NOT use it: engine
  /// fingerprints are handle ids, which identify a view exactly (the spec
  /// is pinned at AddView).
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

  /// View per `spec`; InvalidArgument on out-of-range prefixes. Non-owning.
  static StatusOr<DatasetView> Create(const UncertainDataset& base,
                                      ViewSpec spec);

  /// View per `spec`, sharing ownership of the base.
  static StatusOr<DatasetView> Create(
      std::shared_ptr<const UncertainDataset> base, ViewSpec spec);

  bool valid() const { return rep_ != nullptr; }
  const UncertainDataset& base() const { return *rep_->base; }

  /// True iff the view was built as the full view of its base.
  bool is_full() const { return rep_->spec.kind == ViewSpec::Kind::kFull; }

  /// The spec's CacheKey.
  std::string CacheKey() const { return rep_->spec.CacheKey(); }

  int dim() const { return rep_->base->dim(); }
  int num_objects() const { return rep_->num_objects; }
  int num_instances() const { return rep_->num_instances; }

  /// Tight bounding box of the view's instances (recomputed, not the
  /// base's).
  const Mbr& bounds() const { return rep_->bounds; }

  /// [begin, end) instance range of object `j`.
  std::pair<int, int> object_range(int j) const {
    return rep_->base->object_range(j);
  }
  int object_size(int j) const {
    const auto [b, e] = object_range(j);
    return e - b;
  }
  double object_prob(int j) const { return rep_->base->object_prob(j); }

  /// Raw coordinate row of instance `i` (dim() contiguous doubles) — a
  /// pointer into the base's columnar storage (this is the zero-copy part;
  /// for a snapshot-loaded base it points into the mmap'ed file).
  const double* coords(int i) const { return rep_->base->coords(i); }
  /// Point of instance `i`, by value (cold paths; allocates — hot loops
  /// read coords()).
  Point point(int i) const { return rep_->base->point(i); }
  double prob(int i) const { return rep_->base->prob(i); }
  /// Object id owning instance `i`.
  int object_of(int i) const { return rep_->base->object_of(i); }

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
    Mbr bounds;
  };

  static StatusOr<DatasetView> CreateImpl(
      const UncertainDataset& base,
      std::shared_ptr<const UncertainDataset> owner, ViewSpec spec);

  explicit DatasetView(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  std::shared_ptr<const Rep> rep_;
};

}  // namespace arsp

#endif  // ARSP_UNCERTAIN_DATASET_VIEW_H_
