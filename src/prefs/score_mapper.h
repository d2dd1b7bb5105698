// Copyright 2026 The ARSP Authors.
//
// The score-space mapping SV(t) = (S_{ω1}(t), ..., S_{ωd'}(t)) used by the
// tree-traversal algorithms (§III-B): by Theorem 2, t ≺F s in the original
// space iff SV(t) ⪯ SV(s) (coordinate dominance) in the mapped space, which
// turns ARSP into the classic ASP problem in d' dimensions.
//
// Mapped scores are stored structure-of-arrays (ScoreBuffer): one contiguous
// coordinate array (row-major, d' doubles per instance), one probability
// array, one local-object-id array — both double streams on 64-byte-aligned
// storage (src/common/aligned.h). The §III–§IV hot loops touch exactly
// these three streams, so SoA keeps them dense instead of striding over
// vector-of-struct Instance records, and the SIMD kernel layer
// (src/simd/kernels.h) vectorizes over them. Solvers consume a ScoreSpan —
// a non-owning window — which is how a prefix DatasetView shares its
// parent's buffer with zero copies (the first n rows of the full buffer
// *are* the prefix's buffer, local ids included).
//
// The mapper evaluates SV through the dispatched MapPoint kernel over a
// dimension-major (transposed) copy of the vertex matrix, so the d' dot
// products of one point vectorize across outputs while each output keeps
// the sequential summation order of Point::Dot — AoS (Map), SoA
// (MapView), and every dispatch arch produce bit-identical scores.

#ifndef ARSP_PREFS_SCORE_MAPPER_H_
#define ARSP_PREFS_SCORE_MAPPER_H_

#include <cstdint>
#include <vector>

#include "src/common/aligned.h"
#include "src/common/column.h"
#include "src/geometry/point.h"
#include "src/prefs/preference_region.h"
#include "src/simd/kernels.h"
#include "src/uncertain/dataset_view.h"

namespace arsp {

/// Structure-of-arrays score storage for one DatasetView, in local instance
/// order (row index == local instance id). Each stream is a Column — owned
/// 64-byte-aligned storage when mapped in memory, borrowed spans when served
/// from a snapshot's pre-mapped scores section or, for probs/objects, from
/// the base dataset's own columns (zero copy either way for consumers,
/// which only ever see a ScoreSpan).
struct ScoreBuffer {
  int dim = 0;                  ///< mapped dimensionality d'
  Column<double> coords;        ///< size() * dim, row-major
  Column<double> probs;         ///< instance probabilities
  Column<int32_t> objects;      ///< local object ids

  int size() const { return static_cast<int>(probs.size()); }
  const double* row(int i) const {
    return coords.data() + static_cast<size_t>(i) * static_cast<size_t>(dim);
  }
};

/// Non-owning window over score storage — what solvers iterate. Plain
/// pointers so a span can alias either its context's own buffer or a parent
/// context's (zero-copy prefix reuse).
struct ScoreSpan {
  const double* coords = nullptr;
  const double* probs = nullptr;
  const int* objects = nullptr;
  int n = 0;
  int dim = 0;

  const double* row(int i) const {
    return coords + static_cast<size_t>(i) * static_cast<size_t>(dim);
  }
  double prob(int i) const { return probs[static_cast<size_t>(i)]; }
  int object(int i) const { return objects[static_cast<size_t>(i)]; }

  static ScoreSpan Of(const ScoreBuffer& buffer) {
    return ScoreSpan{buffer.coords.data(), buffer.probs.data(),
                     buffer.objects.data(), buffer.size(), buffer.dim};
  }

  /// The window truncated to its first `count` rows. Exact for prefix views
  /// over the span's view: local ids below `count` are unaffected.
  ScoreSpan Prefix(int count) const {
    ScoreSpan out = *this;
    out.n = count;
    return out;
  }

  /// Compacts rows of this span (scores of `source_view`, addressed by its
  /// local ids) down to `view`'s instances, remapping object ids to
  /// view-local ones. `view` must be contained in `source_view`. Used by
  /// derived subset contexts to reuse an already-mapped parent buffer
  /// (memcpy per row) instead of redoing dot products.
  ScoreBuffer Gather(const DatasetView& source_view,
                     const DatasetView& view) const;
};

/// Maps points from the d-dimensional data space to the d'-dimensional
/// score space spanned by the preference region's vertices.
class ScoreMapper {
 public:
  /// Keeps a reference to the region's vertex set and builds the
  /// dimension-major vertex matrix the MapPoint kernel consumes; the region
  /// must outlive the mapper.
  explicit ScoreMapper(const PreferenceRegion& region)
      : vertices_(&region.vertices()) {
    data_dim_ = vertices_->empty() ? 0 : vertices_->front().dim();
    const size_t dprime = vertices_->size();
    vt_.resize(static_cast<size_t>(data_dim_) * dprime);
    for (int j = 0; j < data_dim_; ++j) {
      for (size_t k = 0; k < dprime; ++k) {
        vt_[static_cast<size_t>(j) * dprime + k] = (*vertices_)[k][j];
      }
    }
  }

  /// Mapped dimensionality d' = |V|.
  int mapped_dim() const { return static_cast<int>(vertices_->size()); }

  /// SV(t) written into `out` (d' doubles) — the SoA row form, evaluated by
  /// the dispatched MapPoint kernel. Map() and MapView() are defined in
  /// terms of this, so AoS and SoA scores are bit-identical.
  void MapInto(const Point& t, double* out) const {
    ARSP_DCHECK(t.dim() == data_dim_ || mapped_dim() == 0);
    simd::Ops().MapPoint(t.coords().data(), data_dim_, vt_.data(),
                         mapped_dim(), out);
  }

  /// Raw-row variant of MapInto for columnar storage: `coords` is data_dim
  /// contiguous doubles. Same kernel, same summation order — bit-identical
  /// to the Point form.
  void MapRowInto(const double* coords, double* out) const {
    simd::Ops().MapPoint(coords, data_dim_, vt_.data(), mapped_dim(), out);
  }

  /// FNV-1a fingerprint of the mapping itself (data dimension, mapped
  /// dimension, and the dimension-major vertex matrix bytes). Two mappers
  /// with equal hashes produce bit-identical scores for equal inputs, which
  /// is how snapshot-attached score sections are matched to a query's
  /// preference region without string plumbing.
  uint64_t VertexHash() const;

  /// SV(t): the i-th output coordinate is the score of t under vertex ω_i.
  /// Writes straight into the returned Point's storage — no temporary
  /// buffer per call.
  Point Map(const Point& t) const {
    Point out(mapped_dim());
    if (mapped_dim() > 0) MapInto(t, &out[0]);
    return out;
  }

  /// Maps every instance of `view` into a SoA buffer (local instance order,
  /// local object ids). For a full or prefix view, probs/objects borrow the
  /// base dataset's columns, so the buffer must not outlive the base; a
  /// subset view's are owned copies.
  ScoreBuffer MapView(const DatasetView& view) const;

 private:
  const std::vector<Point>* vertices_;
  int data_dim_ = 0;
  AlignedVector<double> vt_;  ///< dim-major vertex matrix: vt_[j·d' + k] = ω_k[j]
};

}  // namespace arsp

#endif  // ARSP_PREFS_SCORE_MAPPER_H_
