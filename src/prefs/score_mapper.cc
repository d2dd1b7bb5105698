// Copyright 2026 The ARSP Authors.

#include "src/prefs/score_mapper.h"

#include <cstring>

namespace arsp {

ScoreBuffer ScoreSpan::Gather(const DatasetView& source_view,
                              const DatasetView& view) const {
  ScoreBuffer out;
  out.dim = dim;
  const int count = view.num_instances();
  out.coords.resize(static_cast<size_t>(count) * static_cast<size_t>(dim));
  out.probs.resize(static_cast<size_t>(count));
  out.objects.resize(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int source = source_view.LocalInstanceOf(view.base_instance_id(i));
    ARSP_CHECK_MSG(source >= 0 && source < n,
                   "Gather: view instance %d is outside the source span", i);
    std::memcpy(out.coords.mutable_data() +
                    static_cast<size_t>(i) * static_cast<size_t>(dim),
                row(source), sizeof(double) * static_cast<size_t>(dim));
    out.probs.at_mut(static_cast<size_t>(i)) = prob(source);
    out.objects.at_mut(static_cast<size_t>(i)) = view.object_of(i);
  }
  return out;
}

ScoreBuffer ScoreMapper::MapView(const DatasetView& view) const {
  ScoreBuffer out;
  out.dim = mapped_dim();
  const int n = view.num_instances();
  const size_t rows = static_cast<size_t>(n);
  out.coords.resize(rows * static_cast<size_t>(out.dim));
  double* coords = out.coords.mutable_data();
  for (int i = 0; i < n; ++i) {
    MapRowInto(view.coords(i), coords + static_cast<size_t>(i) *
                                            static_cast<size_t>(out.dim));
  }
  if (view.is_prefix()) {
    // Local ids are base ids here, so the base's first n probabilities and
    // object ids already are these streams.
    const UncertainDataset& base = view.base();
    out.probs = Column<double>::Borrowed(base.probs_column().data(), rows);
    out.objects = Column<int32_t>::Borrowed(
        base.instance_objects_column().data(), rows);
    return out;
  }
  out.probs.resize(rows);
  out.objects.resize(rows);
  for (int i = 0; i < n; ++i) {
    out.probs.at_mut(static_cast<size_t>(i)) = view.prob(i);
    out.objects.at_mut(static_cast<size_t>(i)) = view.object_of(i);
  }
  return out;
}

uint64_t ScoreMapper::VertexHash() const {
  // FNV-1a over (data_dim, mapped_dim, vt bytes). The dimension-major
  // matrix is a canonical encoding of the vertex set, so equal regions hash
  // equal regardless of how they were constructed.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  const int32_t dims[2] = {static_cast<int32_t>(data_dim_),
                           static_cast<int32_t>(mapped_dim())};
  mix(dims, sizeof(dims));
  mix(vt_.data(), vt_.size() * sizeof(double));
  return h;
}

}  // namespace arsp
