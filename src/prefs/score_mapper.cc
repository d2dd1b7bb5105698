// Copyright 2026 The ARSP Authors.

#include "src/prefs/score_mapper.h"

namespace arsp {

ScoreBuffer ScoreMapper::MapView(const DatasetView& view) const {
  ScoreBuffer out;
  out.dim = mapped_dim();
  const int n = view.num_instances();
  out.coords.resize(static_cast<size_t>(n) * static_cast<size_t>(out.dim));
  double* coords = out.coords.mutable_data();
  for (int i = 0; i < n; ++i) {
    MapRowInto(view.coords(i), coords + static_cast<size_t>(i) *
                                            static_cast<size_t>(out.dim));
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
