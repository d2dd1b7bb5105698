// Copyright 2026 The ARSP Authors.

#include "src/uncertain/dataset_view.h"

#include <string>
#include <vector>

namespace arsp {

namespace {
constexpr double kProbEps = 1e-9;
}  // namespace

ViewSpec ViewSpec::Prefix(int num_objects) {
  ViewSpec spec;
  spec.kind = Kind::kPrefix;
  spec.prefix = num_objects;
  return spec;
}

std::string ViewSpec::CacheKey() const {
  switch (kind) {
    case Kind::kFull:
      return "full";
    case Kind::kPrefix:
      return "prefix:" + std::to_string(prefix);
  }
  return "";  // unreachable
}

DatasetView::DatasetView(const UncertainDataset& base)
    : DatasetView(CreateImpl(base, nullptr, ViewSpec::Full()).value().rep_) {}

DatasetView::DatasetView(std::shared_ptr<const UncertainDataset> base) {
  ARSP_CHECK_MSG(base != nullptr, "DatasetView over a null dataset");
  const UncertainDataset& ref = *base;
  rep_ = CreateImpl(ref, std::move(base), ViewSpec::Full()).value().rep_;
}

StatusOr<DatasetView> DatasetView::Create(const UncertainDataset& base,
                                          ViewSpec spec) {
  return CreateImpl(base, nullptr, spec);
}

StatusOr<DatasetView> DatasetView::Create(
    std::shared_ptr<const UncertainDataset> base, ViewSpec spec) {
  if (base == nullptr) {
    return Status::InvalidArgument("DatasetView over a null dataset");
  }
  const UncertainDataset& ref = *base;
  return CreateImpl(ref, std::move(base), spec);
}

StatusOr<DatasetView> DatasetView::CreateImpl(
    const UncertainDataset& base, std::shared_ptr<const UncertainDataset> owner,
    ViewSpec spec) {
  auto rep = std::make_shared<Rep>();
  rep->base = &base;
  rep->owner = std::move(owner);

  switch (spec.kind) {
    case ViewSpec::Kind::kFull:
      rep->num_objects = base.num_objects();
      rep->num_instances = base.num_instances();
      rep->bounds = base.bounds();
      break;

    case ViewSpec::Kind::kPrefix: {
      if (spec.prefix < 0 || spec.prefix > base.num_objects()) {
        return Status::InvalidArgument(
            "view prefix " + std::to_string(spec.prefix) +
            " out of range [0, " + std::to_string(base.num_objects()) + "]");
      }
      rep->num_objects = spec.prefix;
      rep->num_instances =
          spec.prefix == 0 ? 0 : base.object_range(spec.prefix - 1).second;
      rep->bounds = Mbr::Empty(base.dim());
      for (int i = 0; i < rep->num_instances; ++i) {
        rep->bounds.ExtendRow(base.coords(i));
      }
      break;
    }
  }
  rep->spec = spec;
  return DatasetView(std::move(rep));
}

double DatasetView::NumPossibleWorlds() const {
  double worlds = 1.0;
  for (int j = 0; j < num_objects(); ++j) {
    const bool may_be_absent = object_prob(j) < 1.0 - kProbEps;
    worlds *= static_cast<double>(object_size(j) + (may_be_absent ? 1 : 0));
  }
  return worlds;
}

bool DatasetView::single_instance_objects() const {
  for (int j = 0; j < num_objects(); ++j) {
    if (object_size(j) != 1) return false;
  }
  return true;
}

UncertainDataset DatasetView::Materialize() const {
  UncertainDatasetBuilder builder(dim());
  for (int j = 0; j < num_objects(); ++j) {
    const auto [begin, end] = object_range(j);
    std::vector<Point> points;
    std::vector<double> probs;
    points.reserve(static_cast<size_t>(end - begin));
    probs.reserve(static_cast<size_t>(end - begin));
    for (int i = begin; i < end; ++i) {
      points.push_back(point(i));
      probs.push_back(prob(i));
    }
    builder.AddObject(std::move(points), std::move(probs));
  }
  auto out = builder.Build();
  ARSP_CHECK_MSG(out.ok(), "%s", out.status().ToString().c_str());
  return std::move(out).value();
}

}  // namespace arsp
