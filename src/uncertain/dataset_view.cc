// Copyright 2026 The ARSP Authors.

#include "src/uncertain/dataset_view.h"

#include <string>
#include <vector>

namespace arsp {

namespace {
constexpr double kProbEps = 1e-9;
}  // namespace

DatasetView::DatasetView(const UncertainDataset& base)
    : DatasetView(CreateImpl(base, nullptr, base.num_objects()).value().rep_) {}

DatasetView::DatasetView(std::shared_ptr<const UncertainDataset> base) {
  ARSP_CHECK_MSG(base != nullptr, "DatasetView over a null dataset");
  const UncertainDataset& ref = *base;
  rep_ = CreateImpl(ref, std::move(base), ref.num_objects()).value().rep_;
}

StatusOr<DatasetView> DatasetView::Create(const UncertainDataset& base,
                                          int num_objects) {
  return CreateImpl(base, nullptr, num_objects);
}

StatusOr<DatasetView> DatasetView::Create(
    std::shared_ptr<const UncertainDataset> base, int num_objects) {
  if (base == nullptr) {
    return Status::InvalidArgument("DatasetView over a null dataset");
  }
  const UncertainDataset& ref = *base;
  return CreateImpl(ref, std::move(base), num_objects);
}

StatusOr<DatasetView> DatasetView::CreateImpl(
    const UncertainDataset& base, std::shared_ptr<const UncertainDataset> owner,
    int num_objects) {
  if (num_objects < 0 || num_objects > base.num_objects()) {
    return Status::InvalidArgument(
        "view object count " + std::to_string(num_objects) +
        " out of range [0, " + std::to_string(base.num_objects()) + "]");
  }
  auto rep = std::make_shared<Rep>();
  rep->base = &base;
  rep->owner = std::move(owner);
  rep->num_objects = num_objects;
  if (num_objects == base.num_objects()) {
    rep->num_instances = base.num_instances();
    rep->bounds = base.bounds();
  } else {
    rep->num_instances =
        num_objects == 0 ? 0 : base.object_range(num_objects - 1).second;
    rep->bounds = Mbr::Empty(base.dim());
    for (int i = 0; i < rep->num_instances; ++i) {
      rep->bounds.ExtendRow(base.coords(i));
    }
  }
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
