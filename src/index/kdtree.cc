// Copyright 2026 The ARSP Authors.

#include "src/index/kdtree.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "src/common/aligned.h"
#include "src/uncertain/dataset_view.h"

namespace arsp {

KdTree KdTree::FromView(const DatasetView& view, int leaf_size) {
  KdTree tree;
  tree.dim_ = view.dim();
  tree.root_mbr_ = Mbr::Empty(tree.dim_);
  const int n = view.num_instances();
  if (n == 0) return tree;
  // A view's instances are the base's first n, so the builder reads the
  // base's columnar storage in place — no staging copy of the coordinate
  // or probability streams (peak build memory stays at ~1× the final
  // arenas).
  AlignedVector<int32_t> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  tree.BuildFrom(view.coords(0), view.base().probs_column().data(),
                 ids.data(), n, leaf_size);
  return tree;
}

KdTree::KdTree(const std::vector<KdItem>& items, int leaf_size) {
  dim_ = items.empty() ? 0 : items.front().point.dim();
  root_mbr_ = Mbr::Empty(dim_);
  ARSP_CHECK(leaf_size >= 1);
  for (const KdItem& item : items) ARSP_CHECK(item.point.dim() == dim_);
  const int n = static_cast<int>(items.size());
  if (n == 0) return;
  AlignedVector<double> coords(static_cast<size_t>(n) *
                               static_cast<size_t>(dim_));
  AlignedVector<double> weights(static_cast<size_t>(n));
  AlignedVector<int32_t> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Point& p = items[static_cast<size_t>(i)].point;
    std::copy(p.coords().begin(), p.coords().end(),
              coords.begin() +
                  static_cast<size_t>(i) * static_cast<size_t>(dim_));
    weights[static_cast<size_t>(i)] = items[static_cast<size_t>(i)].weight;
    ids[static_cast<size_t>(i)] = items[static_cast<size_t>(i)].id;
  }
  BuildFrom(coords.data(), weights.data(), ids.data(), n, leaf_size);
}

StatusOr<KdTree> KdTree::FromFlat(int dim, Column<double> item_coords,
                                  Column<double> item_weights,
                                  Column<int32_t> item_ids,
                                  Column<KdNode> nodes,
                                  Column<double> node_bounds) {
  const auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("kd-tree " + what);
  };
  const size_t n = item_ids.size();
  if (dim < 1 || item_weights.size() != n ||
      item_coords.size() != n * static_cast<size_t>(dim)) {
    return invalid("flat arenas disagree on the item count");
  }
  if (node_bounds.size() != nodes.size() * 2 * static_cast<size_t>(dim)) {
    return invalid("node bounds column does not match the node pool");
  }
  if (n > 0 && nodes.empty()) return invalid("with items has no node pool");
  // The probes recurse from node 0 through child indexes unchecked, so the
  // pool must have the builder's shape: a tree in pre-order (each child
  // after its parent, and no node with two parents) no deeper than
  // kMaxFlatDepth, whose leaves window the item arenas.
  std::vector<uint8_t> depth(nodes.size(), 0);  // 0 = no parent yet
  if (!nodes.empty()) depth[0] = 1;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const KdNode& node = nodes[i];
    const auto bad_node = [&invalid, i](const char* what) {
      return invalid("node " + std::to_string(i) + " " + what);
    };
    if (depth[i] == 0) return bad_node("has no parent");
    if (node.begin < 0 || node.end < node.begin ||
        static_cast<size_t>(node.end) > n) {
      return bad_node("has an out-of-range item window");
    }
    if (node.is_leaf()) continue;
    if (depth[i] >= kMaxFlatDepth) return bad_node("is too deep");
    for (const int32_t child : {node.left, node.right}) {
      if (child < 0 || static_cast<size_t>(child) <= i ||
          static_cast<size_t>(child) >= nodes.size() || depth[child] != 0) {
        return bad_node("has an invalid child index");
      }
      depth[child] = static_cast<uint8_t>(depth[i] + 1);
    }
  }
  KdTree tree;
  tree.dim_ = dim;
  tree.item_coords_ = std::move(item_coords);
  tree.item_weights_ = std::move(item_weights);
  tree.item_ids_ = std::move(item_ids);
  tree.nodes_ = std::move(nodes);
  tree.node_bounds_ = std::move(node_bounds);
  tree.root_mbr_ = Mbr::Empty(dim);
  if (!tree.nodes_.empty()) {
    tree.root_mbr_.ExtendRow(tree.node_lo(0));
    tree.root_mbr_.ExtendRow(tree.node_hi(0));
  }
  return tree;
}

ColumnBytes KdTree::memory_bytes() const {
  ColumnBytes bytes;
  bytes.Add(item_coords_);
  bytes.Add(item_weights_);
  bytes.Add(item_ids_);
  bytes.Add(nodes_);
  bytes.Add(node_bounds_);
  return bytes;
}

void KdTree::BuildFrom(const double* coords, const double* weights,
                       const int32_t* ids, int n, int leaf_size) {
  ARSP_CHECK(leaf_size >= 1);
  // Median-split over an index permutation: the staging arrays are read in
  // place (never moved), so build peak memory is the permutation plus the
  // final arenas. nth_element over indices performs the exact comparison
  // sequence nth_element over records would, so the resulting layout — and
  // therefore every aggregate accumulation order — is unchanged.
  AlignedVector<int32_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  const size_t node_estimate =
      2 * static_cast<size_t>(n) / static_cast<size_t>(leaf_size) + 2;
  nodes_.reserve(node_estimate);
  node_bounds_.reserve(node_estimate * 2 * static_cast<size_t>(dim_));
  Build(0, n, leaf_size, coords, ids, perm.data());

  // Gather the arenas into build (permutation) order.
  item_coords_.resize(static_cast<size_t>(n) * static_cast<size_t>(dim_));
  item_weights_.resize(static_cast<size_t>(n));
  item_ids_.resize(static_cast<size_t>(n));
  double* out_coords = item_coords_.mutable_data();
  double* out_weights = item_weights_.mutable_data();
  int32_t* out_ids = item_ids_.mutable_data();
  for (int pos = 0; pos < n; ++pos) {
    const int32_t src = perm[static_cast<size_t>(pos)];
    std::copy(coords + static_cast<size_t>(src) * static_cast<size_t>(dim_),
              coords + static_cast<size_t>(src + 1) * static_cast<size_t>(dim_),
              out_coords + static_cast<size_t>(pos) * static_cast<size_t>(dim_));
    out_weights[pos] = weights[src];
    out_ids[pos] = ids[src];
  }
  if (!nodes_.empty()) {
    root_mbr_ = Mbr::Empty(dim_);
    root_mbr_.ExtendRow(node_lo(0));
    root_mbr_.ExtendRow(node_hi(0));
  }
}

int KdTree::Build(int begin, int end, int leaf_size, const double* coords,
                  const int32_t* ids, int32_t* perm) {
  const int node_idx = static_cast<int>(nodes_.size());
  nodes_.push_back(KdNode{});
  node_bounds_.resize(node_bounds_.size() + 2 * static_cast<size_t>(dim_));
  {
    KdNode& node = nodes_.mutable_data()[node_idx];
    node.begin = begin;
    node.end = end;
    double* lo = node_bounds_.mutable_data() +
                 static_cast<size_t>(node_idx) * 2 * static_cast<size_t>(dim_);
    double* hi = lo + dim_;
    for (int k = 0; k < dim_; ++k) {
      lo[k] = std::numeric_limits<double>::infinity();
      hi[k] = -std::numeric_limits<double>::infinity();
    }
    int32_t min_id = kNoIdBound;
    for (int i = begin; i < end; ++i) {
      const int32_t src = perm[i];
      const double* row =
          coords + static_cast<size_t>(src) * static_cast<size_t>(dim_);
      for (int k = 0; k < dim_; ++k) {
        lo[k] = std::min(lo[k], row[k]);
        hi[k] = std::max(hi[k], row[k]);
      }
      min_id = std::min(min_id, ids[src]);
    }
    node.min_id = min_id;
  }
  if (end - begin <= leaf_size) return node_idx;

  // Split on the widest dimension at the median.
  int split_dim = 0;
  double widest = -1.0;
  {
    const double* lo = node_lo(node_idx);
    const double* hi = node_hi(node_idx);
    for (int i = 0; i < dim_; ++i) {
      const double extent = hi[i] - lo[i];
      if (extent > widest) {
        widest = extent;
        split_dim = i;
      }
    }
  }
  const int mid = begin + (end - begin) / 2;
  const size_t sdim = static_cast<size_t>(split_dim);
  const size_t d = static_cast<size_t>(dim_);
  std::nth_element(perm + begin, perm + mid, perm + end,
                   [coords, sdim, d](int32_t a, int32_t b) {
                     return coords[static_cast<size_t>(a) * d + sdim] <
                            coords[static_cast<size_t>(b) * d + sdim];
                   });
  // Degenerate case: all points identical in split_dim; bucket them.
  if (coords[static_cast<size_t>(perm[begin]) * d + sdim] ==
      coords[static_cast<size_t>(perm[end - 1]) * d + sdim]) {
    return node_idx;
  }
  const int left = Build(begin, mid, leaf_size, coords, ids, perm);
  const int right = Build(mid, end, leaf_size, coords, ids, perm);
  nodes_.mutable_data()[node_idx].left = left;
  nodes_.mutable_data()[node_idx].right = right;
  return node_idx;
}

double KdTree::MinSignedDistance(int node_idx, const Hyperplane& hp) const {
  // SignedDistance(p) = p[d-1] - Σ coef_i p_i + offset is linear, so its
  // extremum over a box sits at a corner chosen per-coordinate by sign.
  const int d = hp.dim();
  const double* lo = node_lo(node_idx);
  const double* hi = node_hi(node_idx);
  double v = lo[d - 1] + hp.offset();
  for (int i = 0; i < d - 1; ++i) {
    const double c = hp.coef()[static_cast<size_t>(i)];
    v -= c * (c >= 0.0 ? hi[i] : lo[i]);
  }
  return v;
}

bool KdTree::ExistsInBoxBelow(const Mbr& box, const Hyperplane& hp, double eps,
                              int exclude_id) const {
  if (nodes_.empty()) return false;
  return ExistsRec(0, box, hp, eps, exclude_id);
}

bool KdTree::ExistsRec(int node_idx, const Mbr& box, const Hyperplane& hp,
                       double eps, int exclude_id) const {
  const KdNode& node = nodes_[static_cast<size_t>(node_idx)];
  if (!BoxIntersectsNode(box, node_idx)) return false;
  if (MinSignedDistance(node_idx, hp) > eps) return false;
  if (node.is_leaf()) {
    for (int i = node.begin; i < node.end; ++i) {
      if (item_ids_[static_cast<size_t>(i)] == exclude_id) continue;
      const double* row = item_row(i);
      if (box.ContainsRow(row) && hp.SignedDistanceRow(row) <= eps) {
        return true;
      }
    }
    return false;
  }
  return ExistsRec(node.left, box, hp, eps, exclude_id) ||
         ExistsRec(node.right, box, hp, eps, exclude_id);
}

}  // namespace arsp
