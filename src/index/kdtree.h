// Copyright 2026 The ARSP Authors.
//
// Static kd-tree over weighted, id-tagged points. Serves two roles:
//  * half-space reporting restricted to a box (the practical substitute
//    for Meiser point location in the DUAL algorithm, §IV-A),
//  * emptiness tests for the eclipse DUAL-S algorithm.
//
// The tree is built once over a point set (median splits) and is immutable;
// incremental indexing is the R-tree's job.
//
// Storage is arena-flattened structure-of-arrays: item coordinates, weights,
// and ids live in three contiguous columns (build order), and nodes are one
// POD column plus a raw bounds column (min row then max row per node) —
// int32 child indices, no per-node heap allocations. Every column is a
// Column<T>, so a tree either owns its arenas (in-memory build) or borrows
// them from an mmap'ed snapshot section (src/io/snapshot.h) with zero parse
// and zero copy; probes are identical either way.

#ifndef ARSP_INDEX_KDTREE_H_
#define ARSP_INDEX_KDTREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/column.h"
#include "src/common/status.h"
#include "src/geometry/hyperplane.h"
#include "src/geometry/mbr.h"
#include "src/geometry/point.h"

namespace arsp {

class DatasetView;

/// A point with an integer payload id and a weight (existence probability
/// for uncertain instances; 1.0 for certain data). Construction-side value
/// type; the tree stores columns, not KdItems.
struct KdItem {
  Point point;
  int id = 0;
  double weight = 1.0;
};

/// Flattened kd-tree node: child indexes instead of pointers, item range for
/// leaves, the subtree's minimum id. Bounds live in the parallel bounds
/// column (2 · dim doubles per node). POD of five int32s with no padding,
/// so a node pool serializes as one flat snapshot section.
struct KdNode {
  int32_t left = -1;    ///< child node indexes; -1 for leaves
  int32_t right = -1;
  int32_t begin = 0;    ///< item range [begin, end) for leaves
  int32_t end = 0;
  int32_t min_id = 0;   ///< minimum item id in the subtree (prefix pruning)
  bool is_leaf() const { return left < 0; }
};
static_assert(sizeof(KdNode) == 20, "KdNode must have a fixed 20-byte layout");

/// Immutable kd-tree.
///
/// Prefix reuse: every node tracks the minimum item id in its subtree, and
/// the reporting probes accept an `id_bound` that skips items with
/// id >= bound — subtrees consisting entirely of such items are pruned
/// wholesale. A tree built over a full dataset (ids = instance ids)
/// therefore serves every object-prefix DatasetView exactly, with no
/// per-prefix rebuild: the prefix's num_instances() is the bound.
class KdTree {
 public:
  /// FromFlat's depth limit. Median splits halve the items at every
  /// level, so the builder needs at most 32 levels for an int32 count.
  static constexpr int kMaxFlatDepth = 64;

  /// What a reporting probe hands its callback: a raw coordinate row into
  /// the item arena plus the item's id and weight.
  struct EntryRef {
    const double* coords;
    int id;
    double weight;
  };

  /// Builds the tree over `items` (may be empty). `leaf_size` bounds the
  /// bucket size at leaves.
  explicit KdTree(const std::vector<KdItem>& items, int leaf_size = 16);

  /// Builds over the instances of a DatasetView; item ids are instance ids,
  /// as in a tree shared from the base.
  static KdTree FromView(const DatasetView& view, int leaf_size = 16);

  /// Adopts already-built arenas (the snapshot mmap-load path).
  /// InvalidArgument unless the columns have the shape this class's builder
  /// produces: matching arena sizes, and a pre-order node tree at most
  /// kMaxFlatDepth deep whose item windows lie inside the arenas.
  /// Contents (coordinates, weights, ids, bounds) are trusted; the snapshot
  /// layer owns checksumming and checks the ids.
  static StatusOr<KdTree> FromFlat(int dim, Column<double> item_coords,
                                   Column<double> item_weights,
                                   Column<int32_t> item_ids,
                                   Column<KdNode> nodes,
                                   Column<double> node_bounds);

  int size() const { return static_cast<int>(item_ids_.size()); }
  int dim() const { return dim_; }

  /// Tight bounding box of the indexed points (empty box if size()==0).
  const Mbr& root_mbr() const { return root_mbr_; }

  // Raw arena access (snapshot writer, benches, tests).
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Column<double>& item_coords_column() const { return item_coords_; }
  const Column<double>& item_weights_column() const { return item_weights_; }
  const Column<int32_t>& item_ids_column() const { return item_ids_; }
  const Column<KdNode>& nodes_column() const { return nodes_; }
  const Column<double>& node_bounds_column() const { return node_bounds_; }

  /// Resident vs. mapped bytes across all arenas.
  ColumnBytes memory_bytes() const;

  /// Invokes `fn(EntryRef)` for every point inside `box` that lies below or
  /// on the hyperplane `hp` (vertical tolerance eps).
  template <typename Fn>
  void ForEachInBoxBelow(const Mbr& box, const Hyperplane& hp, double eps,
                         Fn&& fn) const {
    ForEachInBoxBelow(box, hp, eps, kNoIdBound, std::forward<Fn>(fn));
  }

  /// Prefix-reuse variant: items with id >= id_bound are skipped, and
  /// subtrees whose minimum id is >= id_bound are pruned without descent.
  template <typename Fn>
  void ForEachInBoxBelow(const Mbr& box, const Hyperplane& hp, double eps,
                         int id_bound, Fn&& fn) const {
    if (nodes_.empty()) return;
    VisitBoxBelow<Fn>(0, box, hp, eps, id_bound, fn);
  }

  /// True iff some point with id != exclude_id lies inside `box` and below
  /// or on `hp`. Used by eclipse DUAL-S emptiness probes.
  bool ExistsInBoxBelow(const Mbr& box, const Hyperplane& hp, double eps,
                        int exclude_id) const;

 private:
  static constexpr int kNoIdBound = 2147483647;  // INT_MAX

  KdTree() = default;

  /// Runs the median-split build over staging arrays via an index
  /// permutation, then gathers the arenas into final (build) order.
  void BuildFrom(const double* coords, const double* weights,
                 const int32_t* ids, int n, int leaf_size);
  int Build(int begin, int end, int leaf_size, const double* coords,
            const int32_t* ids, int32_t* perm);

  const double* item_row(int i) const {
    return item_coords_.data() +
           static_cast<size_t>(i) * static_cast<size_t>(dim_);
  }
  const double* node_lo(int node_idx) const {
    return node_bounds_.data() +
           static_cast<size_t>(node_idx) * 2 * static_cast<size_t>(dim_);
  }
  const double* node_hi(int node_idx) const { return node_lo(node_idx) + dim_; }

  bool BoxIntersectsNode(const Mbr& box, int node_idx) const {
    const double* lo = node_lo(node_idx);
    const double* hi = node_hi(node_idx);
    for (int i = 0; i < dim_; ++i) {
      if (hi[i] < box.min_corner()[i] || lo[i] > box.max_corner()[i]) {
        return false;
      }
    }
    return true;
  }

  // Minimum of hp.SignedDistance over the node's bounds.
  double MinSignedDistance(int node_idx, const Hyperplane& hp) const;

  EntryRef ItemRef(int i) const {
    return EntryRef{item_row(i), item_ids_[static_cast<size_t>(i)],
                    item_weights_[static_cast<size_t>(i)]};
  }

  template <typename Fn>
  void VisitBoxBelow(int node_idx, const Mbr& box, const Hyperplane& hp,
                     double eps, int id_bound, Fn& fn) const {
    const KdNode& node = nodes_[static_cast<size_t>(node_idx)];
    if (node.min_id >= id_bound) return;  // subtree is all out-of-prefix
    if (!BoxIntersectsNode(box, node_idx)) return;
    if (MinSignedDistance(node_idx, hp) > eps) return;  // fully above
    if (node.is_leaf()) {
      for (int i = node.begin; i < node.end; ++i) {
        if (item_ids_[static_cast<size_t>(i)] >= id_bound) continue;
        const double* row = item_row(i);
        if (box.ContainsRow(row) && hp.SignedDistanceRow(row) <= eps) {
          fn(ItemRef(i));
        }
      }
      return;
    }
    VisitBoxBelow(node.left, box, hp, eps, id_bound, fn);
    VisitBoxBelow(node.right, box, hp, eps, id_bound, fn);
  }

  bool ExistsRec(int node_idx, const Mbr& box, const Hyperplane& hp,
                 double eps, int exclude_id) const;

  int dim_ = 0;
  Column<double> item_coords_;    ///< size() × dim, row-major, build order
  Column<double> item_weights_;   ///< size()
  Column<int32_t> item_ids_;      ///< size()
  Column<KdNode> nodes_;          ///< node pool, preorder
  Column<double> node_bounds_;    ///< num_nodes × 2·dim (min row, max row)
  Mbr root_mbr_ = Mbr::Empty(0);
};

}  // namespace arsp

#endif  // ARSP_INDEX_KDTREE_H_
