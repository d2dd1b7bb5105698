// Copyright 2026 The ARSP Authors.
//
// Guttman R-tree over weighted points with per-node weight aggregation.
// Two roles in the paper's Algorithm 2 (B&B):
//  * a bulk-loaded (STR) tree over all instances I, traversed best-first;
//  * one incrementally grown "aggregated R-tree" per uncertain object,
//    answering window-sum queries Σ p(s) over dominance boxes [origin, q].
//
// Storage is arena-flattened: nodes are one POD column (int32 kid slots in
// a parallel column, no per-node heap allocations, no pointers) and leaf
// entries are three SoA columns in leaf order. Traversals — including
// B&B's external best-first walk — address nodes and entries by int32 id.
// Every column is a Column<T>: owned for in-memory builds (which stay
// insertable), borrowed for snapshot mmap-loads (immutable, zero-copy).

#ifndef ARSP_INDEX_RTREE_H_
#define ARSP_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "src/common/column.h"
#include "src/common/status.h"
#include "src/geometry/mbr.h"
#include "src/geometry/point.h"

namespace arsp {

class DatasetView;

/// Flattened R-tree node: subtree aggregates plus a fixed-capacity kid slot
/// window in the kids column (child node ids for internal nodes, entry ids
/// for leaves). Bounds live in the parallel bounds column (2 · dim doubles
/// per node). POD with an explicit 24-byte layout so the node pool
/// serializes as one flat snapshot section.
struct RtNode {
  double weight_sum = 0.0;
  int32_t min_id = 2147483647;  ///< INT_MAX; minimum entry id in the subtree
  int32_t count = 0;            ///< live kids in the slot window
  int32_t leaf = 1;             ///< 1 for leaves, 0 for internal nodes
  int32_t pad = 0;              ///< explicit padding; keeps file layout exact
};
static_assert(sizeof(RtNode) == 24, "RtNode must have a fixed 24-byte layout");

/// Dynamic R-tree (quadratic-split insertion, STR bulk load) storing points
/// with an id and a weight; internal nodes cache subtree weight sums and the
/// minimum entry id of their subtree. The min-id aggregate is the prefix-
/// reuse hook: a traversal serving an object-prefix DatasetView skips any
/// subtree with node_min_id() >= the view's id_bound() — the whole subtree
/// is delta data the prefix has not reached — so one bulk load over the full
/// dataset serves every prefix without rebuilding.
class RTree {
 public:
  /// A point stored at a leaf (construction-side value type; the tree
  /// stores columns).
  struct LeafEntry {
    Point point;
    double weight = 1.0;
    int id = 0;
  };

  /// The fan-outs (`max_entries`) callers may configure. Quadratic split
  /// needs at least kMinFanout entries per node. Every node reserves
  /// max_entries + 1 kid slots, so kMaxFanout keeps a configured value from
  /// asking for gigabytes.
  static constexpr int kMinFanout = 4;
  static constexpr int kMaxFanout = 1024;

  /// FromFlat's depth limit. An STR bulk load (what snapshots store) of an
  /// int32 entry count at fan-out kMinFanout needs at most 17 levels.
  static constexpr int kMaxFlatDepth = 64;

  /// Empty tree over R^dim. `max_entries` bounds node fan-out and is at
  /// least kMinFanout.
  explicit RTree(int dim, int max_entries = 16);

  /// Sort-Tile-Recursive bulk load; much better node quality than repeated
  /// insertion for static data.
  static RTree BulkLoad(int dim, std::vector<LeafEntry> entries,
                        int max_entries = 16);

  /// Bulk load over the instances of a DatasetView; entry ids are *base*
  /// instance ids, matching the id convention of shared full-dataset trees
  /// (probe hits translate through view.LocalInstanceOf either way). Reads
  /// the view's columnar storage in place and sorts an index permutation —
  /// peak memory is one int32 per instance over the final arenas, not a
  /// second copy of every instance.
  static RTree BulkLoadFromView(const DatasetView& view, int max_entries = 16);

  /// Adopts already-built arenas (the snapshot mmap-load path).
  /// InvalidArgument unless `dim` >= 1, `max_entries` is in [kMinFanout,
  /// kMaxFanout], the arena sizes match, and the nodes reachable from
  /// `root_id` form a tree at most kMaxFlatDepth deep whose kid ids lie
  /// inside the node pool (internal nodes) or the entry arenas (leaves).
  /// Contents (coordinates, weights, ids, bounds, aggregates) are trusted;
  /// the snapshot layer owns checksumming and checks the ids. Borrowed
  /// trees are immutable: Insert CHECK-fails.
  static StatusOr<RTree> FromFlat(int dim, int max_entries, int root_id,
                                  int size, Column<RtNode> nodes,
                                  Column<double> node_bounds,
                                  Column<int32_t> node_kids,
                                  Column<double> entry_coords,
                                  Column<double> entry_weights,
                                  Column<int32_t> entry_ids);

  int dim() const { return dim_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int max_entries() const { return max_entries_; }

  // ------------------------------------------------------ flat traversal
  // Nodes and entries are addressed by int32 id; B&B walks the tree with
  // its own priority queue through these accessors.

  /// Root node id; -1 when the tree is empty.
  int root_id() const { return root_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  bool node_is_leaf(int id) const {
    return nodes_[static_cast<size_t>(id)].leaf != 0;
  }
  double node_weight_sum(int id) const {
    return nodes_[static_cast<size_t>(id)].weight_sum;
  }
  /// Minimum entry id in the subtree (INT_MAX for an empty node); lets
  /// prefix-view traversals prune all-delta subtrees without descent.
  int node_min_id(int id) const {
    return nodes_[static_cast<size_t>(id)].min_id;
  }
  int node_count(int id) const { return nodes_[static_cast<size_t>(id)].count; }
  /// k-th kid of the node: a child node id (internal) or entry id (leaf).
  int node_kid(int id, int k) const {
    return node_kids_[static_cast<size_t>(id) * static_cast<size_t>(cap_) +
                      static_cast<size_t>(k)];
  }
  /// Lower / upper corner rows of the node's bounds (dim doubles each).
  const double* node_lo(int id) const {
    return node_bounds_.data() +
           static_cast<size_t>(id) * 2 * static_cast<size_t>(dim_);
  }
  const double* node_hi(int id) const { return node_lo(id) + dim_; }
  /// Node bounds as an Mbr, by value (cold paths and tests).
  Mbr node_mbr(int id) const;

  const double* entry_coords(int e) const {
    return entry_coords_.data() +
           static_cast<size_t>(e) * static_cast<size_t>(dim_);
  }
  double entry_weight(int e) const {
    return entry_weights_[static_cast<size_t>(e)];
  }
  int entry_id(int e) const { return entry_ids_[static_cast<size_t>(e)]; }

  // Raw arena access (snapshot writer, footprint stats).
  const Column<RtNode>& nodes_column() const { return nodes_; }
  const Column<double>& node_bounds_column() const { return node_bounds_; }
  const Column<int32_t>& node_kids_column() const { return node_kids_; }
  const Column<double>& entry_coords_column() const { return entry_coords_; }
  const Column<double>& entry_weights_column() const { return entry_weights_; }
  const Column<int32_t>& entry_ids_column() const { return entry_ids_; }

  /// Resident vs. mapped bytes across all arenas.
  ColumnBytes memory_bytes() const;

  /// Inserts a point (Guttman: least-enlargement descent, quadratic split).
  /// Only valid on owned (in-memory) trees; snapshot-borrowed trees are
  /// immutable.
  void Insert(const Point& point, double weight, int id);

  /// Sum of weights of points inside `box` (inclusive bounds), using node
  /// aggregates for fully covered subtrees.
  double WindowSum(const Mbr& box) const;

 private:
  RTree() = default;

  /// Allocates a node (bounds reset to empty) and returns its id.
  int AllocNode(bool leaf);
  int AppendEntryRow(const double* coords, double weight, int id);
  void RecomputeNode(int id);
  void InsertRec(int id, int entry, int* split_out);
  void SplitNode(int id, int* split_out);
  double WindowSumRec(int id, const Mbr& box) const;

  bool BoxIntersectsNode(const Mbr& box, int id) const {
    const double* lo = node_lo(id);
    const double* hi = node_hi(id);
    for (int i = 0; i < dim_; ++i) {
      if (hi[i] < box.min_corner()[i] || lo[i] > box.max_corner()[i]) {
        return false;
      }
    }
    return true;
  }
  bool BoxContainsNode(const Mbr& box, int id) const {
    const double* lo = node_lo(id);
    const double* hi = node_hi(id);
    for (int i = 0; i < dim_; ++i) {
      if (lo[i] < box.min_corner()[i] || hi[i] > box.max_corner()[i]) {
        return false;
      }
    }
    return true;
  }
  bool NodeBoundsEmpty(int id) const { return node_lo(id)[0] > node_hi(id)[0]; }

  /// STR recursion over an index permutation into the staging arrays;
  /// appends entries to the arenas in leaf order and returns the node id.
  int BuildStr(const double* coords, const double* weights, const int32_t* ids,
               int32_t* perm, int begin, int end, int level_hint);
  static RTree BulkLoadRaw(int dim, int max_entries, const double* coords,
                           const double* weights, const int32_t* ids, int n);

  int dim_ = 0;
  int max_entries_ = 0;
  int cap_ = 0;  ///< kid slot capacity per node: max_entries_ + 1
  int size_ = 0;
  int root_ = -1;
  Column<RtNode> nodes_;
  Column<double> node_bounds_;    ///< num_nodes × 2·dim (min row, max row)
  Column<int32_t> node_kids_;     ///< num_nodes × cap_
  Column<double> entry_coords_;   ///< size × dim, leaf order for bulk loads
  Column<double> entry_weights_;  ///< size
  Column<int32_t> entry_ids_;     ///< size
};

}  // namespace arsp

#endif  // ARSP_INDEX_RTREE_H_
