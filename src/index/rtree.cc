// Copyright 2026 The ARSP Authors.

#include "src/index/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "src/common/aligned.h"
#include "src/uncertain/dataset_view.h"

namespace arsp {

namespace {

constexpr int32_t kIntMax = 2147483647;

// Volume of the box [lo, hi]; 0 for empty boxes. Mirrors Mbr::Volume().
double RowVolume(const double* lo, const double* hi, int dim) {
  if (lo[0] > hi[0]) return 0.0;
  double v = 1.0;
  for (int i = 0; i < dim; ++i) v *= (hi[i] - lo[i]);
  return v;
}

// Volume increase of [lo, hi] when extended to cover the point row `p`.
// Mirrors Mbr::Enlargement by the point's degenerate box operation-for-
// operation so the flat insert descent picks the same child the pointer
// tree did.
double RowEnlargementByPoint(const double* lo, const double* hi,
                             const double* p, int dim) {
  double merged = 1.0;
  for (int i = 0; i < dim; ++i) {
    merged *= (std::max(hi[i], p[i]) - std::min(lo[i], p[i]));
  }
  return merged - RowVolume(lo, hi, dim);
}

// Quadratic-split seed selection: the pair wasting the most dead volume.
template <typename GetMbr>
std::pair<int, int> PickSeeds(int count, const GetMbr& mbr_of) {
  int seed_a = 0, seed_b = 1;
  double worst = -1.0;
  for (int i = 0; i < count; ++i) {
    for (int j = i + 1; j < count; ++j) {
      Mbr merged = mbr_of(i);
      merged.Extend(mbr_of(j));
      const double waste =
          merged.Volume() - mbr_of(i).Volume() - mbr_of(j).Volume();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  return {seed_a, seed_b};
}

}  // namespace

RTree::RTree(int dim, int max_entries)
    : dim_(dim), max_entries_(max_entries), cap_(max_entries + 1) {
  ARSP_CHECK(dim >= 1);
  ARSP_CHECK(max_entries >= kMinFanout);
}

Mbr RTree::node_mbr(int id) const {
  Mbr box = Mbr::Empty(dim_);
  if (nodes_[static_cast<size_t>(id)].count > 0) {
    box.ExtendRow(node_lo(id));
    box.ExtendRow(node_hi(id));
  }
  return box;
}

ColumnBytes RTree::memory_bytes() const {
  ColumnBytes bytes;
  bytes.Add(nodes_);
  bytes.Add(node_bounds_);
  bytes.Add(node_kids_);
  bytes.Add(entry_coords_);
  bytes.Add(entry_weights_);
  bytes.Add(entry_ids_);
  return bytes;
}

int RTree::AllocNode(bool leaf) {
  const int id = static_cast<int>(nodes_.size());
  RtNode node;
  node.leaf = leaf ? 1 : 0;
  nodes_.push_back(node);
  node_kids_.resize(node_kids_.size() + static_cast<size_t>(cap_), -1);
  node_bounds_.resize(node_bounds_.size() + 2 * static_cast<size_t>(dim_));
  double* lo = node_bounds_.mutable_data() +
               static_cast<size_t>(id) * 2 * static_cast<size_t>(dim_);
  for (int k = 0; k < dim_; ++k) {
    lo[k] = std::numeric_limits<double>::infinity();
    lo[dim_ + k] = -std::numeric_limits<double>::infinity();
  }
  return id;
}

int RTree::AppendEntryRow(const double* coords, double weight, int id) {
  const int e = static_cast<int>(entry_ids_.size());
  entry_coords_.resize(entry_coords_.size() + static_cast<size_t>(dim_));
  std::copy(coords, coords + dim_,
            entry_coords_.mutable_data() +
                static_cast<size_t>(e) * static_cast<size_t>(dim_));
  entry_weights_.push_back(weight);
  entry_ids_.push_back(id);
  return e;
}

void RTree::RecomputeNode(int id) {
  // Same kid iteration order as the pointer tree's RecomputeNode, so every
  // weight_sum accumulates in the identical floating-point order.
  double* lo = node_bounds_.mutable_data() +
               static_cast<size_t>(id) * 2 * static_cast<size_t>(dim_);
  double* hi = lo + dim_;
  for (int k = 0; k < dim_; ++k) {
    lo[k] = std::numeric_limits<double>::infinity();
    hi[k] = -std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  int32_t min_id = kIntMax;
  RtNode& node = nodes_.mutable_data()[id];
  const int32_t* kids =
      node_kids_.data() + static_cast<size_t>(id) * static_cast<size_t>(cap_);
  if (node.leaf != 0) {
    for (int32_t k = 0; k < node.count; ++k) {
      const int e = kids[k];
      const double* row = entry_coords(e);
      for (int i = 0; i < dim_; ++i) {
        lo[i] = std::min(lo[i], row[i]);
        hi[i] = std::max(hi[i], row[i]);
      }
      sum += entry_weights_[static_cast<size_t>(e)];
      min_id = std::min(min_id, entry_ids_[static_cast<size_t>(e)]);
    }
  } else {
    for (int32_t k = 0; k < node.count; ++k) {
      const int child = kids[k];
      const double* clo = node_lo(child);
      const double* chi = node_hi(child);
      for (int i = 0; i < dim_; ++i) {
        lo[i] = std::min(lo[i], clo[i]);
        hi[i] = std::max(hi[i], chi[i]);
      }
      sum += nodes_[static_cast<size_t>(child)].weight_sum;
      min_id = std::min(min_id, nodes_[static_cast<size_t>(child)].min_id);
    }
  }
  node.weight_sum = sum;
  node.min_id = min_id;
}

// ---------------------------------------------------------------------------
// STR bulk load
// ---------------------------------------------------------------------------

int RTree::BuildStr(const double* coords, const double* weights,
                    const int32_t* ids, int32_t* perm, int begin, int end,
                    int level_hint) {
  const int n = end - begin;
  if (n <= max_entries_) {
    const int node = AllocNode(/*leaf=*/true);
    for (int i = begin; i < end; ++i) {
      const int32_t src = perm[i];
      const int e = AppendEntryRow(
          coords + static_cast<size_t>(src) * static_cast<size_t>(dim_),
          weights[src], ids[src]);
      node_kids_.mutable_data()[static_cast<size_t>(node) *
                                    static_cast<size_t>(cap_) +
                                static_cast<size_t>(i - begin)] = e;
    }
    nodes_.mutable_data()[node].count = n;
    RecomputeNode(node);
    return node;
  }

  const int node = AllocNode(/*leaf=*/false);

  // Capacity of one child subtree: the largest power of max_entries_ < n.
  long long child_cap = max_entries_;
  while (child_cap * max_entries_ < n) child_cap *= max_entries_;

  // Sorting the index permutation runs the exact comparison sequence sorting
  // the entry records would, so chunk boundaries — and with them every node's
  // kid order and aggregate accumulation order — match the record sort.
  const int sort_dim = level_hint % dim_;
  const size_t d = static_cast<size_t>(dim_);
  const size_t sd = static_cast<size_t>(sort_dim);
  std::sort(perm + begin, perm + end, [coords, d, sd](int32_t a, int32_t b) {
    return coords[static_cast<size_t>(a) * d + sd] <
           coords[static_cast<size_t>(b) * d + sd];
  });

  int count = 0;
  for (int chunk = begin; chunk < end; chunk += static_cast<int>(child_cap)) {
    const int chunk_end =
        static_cast<int>(std::min<long long>(chunk + child_cap, end));
    const int child =
        BuildStr(coords, weights, ids, perm, chunk, chunk_end, level_hint + 1);
    // Re-resolve the slot pointer each time: the recursion grows the arena.
    node_kids_.mutable_data()[static_cast<size_t>(node) *
                                  static_cast<size_t>(cap_) +
                              static_cast<size_t>(count)] = child;
    ++count;
  }
  nodes_.mutable_data()[node].count = count;
  RecomputeNode(node);
  return node;
}

RTree RTree::BulkLoadRaw(int dim, int max_entries, const double* coords,
                         const double* weights, const int32_t* ids, int n) {
  RTree tree(dim, max_entries);
  tree.size_ = n;
  if (n == 0) return tree;
  AlignedVector<int32_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  const size_t node_estimate =
      2 * static_cast<size_t>(n) / static_cast<size_t>(max_entries) + 2;
  tree.nodes_.reserve(node_estimate);
  tree.node_kids_.reserve(node_estimate * static_cast<size_t>(tree.cap_));
  tree.node_bounds_.reserve(node_estimate * 2 * static_cast<size_t>(dim));
  tree.entry_coords_.reserve(static_cast<size_t>(n) * static_cast<size_t>(dim));
  tree.entry_weights_.reserve(static_cast<size_t>(n));
  tree.entry_ids_.reserve(static_cast<size_t>(n));
  tree.root_ = tree.BuildStr(coords, weights, ids, perm.data(), 0, n, 0);
  return tree;
}

RTree RTree::BulkLoad(int dim, std::vector<LeafEntry> entries,
                      int max_entries) {
  const int n = static_cast<int>(entries.size());
  AlignedVector<double> coords(static_cast<size_t>(n) *
                               static_cast<size_t>(dim));
  AlignedVector<double> weights(static_cast<size_t>(n));
  AlignedVector<int32_t> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const LeafEntry& e = entries[static_cast<size_t>(i)];
    ARSP_CHECK(e.point.dim() == dim);
    std::copy(
        e.point.coords().begin(), e.point.coords().end(),
        coords.begin() + static_cast<size_t>(i) * static_cast<size_t>(dim));
    weights[static_cast<size_t>(i)] = e.weight;
    ids[static_cast<size_t>(i)] = e.id;
  }
  return BulkLoadRaw(dim, max_entries, coords.data(), weights.data(),
                     ids.data(), n);
}

RTree RTree::BulkLoadFromView(const DatasetView& view, int max_entries) {
  const int n = view.num_instances();
  if (n == 0) return RTree(view.dim(), max_entries);
  // A view's instances are the base's first n, so STR reads the base's
  // columnar storage in place and sorts only an index permutation — peak
  // build memory is n int32s over the final arenas, not a second staged
  // copy of every instance.
  AlignedVector<int32_t> ids(static_cast<size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  return BulkLoadRaw(view.dim(), max_entries, view.coords(0),
                     view.base().probs_column().data(), ids.data(), n);
}

StatusOr<RTree> RTree::FromFlat(int dim, int max_entries, int root_id,
                                int size, Column<RtNode> nodes,
                                Column<double> node_bounds,
                                Column<int32_t> node_kids,
                                Column<double> entry_coords,
                                Column<double> entry_weights,
                                Column<int32_t> entry_ids) {
  const auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("r-tree " + what);
  };
  if (dim < 1 || max_entries < kMinFanout || max_entries > kMaxFanout) {
    return invalid("dimension or fan-out out of range");
  }
  RTree tree(dim, max_entries);
  const size_t cap = static_cast<size_t>(tree.cap_);
  const size_t n = entry_ids.size();
  const size_t num_nodes = nodes.size();
  if (size < 0 || static_cast<size_t>(size) != n) {
    return invalid("flat size disagrees with the entry arenas");
  }
  if (entry_weights.size() != n ||
      entry_coords.size() != n * static_cast<size_t>(dim)) {
    return invalid("flat arenas disagree on the entry count");
  }
  if (node_bounds.size() != num_nodes * 2 * static_cast<size_t>(dim) ||
      node_kids.size() != num_nodes * cap) {
    return invalid("node columns do not match the node pool");
  }
  if (n == 0 ? root_id != -1
             : root_id < 0 || static_cast<size_t>(root_id) >= num_nodes) {
    return invalid("root id out of range");
  }
  // Traversals descend from the root through kid slots unchecked, so the
  // nodes they reach must form a tree (no node is the kid of two nodes or
  // of its own subtree) no deeper than kMaxFlatDepth, with every kid id
  // inside the node pool or the entry arenas.
  std::vector<uint8_t> depth(num_nodes, 0);  // 0 = not reached yet
  std::vector<int32_t> pending;
  if (root_id >= 0) {
    depth[static_cast<size_t>(root_id)] = 1;
    pending.push_back(root_id);
  }
  while (!pending.empty()) {
    const size_t id = static_cast<size_t>(pending.back());
    pending.pop_back();
    const RtNode& node = nodes[id];
    const auto bad_node = [&invalid, id](const char* what) {
      return invalid("node " + std::to_string(id) + " " + what);
    };
    if (node.count < 0 || static_cast<size_t>(node.count) > cap) {
      return bad_node("has an out-of-range kid count");
    }
    const int32_t* kids = node_kids.data() + id * cap;
    for (int32_t k = 0; k < node.count; ++k) {
      const int32_t kid = kids[k];
      if (node.leaf != 0) {
        if (kid < 0 || static_cast<size_t>(kid) >= n) {
          return bad_node("has an out-of-range entry id");
        }
        continue;
      }
      if (kid < 0 || static_cast<size_t>(kid) >= num_nodes ||
          depth[static_cast<size_t>(kid)] != 0) {
        return bad_node("has an invalid kid id");
      }
      if (depth[id] >= kMaxFlatDepth) return bad_node("is too deep");
      depth[static_cast<size_t>(kid)] = static_cast<uint8_t>(depth[id] + 1);
      pending.push_back(kid);
    }
  }
  tree.size_ = size;
  tree.root_ = root_id;
  tree.nodes_ = std::move(nodes);
  tree.node_bounds_ = std::move(node_bounds);
  tree.node_kids_ = std::move(node_kids);
  tree.entry_coords_ = std::move(entry_coords);
  tree.entry_weights_ = std::move(entry_weights);
  tree.entry_ids_ = std::move(entry_ids);
  return tree;
}

// ---------------------------------------------------------------------------
// Guttman insertion with quadratic split
// ---------------------------------------------------------------------------

void RTree::Insert(const Point& point, double weight, int id) {
  ARSP_CHECK(point.dim() == dim_);
  ARSP_CHECK_MSG(!nodes_.borrowed() && !entry_coords_.borrowed(),
                 "Insert on a snapshot-borrowed (immutable) r-tree");
  if (root_ < 0) root_ = AllocNode(/*leaf=*/true);
  const int entry = AppendEntryRow(point.coords().data(), weight, id);
  int split = -1;
  InsertRec(root_, entry, &split);
  if (split >= 0) {
    // Root overflowed: grow the tree by one level.
    const int old_root = root_;
    const int new_root = AllocNode(/*leaf=*/false);
    int32_t* kids = node_kids_.mutable_data() +
                    static_cast<size_t>(new_root) * static_cast<size_t>(cap_);
    kids[0] = old_root;
    kids[1] = split;
    nodes_.mutable_data()[new_root].count = 2;
    RecomputeNode(new_root);
    root_ = new_root;
  }
  ++size_;
}

void RTree::InsertRec(int id, int entry, int* split_out) {
  *split_out = -1;
  if (node_is_leaf(id)) {
    {
      RtNode& node = nodes_.mutable_data()[id];
      node_kids_.mutable_data()[static_cast<size_t>(id) *
                                    static_cast<size_t>(cap_) +
                                static_cast<size_t>(node.count)] = entry;
      ++node.count;
    }
    RecomputeNode(id);
    if (node_count(id) > max_entries_) SplitNode(id, split_out);
    return;
  }

  // Choose the child whose box needs least enlargement (ties: smaller
  // volume), then recurse.
  const double* p = entry_coords(entry);
  int best = -1;
  double best_enlargement = 0.0;
  double best_volume = 0.0;
  const int count = node_count(id);
  for (int k = 0; k < count; ++k) {
    const int child = node_kid(id, k);
    const double enlargement =
        RowEnlargementByPoint(node_lo(child), node_hi(child), p, dim_);
    const double volume = RowVolume(node_lo(child), node_hi(child), dim_);
    if (best < 0 || enlargement < best_enlargement ||
        (enlargement == best_enlargement && volume < best_volume)) {
      best = child;
      best_enlargement = enlargement;
      best_volume = volume;
    }
  }
  int child_split = -1;
  InsertRec(best, entry, &child_split);
  if (child_split >= 0) {
    RtNode& node = nodes_.mutable_data()[id];
    node_kids_.mutable_data()[static_cast<size_t>(id) *
                                  static_cast<size_t>(cap_) +
                              static_cast<size_t>(node.count)] = child_split;
    ++node.count;
  }
  RecomputeNode(id);
  if (node_count(id) > max_entries_) SplitNode(id, split_out);
}

void RTree::SplitNode(int id, int* split_out) {
  const bool leaf = node_is_leaf(id);
  const int count = node_count(id);
  std::vector<int32_t> all(static_cast<size_t>(count));
  for (int k = 0; k < count; ++k) all[static_cast<size_t>(k)] = node_kid(id, k);

  const int sibling = AllocNode(leaf);  // may grow (reallocate) the arenas

  // Materialized kid boxes: point boxes for leaf entries, child bounds for
  // internal kids — the same values the pointer tree's split inspected.
  std::vector<Mbr> boxes;
  boxes.reserve(all.size());
  for (int32_t kid : all) {
    if (leaf) {
      Mbr box = Mbr::Empty(dim_);
      box.ExtendRow(entry_coords(kid));
      boxes.push_back(box);
    } else {
      boxes.push_back(node_mbr(kid));
    }
  }
  const auto [sa, sb] = PickSeeds(count, [&boxes](int i) -> const Mbr& {
    return boxes[static_cast<size_t>(i)];
  });

  std::vector<int32_t> keep, move;
  keep.reserve(all.size());
  move.reserve(all.size());
  Mbr box_a = boxes[static_cast<size_t>(sa)];
  Mbr box_b = boxes[static_cast<size_t>(sb)];
  if (leaf) {
    // Leaf split: seeds first, then the assignment loop — the pointer
    // tree's entry order, preserved so leaf sums accumulate identically.
    keep.push_back(all[static_cast<size_t>(sa)]);
    move.push_back(all[static_cast<size_t>(sb)]);
    for (int i = 0; i < count; ++i) {
      if (i == sa || i == sb) continue;
      const Mbr& box = boxes[static_cast<size_t>(i)];
      if (box_a.Enlargement(box) <= box_b.Enlargement(box)) {
        keep.push_back(all[static_cast<size_t>(i)]);
        box_a.Extend(box);
      } else {
        move.push_back(all[static_cast<size_t>(i)]);
        box_b.Extend(box);
      }
    }
  } else {
    // Internal split keeps seeds at their original positions (the pointer
    // tree moved them inline during the loop).
    for (int i = 0; i < count; ++i) {
      if (i == sa) {
        keep.push_back(all[static_cast<size_t>(i)]);
        continue;
      }
      if (i == sb) {
        move.push_back(all[static_cast<size_t>(i)]);
        continue;
      }
      const Mbr& box = boxes[static_cast<size_t>(i)];
      if (box_a.Enlargement(box) <= box_b.Enlargement(box)) {
        keep.push_back(all[static_cast<size_t>(i)]);
        box_a.Extend(box);
      } else {
        move.push_back(all[static_cast<size_t>(i)]);
        box_b.Extend(box);
      }
    }
  }

  int32_t* node_slots = node_kids_.mutable_data() +
                        static_cast<size_t>(id) * static_cast<size_t>(cap_);
  for (size_t k = 0; k < keep.size(); ++k) node_slots[k] = keep[k];
  nodes_.mutable_data()[id].count = static_cast<int32_t>(keep.size());
  int32_t* sibling_slots =
      node_kids_.mutable_data() +
      static_cast<size_t>(sibling) * static_cast<size_t>(cap_);
  for (size_t k = 0; k < move.size(); ++k) sibling_slots[k] = move[k];
  nodes_.mutable_data()[sibling].count = static_cast<int32_t>(move.size());

  RecomputeNode(id);
  RecomputeNode(sibling);
  *split_out = sibling;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

double RTree::WindowSum(const Mbr& box) const {
  if (root_ < 0) return 0.0;
  return WindowSumRec(root_, box);
}

double RTree::WindowSumRec(int id, const Mbr& box) const {
  if (NodeBoundsEmpty(id) || !BoxIntersectsNode(box, id)) return 0.0;
  if (BoxContainsNode(box, id)) return node_weight_sum(id);
  const int count = node_count(id);
  if (node_is_leaf(id)) {
    double sum = 0.0;
    for (int k = 0; k < count; ++k) {
      const int e = node_kid(id, k);
      if (box.ContainsRow(entry_coords(e))) {
        sum += entry_weights_[static_cast<size_t>(e)];
      }
    }
    return sum;
  }
  double sum = 0.0;
  for (int k = 0; k < count; ++k) {
    sum += WindowSumRec(node_kid(id, k), box);
  }
  return sum;
}

}  // namespace arsp
