// Copyright 2026 The ARSP Authors.
//
// Shared bookkeeping of the kd-ASP* style traversals (Algorithm 1 and its
// quadtree variant): the per-object dominating mass σ, the running product
// β = Π_{σ[j]≠1}(1 - σ[j]), and the full-object counter χ = |{j : σ[j]=1}|,
// with O(1) incremental apply/undo as candidates move into the dominating
// set D of a node.
//
// Deviation from the printed pseudocode (see ARCHITECTURE.md, "Deviations
// from the paper"): at a leaf, the case χ = 1 caused by the instance's
// *own* object still has non-zero probability — the paper handles this case
// in its DUAL-M variant (§IV-B) and we apply the same rule here.
//
// Each worker lane of the traversal driver (traversal_driver.cc) owns one.

#ifndef ARSP_CORE_ASP_TRAVERSAL_STATE_H_
#define ARSP_CORE_ASP_TRAVERSAL_STATE_H_

#include <vector>

#include "src/core/arsp_result.h"

namespace arsp {
namespace internal {

/// Incremental (σ, β, χ) state over m objects.
class AspTraversalState {
 public:
  explicit AspTraversalState(int num_objects)
      : sigma_(static_cast<size_t>(num_objects), 0.0) {}

  /// One σ update, recorded so the caller can undo it when unwinding.
  /// Undo is snapshot-based: each change carries the pre-Add σ of its
  /// object plus the pre-Add (β, χ), so unwinding restores the state
  /// *bitwise* — an entered-and-exited subtree is indistinguishable from
  /// one never entered. That exactness is what lets goal pruning and
  /// path-replayed parallel tasks return values bit-identical to a full
  /// serial solve. `prob` is the Add's argument, so a log can also be
  /// replayed.
  struct Change {
    int object;
    int old_chi;
    double prob;
    double old_sigma;
    double old_beta;
  };

  double beta() const { return beta_; }
  int chi() const { return chi_; }
  double sigma(int object) const {
    return sigma_[static_cast<size_t>(object)];
  }
  /// True iff object j's entire mass dominates the current node's min
  /// corner (σ[j] = 1 up to the shared probability tolerance).
  bool IsFull(int object) const {
    return sigma(object) >= 1.0 - kProbabilityEps;
  }

  /// σ[object] += prob, maintaining β and χ; appends to `undo_log`.
  void Add(int object, double prob, std::vector<Change>* undo_log) {
    double& s = sigma_[static_cast<size_t>(object)];
    undo_log->push_back(Change{object, chi_, prob, s, beta_});
    const double old_value = s;
    s += prob;
    const bool was_full = old_value >= 1.0 - kProbabilityEps;
    const bool is_full = s >= 1.0 - kProbabilityEps;
    if (!was_full && is_full) {
      ++chi_;
      beta_ /= (1.0 - old_value);  // remove the object's factor from β
    } else if (!is_full) {
      beta_ *= (1.0 - s) / (1.0 - old_value);
    }
  }

  /// Reverts the changes in undo_log[from, end), newest first, restoring σ,
  /// β and χ bitwise to their values before the corresponding Add calls.
  /// They must be a contiguous suffix of Adds (which is what a node's Adds
  /// on top of its ancestors' are): σ is restored per change, while β and
  /// χ come from the snapshot in the oldest change — no floating-point
  /// arithmetic, hence no drift, on the unwind path.
  void Undo(const std::vector<Change>& undo_log, size_t from = 0) {
    if (undo_log.size() <= from) return;
    for (size_t i = undo_log.size(); i-- > from;) {
      sigma_[static_cast<size_t>(undo_log[i].object)] = undo_log[i].old_sigma;
    }
    beta_ = undo_log[from].old_beta;
    chi_ = undo_log[from].old_chi;
  }

  /// Final rskyline probability of an instance of `object` with existence
  /// probability `prob`, given that σ is exact for that instance's point:
  ///   χ = 0            →  β · p / (1 - σ[own])
  ///   χ = 1, own full  →  β · p      (β already excludes the own factor)
  ///   otherwise        →  0          (some foreign object fully dominates)
  double LeafProbability(int object, double prob) const {
    if (chi_ == 0) {
      return beta_ * prob / (1.0 - sigma(object));
    }
    if (chi_ == 1 && IsFull(object)) {
      return beta_ * prob;
    }
    return 0.0;
  }

 private:
  std::vector<double> sigma_;
  double beta_ = 1.0;
  int chi_ = 0;
};

}  // namespace internal
}  // namespace arsp

#endif  // ARSP_CORE_ASP_TRAVERSAL_STATE_H_
