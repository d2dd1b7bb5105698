// Copyright 2026 The ARSP Authors.
//
// Unit tests for the incremental (σ, β, χ) bookkeeping shared by the
// kd/quad/multi-way traversals: β must always equal the direct product
// Π_{σ[j]≠1}(1 − σ[j]), χ must count full objects, and Undo must restore
// the state *bitwise* (snapshot-based undo) under randomized add/undo
// sequences — including masses crossing the σ = 1 boundary.

#include "src/core/asp_traversal_state.h"

#include <cmath>
#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace arsp {
namespace {

using internal::AspTraversalState;

// Direct recomputation of β and χ from raw σ values.
void Recompute(const std::vector<double>& sigma, double* beta, int* chi) {
  *beta = 1.0;
  *chi = 0;
  for (double s : sigma) {
    if (s >= 1.0 - kProbabilityEps) {
      ++*chi;
    } else {
      *beta *= (1.0 - s);
    }
  }
}

TEST(AspTraversalStateTest, FreshState) {
  AspTraversalState state(4);
  EXPECT_DOUBLE_EQ(state.beta(), 1.0);
  EXPECT_EQ(state.chi(), 0);
  for (int j = 0; j < 4; ++j) {
    EXPECT_DOUBLE_EQ(state.sigma(j), 0.0);
    EXPECT_FALSE(state.IsFull(j));
  }
}

TEST(AspTraversalStateTest, SingleAddUpdatesBeta) {
  AspTraversalState state(2);
  std::vector<AspTraversalState::Change> log;
  state.Add(0, 0.25, &log);
  EXPECT_DOUBLE_EQ(state.sigma(0), 0.25);
  EXPECT_DOUBLE_EQ(state.beta(), 0.75);
  EXPECT_EQ(state.chi(), 0);
  state.Undo(log);
  EXPECT_DOUBLE_EQ(state.beta(), 1.0);
  EXPECT_DOUBLE_EQ(state.sigma(0), 0.0);
}

TEST(AspTraversalStateTest, CrossingFullBoundaryMovesFactorToChi) {
  AspTraversalState state(2);
  std::vector<AspTraversalState::Change> log;
  state.Add(0, 0.6, &log);
  state.Add(1, 0.5, &log);
  EXPECT_NEAR(state.beta(), 0.4 * 0.5, 1e-15);
  state.Add(0, 0.4, &log);  // σ[0] -> 1: its factor leaves β
  EXPECT_EQ(state.chi(), 1);
  EXPECT_TRUE(state.IsFull(0));
  EXPECT_NEAR(state.beta(), 0.5, 1e-12);
  state.Undo(log);
  EXPECT_EQ(state.chi(), 0);
  EXPECT_NEAR(state.beta(), 1.0, 1e-12);
}

TEST(AspTraversalStateTest, AddingBeyondFullDoesNotDoubleCountChi) {
  // Same object keeps receiving mass after σ = 1 within tolerance (can
  // happen when the remaining mass is epsilon-sized).
  AspTraversalState state(1);
  std::vector<AspTraversalState::Change> log;
  state.Add(0, 1.0 - 1e-12, &log);
  EXPECT_EQ(state.chi(), 1);
  state.Add(0, 1e-12, &log);
  EXPECT_EQ(state.chi(), 1);
  state.Undo(log);
  EXPECT_EQ(state.chi(), 0);
  EXPECT_NEAR(state.beta(), 1.0, 1e-9);
}

TEST(AspTraversalStateTest, LeafProbabilityRules) {
  AspTraversalState state(3);
  std::vector<AspTraversalState::Change> log;
  // χ = 0: own factor divided out.
  state.Add(0, 0.5, &log);  // own object
  state.Add(1, 0.25, &log);
  // Pr = β · p / (1 - σ[own]) = (0.5 · 0.75) · 0.5 / 0.5 = 0.375.
  EXPECT_NEAR(state.LeafProbability(0, 0.5), 0.375, 1e-12);

  // χ = 1 via the own object: Pr = β · p.
  state.Add(0, 0.5, &log);  // σ[0] = 1
  EXPECT_EQ(state.chi(), 1);
  EXPECT_NEAR(state.LeafProbability(0, 0.5), 0.75 * 0.5, 1e-12);
  // χ = 1 via a *foreign* full object: zero.
  EXPECT_EQ(state.LeafProbability(2, 0.5), 0.0);

  // χ = 2: always zero.
  state.Add(1, 0.75, &log);
  EXPECT_EQ(state.chi(), 2);
  EXPECT_EQ(state.LeafProbability(0, 0.5), 0.0);
  state.Undo(log);
}

TEST(AspTraversalStateTest, RandomizedAddUndoMatchesRecomputation) {
  Rng rng(17);
  const int m = 12;
  AspTraversalState state(m);
  std::vector<double> sigma(static_cast<size_t>(m), 0.0);

  for (int round = 0; round < 200; ++round) {
    // A batch of adds (like one node's dominating set)...
    std::vector<AspTraversalState::Change> log;
    const int adds = rng.UniformInt(1, 6);
    for (int a = 0; a < adds; ++a) {
      const int j = rng.UniformInt(0, m - 1);
      const double room = 1.0 - sigma[static_cast<size_t>(j)];
      if (room <= 0.0) continue;
      // Occasionally exhaust the remaining mass exactly.
      const double p =
          rng.Bernoulli(0.2) ? room : rng.Uniform(0.0, room) * 0.9 + 1e-6;
      state.Add(j, p, &log);
      sigma[static_cast<size_t>(j)] += p;
    }
    double beta_expected;
    int chi_expected;
    Recompute(sigma, &beta_expected, &chi_expected);
    EXPECT_EQ(state.chi(), chi_expected) << "round " << round;
    EXPECT_NEAR(state.beta(), beta_expected, 1e-9 + 1e-9 * beta_expected)
        << "round " << round;

    // ...then either keep it (descend) or undo it (backtrack). Undo is
    // snapshot-based, so the restore must be bitwise, not merely close.
    if (rng.Bernoulli(0.5)) {
      const double beta_before = log.empty() ? state.beta()
                                             : log.front().old_beta;
      const int chi_before = log.empty() ? state.chi() : log.front().old_chi;
      for (auto it = log.rbegin(); it != log.rend(); ++it) {
        sigma[static_cast<size_t>(it->object)] = it->old_sigma;
      }
      state.Undo(log);
      EXPECT_EQ(state.beta(), beta_before);
      EXPECT_EQ(state.chi(), chi_before);
      for (int j = 0; j < m; ++j) {
        EXPECT_EQ(state.sigma(j), sigma[static_cast<size_t>(j)]);
      }
    }
  }
}

TEST(AspTraversalStateTest, UndoRestoresBitwise) {
  // Enter-and-exit a "subtree" must leave (σ, β, χ) bit-identical to never
  // entering — the exactness goal pruning and parallel path replay rely on
  // for bit-identical answers.
  AspTraversalState state(4);
  std::vector<AspTraversalState::Change> path;
  state.Add(0, 0.3, &path);
  state.Add(1, 0.7, &path);
  const double beta_at_node = state.beta();
  const int chi_at_node = state.chi();
  const double sigma0 = state.sigma(0);
  const double sigma1 = state.sigma(1);

  std::vector<AspTraversalState::Change> subtree;
  state.Add(2, 0.9999999, &subtree);
  state.Add(0, 0.1, &subtree);
  state.Add(3, 1.0, &subtree);  // crosses the full boundary
  state.Undo(subtree);

  EXPECT_EQ(state.beta(), beta_at_node);
  EXPECT_EQ(state.chi(), chi_at_node);
  EXPECT_EQ(state.sigma(0), sigma0);
  EXPECT_EQ(state.sigma(1), sigma1);
  EXPECT_EQ(state.sigma(2), 0.0);
  EXPECT_EQ(state.sigma(3), 0.0);
}

}  // namespace
}  // namespace arsp
