// Copyright 2026 The ARSP Authors.
//
// Shared percentile computation for the client-side latency reporters,
// arsp_loadgen and perfbench's harness, which sort their own samples and
// must agree on one definition: nearest-rank over a sorted sample,
// index = round(q · (n − 1)). (The server reports quantiles from its
// latency histogram instead; see obs::Histogram::Quantile.)

#ifndef ARSP_COMMON_PERCENTILE_H_
#define ARSP_COMMON_PERCENTILE_H_

#include <vector>

namespace arsp {

/// Nearest-rank percentile of a *sorted ascending* sample: element at index
/// round(q · (n − 1)). q is clamped to [0, 1]. Returns 0.0 for an empty
/// sample. Tail quantiles (p99 = 0.99, p99.9 = 0.999 — the standard
/// reporting set of arsp_loadgen and daemon STATS) degrade gracefully on
/// small samples: with n below 1/(1−q) the index rounds to n−1 and the
/// tail percentile is simply the max.
double SortedPercentile(const std::vector<double>& sorted, double q);

/// Sorts `sample` in place, then returns the percentile for each q in
/// `quantiles` (same order). Returns zeros for an empty sample.
std::vector<double> Percentiles(std::vector<double>* sample,
                                const std::vector<double>& quantiles);

}  // namespace arsp

#endif  // ARSP_COMMON_PERCENTILE_H_
