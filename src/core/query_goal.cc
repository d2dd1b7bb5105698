// Copyright 2026 The ARSP Authors.

#include "src/core/query_goal.h"

#include <sstream>

namespace arsp {

std::string QueryGoal::CacheKey() const {
  std::ostringstream os;
  os.precision(17);
  switch (kind) {
    case GoalKind::kFull:
      os << "full";
      break;
    case GoalKind::kTopK:
      os << "topk:" << k << ':'
         << (ties == TiePolicy::kIncludeTies ? "ties" : "cut");
      break;
    case GoalKind::kThreshold:
      os << "thr:" << p;
      break;
  }
  return os.str();
}

std::string QueryGoal::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case GoalKind::kFull:
      os << "full";
      break;
    case GoalKind::kTopK:
      os << (ties == TiePolicy::kIncludeTies ? "count<=" : "top-") << k;
      break;
    case GoalKind::kThreshold:
      os << "threshold>=" << p;
      break;
  }
  return os.str();
}

}  // namespace arsp
