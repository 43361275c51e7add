// CONN query processing — Algorithm 4 of the paper — as the k = 1 view of
// COkNN (Section 4.5, core/coknn.h).
//
// Given a data R-tree Tp, an obstacle R-tree To (or one unified tree,
// Section 4.5) and a query segment q, returns the exact obstructed nearest
// neighbor of every point of q as a list of <point, control point,
// interval> tuples.  The COkNN engine at k = 1 is exactly Algorithm 4:
// data points arrive in ascending mindist(p, q) order, each runs IOR,
// CPLC and the result-list update, and the loop stops at the Lemma 2
// bound RLMAX.  ConnQuery only maps its one-candidate tuples to ConnTuple.
//
// Degenerate and adversarial inputs are first-class:
//   * zero-length q is an ONN point query: one [0, 0] tuple, or no tuple
//     and unreachable = {[0, 0]} when q lies strictly inside an obstacle;
//   * parts of q inside obstacle interiors are detected up front, reported
//     in ConnResult::unreachable, and excluded from the RLMAX bound;
//   * data points unreachable from q (walled off) never become ONN; if
//     every point is unreachable the tuples keep pid == kNoPoint.

#ifndef CONN_CORE_CONN_H_
#define CONN_CORE_CONN_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "core/options.h"
#include "core/coknn.h"
#include "geom/interval_set.h"
#include "geom/segment.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace core {

/// One tuple of the final CONN result.
struct ConnTuple {
  int64_t point_id = kNoPoint;  ///< ONN over range (kNoPoint: none exists)
  geom::Vec2 control_point;     ///< all shortest paths pass through here
  double offset = 0.0;          ///< ||point, control_point||
  geom::Interval range;         ///< arc-length interval of q
};

/// Complete answer of a CONN query.
struct ConnResult {
  geom::Segment query;
  std::vector<ConnTuple> tuples;   ///< ordered partition of the reachable q
  geom::IntervalSet unreachable;   ///< parts of q inside obstacle interiors
  QueryStats stats;

  /// Obstructed distance from q(t) to its ONN (+infinity if none).
  double OdistAt(double t) const;

  /// ONN id at parameter t (kNoPoint if none / unreachable).
  int64_t OnnAt(double t) const;

  /// Tuples with consecutive ranges of the same point id merged — the
  /// <p, R> view of Definition 6 (control points elided).
  std::vector<std::pair<int64_t, geom::Interval>> MergedByPoint() const;

  /// Split points: interior tuple boundaries where the ONN changes.
  std::vector<double> SplitParams() const;
};

/// The k = 1 view of a COkNN answer: each tuple's single candidate (or
/// kNoPoint where the candidate set is empty).
ConnResult ConnView(CoknnResult k1);

/// CONN with P and O in two separate R-trees (the paper's default):
/// CoknnQuery at k = 1.  A non-null \p workspace (batch execution) makes
/// the query reuse that shared obstacle graph instead of building its own.
ConnResult ConnQuery(const rtree::RStarTree& data_tree,
                     const rtree::RStarTree& obstacle_tree,
                     const geom::Segment& q, const ConnOptions& opts = {},
                     QueryWorkspace* workspace = nullptr);

/// CONN with both sets in one unified R-tree (Section 4.5): CoknnQuery1T
/// at k = 1.
ConnResult ConnQuery1T(const rtree::RStarTree& unified_tree,
                       const geom::Segment& q, const ConnOptions& opts = {},
                       QueryWorkspace* workspace = nullptr);

}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_CONN_H_
