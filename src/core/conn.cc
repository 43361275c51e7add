#include "core/conn.h"

#include <cmath>
#include <limits>
#include <utility>

namespace conn {
namespace core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ConnResult ConnView(CoknnResult k1) {
  ConnResult result;
  result.query = k1.query;
  result.unreachable = std::move(k1.unreachable);
  result.stats = k1.stats;
  for (const CoknnTuple& t : k1.tuples) {
    ConnTuple tuple;
    tuple.range = t.range;
    if (!t.candidates.empty()) {
      tuple.point_id = t.candidates.front().pid;
      tuple.control_point = t.candidates.front().cp;
      tuple.offset = t.candidates.front().offset;
    }
    result.tuples.push_back(tuple);
  }
  return result;
}

double ConnResult::OdistAt(double t) const {
  const geom::SegmentFrame frame(query);
  for (const ConnTuple& tup : tuples) {
    if (tup.range.ContainsApprox(t)) {
      if (tup.point_id == kNoPoint) return kInf;
      return geom::DistanceCurve::FromControlPoint(frame, tup.control_point,
                                                   tup.offset)
          .Eval(t);
    }
  }
  return kInf;
}

int64_t ConnResult::OnnAt(double t) const {
  for (const ConnTuple& tup : tuples) {
    if (tup.range.ContainsApprox(t)) return tup.point_id;
  }
  return kNoPoint;
}

std::vector<std::pair<int64_t, geom::Interval>> ConnResult::MergedByPoint()
    const {
  std::vector<std::pair<int64_t, geom::Interval>> merged;
  for (const ConnTuple& tup : tuples) {
    if (!merged.empty() && merged.back().first == tup.point_id &&
        std::abs(merged.back().second.hi - tup.range.lo) <=
            geom::kEpsParam) {
      merged.back().second.hi = tup.range.hi;
    } else {
      merged.emplace_back(tup.point_id, tup.range);
    }
  }
  return merged;
}

std::vector<double> ConnResult::SplitParams() const {
  std::vector<double> splits;
  const auto merged = MergedByPoint();
  for (size_t i = 0; i + 1 < merged.size(); ++i) {
    if (std::abs(merged[i].second.hi - merged[i + 1].second.lo) <=
        geom::kEpsParam) {
      splits.push_back(merged[i].second.hi);
    }
  }
  return splits;
}

ConnResult ConnQuery(const rtree::RStarTree& data_tree,
                     const rtree::RStarTree& obstacle_tree,
                     const geom::Segment& q, const ConnOptions& opts,
                     QueryWorkspace* workspace) {
  return ConnView(CoknnQuery(data_tree, obstacle_tree, q, 1, opts, workspace));
}

ConnResult ConnQuery1T(const rtree::RStarTree& unified_tree,
                       const geom::Segment& q, const ConnOptions& opts,
                       QueryWorkspace* workspace) {
  return ConnView(CoknnQuery1T(unified_tree, q, 1, opts, workspace));
}

}  // namespace core
}  // namespace conn
