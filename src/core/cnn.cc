#include "core/cnn.h"

#include <limits>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "core/engine_internal.h"
#include "rtree/best_first.h"

namespace conn {
namespace core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ConnResult CnnQuery(const rtree::RStarTree& data_tree, const geom::Segment& q,
                    const ConnOptions& opts) {
  Timer timer;
  QueryStats stats;
  internal::PagerDelta data_io(data_tree.pager());

  CoknnResult result;
  result.query = q;
  const geom::SegmentFrame frame(q);
  KnnResultList rl(geom::IntervalSet{geom::Interval(0.0, q.Length())}, 1);
  rtree::BestFirstIterator points(data_tree, q);
  rtree::DataObject obj;
  double dist = 0.0;
  while (true) {
    const double peek = points.PeekDist();
    if (peek == kInf) break;
    if (opts.use_rlmax_terminate && peek > rl.RlMax(frame)) {
      ++stats.lemma2_terminations;
      break;
    }
    CONN_CHECK(points.Next(&obj, &dist));
    CONN_CHECK_MSG(obj.kind == rtree::ObjectKind::kPoint,
                   "data tree contains a non-point entry");
    ++stats.points_evaluated;
    // Obstacle-free space: p is its own control point over all of q.
    ControlPointList cpl = {CplEntry{true, obj.AsPoint(), 0.0,
                                     geom::Interval(0.0, q.Length())}};
    rl.Update(static_cast<int64_t>(obj.id), cpl, frame, &stats);
  }
  result.tuples = rl.tuples();

  stats.data_page_reads = data_io.faults();
  stats.buffer_hits = data_io.hits();
  internal::AddPrefetchStats(data_io, &stats);
  stats.cpu_seconds = timer.ElapsedSeconds();
  result.stats = stats;
  return ConnView(std::move(result));
}

}  // namespace core
}  // namespace conn
