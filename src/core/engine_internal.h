// Shared plumbing of the CONN-family query engines (coknn.cc, onn.cc,
// cnn.cc).  Internal header — not part of the public API.

#ifndef CONN_CORE_ENGINE_INTERNAL_H_
#define CONN_CORE_ENGINE_INTERNAL_H_

#include <optional>
#include <vector>

#include "core/workspace.h"
#include "geom/interval_set.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "rtree/rstar_tree.h"
#include "storage/pager.h"
#include "vis/vis_graph.h"

namespace conn {
namespace core {
namespace internal {

/// Workspace rectangle covering the trees' contents and \p cover (used as
/// the local obstacle grid's domain).  Either tree may be null.
inline geom::Rect WorkspaceBounds(const rtree::RStarTree* a,
                                  const rtree::RStarTree* b,
                                  const geom::Rect& cover) {
  geom::Rect r = cover;
  if (a != nullptr) r = r.ExpandedToCover(a->Bounds());
  if (b != nullptr) r = r.ExpandedToCover(b->Bounds());
  // Guard against degenerate domains (single point workloads).
  const double pad = 1.0 + 1e-3 * std::max(r.Width(), r.Height());
  return geom::Rect({r.lo.x - pad, r.lo.y - pad}, {r.hi.x + pad, r.hi.y + pad});
}

inline geom::Rect WorkspaceBounds(const rtree::RStarTree* a,
                                  const rtree::RStarTree* b,
                                  const geom::Segment& q) {
  return WorkspaceBounds(a, b, q.Bounds());
}

/// Arc-length intervals of \p q lying strictly inside obstacle interiors
/// indexed by \p tree (non-obstacle entries are ignored, so the unified
/// tree of the 1-tree configuration works too).
inline geom::IntervalSet BlockedIntervals(const rtree::RStarTree& tree,
                                          const geom::Segment& q) {
  std::vector<rtree::DataObject> hits;
  CONN_CHECK(tree.SegmentIntersectionQuery(q, &hits).ok());
  const double len = q.Length();
  std::vector<geom::Interval> blocked;
  for (const rtree::DataObject& obj : hits) {
    if (obj.kind != rtree::ObjectKind::kObstacle) continue;
    const geom::Rect& r = obj.rect;
    const geom::Rect inner{
        {r.lo.x + geom::kEpsInterior, r.lo.y + geom::kEpsInterior},
        {r.hi.x - geom::kEpsInterior, r.hi.y - geom::kEpsInterior}};
    if (!inner.IsValid()) continue;
    double t0, t1;
    if (!geom::ClipSegmentToRect(q, inner, &t0, &t1)) continue;
    if (t1 - t0 <= 0.0) continue;
    blocked.push_back(geom::Interval(t0 * len, t1 * len));
  }
  // A zero-length q is one point, blocked as {[0, 0]} when it lies inside
  // an obstacle interior (normalization would drop the zero-length piece).
  if (len <= 0.0 && !blocked.empty()) return geom::IntervalSet::Point(0.0);
  return geom::IntervalSet(std::move(blocked));
}

/// Splits [0, len] into reachable pieces and the blocked/sliver complement.
/// Pieces not meaningfully longer than the parameter tolerance are moved to
/// the unreachable side: a sliver piece could never be claimed robustly and
/// would pin the RLMAX termination bound at +infinity (see kEpsSliver).
inline geom::IntervalSet ReachablePieces(const geom::IntervalSet& blocked,
                                         double length,
                                         geom::IntervalSet* unreachable) {
  const geom::IntervalSet raw =
      blocked.ComplementWithin(geom::Interval(0.0, length));
  std::vector<geom::Interval> keep;
  std::vector<geom::Interval> dropped = blocked.intervals();
  for (const geom::Interval& piece : raw.intervals()) {
    if (piece.Length() <= geom::kEpsSliver) {
      dropped.push_back(piece);
    } else {
      keep.push_back(piece);
    }
  }
  *unreachable = geom::IntervalSet(std::move(dropped));
  return geom::IntervalSet(std::move(keep));
}

/// Adds a fixed graph vertex at both endpoints of every reachable piece of
/// the query segment; returns the vertex ids (the IOR targets).  The
/// vertices are scoped to \p session: they disappear with it, leaving a
/// shard-shared graph's obstacle state intact for the next query.
inline std::vector<vis::VertexId> AddTargetVertices(
    vis::QuerySession* session, const geom::IntervalSet& reachable,
    const geom::Segment& q) {
  std::vector<vis::VertexId> targets;
  for (const geom::Interval& piece : reachable.intervals()) {
    targets.push_back(session->AddFixedVertex(q.At(piece.lo)));
    targets.push_back(session->AddFixedVertex(q.At(piece.hi)));
  }
  return targets;
}

/// Restores a (possibly shard-shared) graph's stats sink on scope exit,
/// after pointing it at the running query's counters.
class GraphStatsScope {
 public:
  GraphStatsScope(vis::VisGraph* vg, QueryStats* stats)
      : vg_(vg), saved_(vg->stats()) {
    vg_->set_stats(stats);
  }
  ~GraphStatsScope() { vg_->set_stats(saved_); }

  GraphStatsScope(const GraphStatsScope&) = delete;
  GraphStatsScope& operator=(const GraphStatsScope&) = delete;

 private:
  vis::VisGraph* vg_;
  QueryStats* saved_;
};

/// The one visibility graph a query runs against: the shared workspace's
/// when one is supplied (batch execution), otherwise a query-local graph
/// built over the trees + q.  Either way the graph's stats sink points at
/// \p stats for this scope.  Every public query entry point opens with one
/// of these so the resolution logic cannot drift between engines.  The
/// scan arena resolves the same way: the workspace's pooled arena when
/// shared, a query-local one otherwise.
class ScopedQueryGraph {
 public:
  ScopedQueryGraph(QueryWorkspace* workspace, const rtree::RStarTree* a,
                   const rtree::RStarTree* b, const geom::Segment& q,
                   QueryStats* stats)
      : own_(workspace == nullptr
                 ? std::optional<vis::VisGraph>(
                       std::in_place, WorkspaceBounds(a, b, q), stats)
                 : std::nullopt),
        own_arena_(workspace == nullptr
                       ? std::optional<vis::ScanArena>(std::in_place)
                       : std::nullopt),
        vg_(workspace != nullptr ? workspace->graph() : &*own_),
        arena_(workspace != nullptr ? workspace->scan_arena() : &*own_arena_),
        stats_scope_(vg_, stats) {}

  ScopedQueryGraph(const ScopedQueryGraph&) = delete;
  ScopedQueryGraph& operator=(const ScopedQueryGraph&) = delete;

  vis::VisGraph* get() { return vg_; }

  /// Pooled scan state for every DijkstraScan of this query.
  vis::ScanArena* arena() { return arena_; }

 private:
  std::optional<vis::VisGraph> own_;
  std::optional<vis::ScanArena> own_arena_;
  vis::VisGraph* vg_;
  vis::ScanArena* arena_;
  GraphStatsScope stats_scope_;
};

/// Snapshot of a Pager's fault/hit/prefetch counters for delta accounting.
class PagerDelta {
 public:
  explicit PagerDelta(const storage::Pager& pager)
      : pager_(pager),
        faults0_(pager.faults()),
        hits0_(pager.hits()),
        prefetch_issued0_(pager.prefetch_issued()),
        prefetch_hits0_(pager.prefetch_hits()),
        prefetch_wasted0_(pager.prefetch_wasted()) {}

  uint64_t faults() const { return pager_.faults() - faults0_; }
  uint64_t hits() const { return pager_.hits() - hits0_; }
  uint64_t prefetch_issued() const {
    return pager_.prefetch_issued() - prefetch_issued0_;
  }
  uint64_t prefetch_hits() const {
    return pager_.prefetch_hits() - prefetch_hits0_;
  }
  uint64_t prefetch_wasted() const {
    return pager_.prefetch_wasted() - prefetch_wasted0_;
  }

 private:
  const storage::Pager& pager_;
  uint64_t faults0_;
  uint64_t hits0_;
  uint64_t prefetch_issued0_;
  uint64_t prefetch_hits0_;
  uint64_t prefetch_wasted0_;
};

/// Folds a delta's async-pipeline counters into \p stats.  Additive, so the
/// deltas of several trees (data + obstacle, or join operands) stack.
inline void AddPrefetchStats(const PagerDelta& io, QueryStats* stats) {
  stats->prefetch_issued += io.prefetch_issued();
  stats->prefetch_hits += io.prefetch_hits();
  stats->prefetch_wasted += io.prefetch_wasted();
}

}  // namespace internal
}  // namespace core
}  // namespace conn

#endif  // CONN_CORE_ENGINE_INTERNAL_H_
