#include "exec/batch.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "core/workspace.h"
#include "exec/obstacle_store.h"
#include "exec/sharder.h"
#include "exec/thread_pool.h"
#include "geom/box.h"

namespace conn {
namespace exec {

namespace {

/// Typical spacing between neighboring obstacles in \p tree — the natural
/// length scale of a query's obstacle neighborhood.  Zero/short queries
/// (k-ONN point lookups) have no extent of their own, so the
/// locality guard measures their spread in units of this instead.  For the
/// unified tree (1-tree mode) size() also counts data points, so the value
/// underestimates the true spacing — the guard then errs toward *not*
/// sharing, which is the safe direction; callers needing exact control set
/// BatchOptions::locality_extent_floor.
double ObstacleSpacing(const rtree::RStarTree& tree) {
  if (tree.size() == 0) return 0.0;
  const geom::Rect b = tree.Bounds();
  return std::max(b.Width(), b.Height()) /
         std::sqrt(static_cast<double>(tree.size()));
}

/// The adaptive-sharing locality guard (see BatchOptions).  \p extent_floor
/// keeps the guard meaningful for (near-)degenerate query segments.
bool ShardIsLocal(const std::vector<BatchQuery>& queries,
                  const std::vector<size_t>& shard, const geom::Rect& cover,
                  double factor, double extent_floor) {
  if (factor <= 0.0) return true;
  double max_extent = extent_floor;
  for (size_t idx : shard) {
    const geom::Rect b = queries[idx].segment.Bounds();
    max_extent = std::max({max_extent, b.Width(), b.Height()});
  }
  return std::max(cover.Width(), cover.Height()) <= factor * max_extent;
}

/// Extent floor: a few obstacle spacings — queries that close together
/// overlap in the obstacles they retrieve even when the segments
/// themselves are points.
constexpr double kSpacingFloorFactor = 8.0;

/// \p r grown by margin \p m on every side — the pre-seeding relevance
/// window around a cover (obstacles just outside a query's MBR still fall
/// in its Theorem-2 search range).
geom::Rect ExpandedBy(const geom::Rect& r, double m) {
  return geom::Rect({r.lo.x - m, r.lo.y - m}, {r.hi.x + m, r.hi.y + m});
}

}  // namespace

BatchPlan::BatchPlan() = default;
BatchPlan::~BatchPlan() = default;
BatchPlan::BatchPlan(BatchPlan&&) noexcept = default;
BatchPlan& BatchPlan::operator=(BatchPlan&&) noexcept = default;

BatchRunner::BatchRunner(const rtree::RStarTree& data_tree,
                         const rtree::RStarTree& obstacle_tree,
                         const BatchOptions& opts)
    : data_(&data_tree), obstacles_(&obstacle_tree), opts_(opts) {}

BatchRunner::BatchRunner(const rtree::RStarTree& unified_tree,
                         const BatchOptions& opts)
    : data_(&unified_tree), obstacles_(nullptr), opts_(opts) {}

BatchResult BatchRunner::Run(const std::vector<BatchQuery>& queries) const {
  // A throwaway plan: every shard starts fresh, exactly the original
  // one-shot batch semantics.
  BatchPlan plan;
  return RunPlan(queries, &plan, /*store=*/nullptr);
}

void BatchRunner::Reshard(const std::vector<BatchQuery>& queries,
                          BatchPlan* plan, ObstacleStore* store) const {
  if (store != nullptr) {
    for (BatchPlan::ShardState& state : plan->states_) {
      if (state.workspace != nullptr) {
        state.harvest_mark = store->Harvest(
            state.workspace->graph()->obstacles(), state.harvest_mark);
      }
    }
  }
  std::vector<BatchPlan::ShardState> old_states = std::move(plan->states_);
  plan->states_.clear();
  plan->query_count_ = queries.size();

  std::vector<geom::Segment> segments;
  segments.reserve(queries.size());
  for (const BatchQuery& q : queries) segments.push_back(q.segment);
  for (std::vector<size_t>& shard :
       ShardByLocality(segments, opts_.target_shard_size)) {
    BatchPlan::ShardState state;
    state.members = std::move(shard);
    plan->states_.push_back(std::move(state));
  }

  // Differential repair carries workspaces *through* the reshard: each
  // rebuilt shard adopts the not-yet-taken old workspace whose last served
  // cover overlaps its new cover the most (greedy in shard order, lowest
  // old index on ties, no adoption without overlap).  Any match quality is
  // exact — the adopted graph is a superset of whatever the new members
  // need retrieved, and RunPlan's Covers() check still rebuilds when the
  // new cover escapes the adopted domain.  Without the repair gate old
  // workspaces are dropped as before (the PR 8 reshard semantics).
  if (opts_.query.use_tick_warm_start && opts_.query.use_differential_repair) {
    for (BatchPlan::ShardState& state : plan->states_) {
      const geom::Rect cover = ShardCover(segments, state.members);
      size_t best = old_states.size();
      double best_overlap = 0.0;
      for (size_t i = 0; i < old_states.size(); ++i) {
        if (old_states[i].workspace == nullptr) continue;
        const double overlap = cover.OverlapArea(old_states[i].last_cover);
        if (overlap > best_overlap) {
          best_overlap = overlap;
          best = i;
        }
      }
      if (best == old_states.size()) continue;
      state.workspace = std::move(old_states[best].workspace);
      state.last_cover = old_states[best].last_cover;
      state.reuse_hits_mark = old_states[best].reuse_hits_mark;
      state.obstacles_mark = old_states[best].obstacles_mark;
      state.harvest_mark = old_states[best].harvest_mark;
      ++plan->adopted_pending_;
    }
  }
}

BatchResult BatchRunner::RunPlan(const std::vector<BatchQuery>& queries,
                                 BatchPlan* plan, ObstacleStore* store) const {
  Timer timer;
  BatchResult result;
  result.outcomes.resize(queries.size());
  result.stats.query_count = queries.size();
  if (queries.empty()) return result;
  if (plan->query_count_ != queries.size() || plan->states_.empty()) {
    Reshard(queries, plan, store);
  }
  result.stats.shard_count = plan->states_.size();
  result.stats.workspaces_adopted = plan->adopted_pending_;
  plan->adopted_pending_ = 0;

  std::vector<geom::Segment> segments;
  segments.reserve(queries.size());
  for (const BatchQuery& q : queries) segments.push_back(q.segment);

  const uint64_t data_faults0 = data_->pager().faults();
  const uint64_t data_hits0 = data_->pager().hits();
  const uint64_t obs_faults0 =
      obstacles_ != nullptr ? obstacles_->pager().faults() : 0;
  const uint64_t obs_hits0 =
      obstacles_ != nullptr ? obstacles_->pager().hits() : 0;

  size_t threads = opts_.num_threads != 0
                       ? opts_.num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, plan->states_.size());
  result.stats.threads_used = threads;

  const double extent_floor =
      opts_.locality_extent_floor > 0.0
          ? opts_.locality_extent_floor
          : kSpacingFloorFactor *
                ObstacleSpacing(obstacles_ != nullptr ? *obstacles_ : *data_);
  const bool warm_gate = opts_.query.use_tick_warm_start;
  // Shard workspaces built under the repair gate keep a live settlement
  // log; per-query fallback graphs do not — a short-lived fresh graph has
  // no later query to repair.
  const bool repair_gate = warm_gate && opts_.query.use_differential_repair;

  Mutex stats_mu;
  auto run_shard = [&](BatchPlan::ShardState& state) {
    uint64_t store_hits = 0;
    size_t carried = 0;
    bool share = false;
    if (opts_.share_workspace) {
      const geom::Rect cover = ShardCover(segments, state.members);
      share = ShardIsLocal(queries, state.members, cover,
                           opts_.share_locality_factor, extent_floor);
      if (share) {
        if (warm_gate && state.workspace != nullptr &&
            state.workspace->Covers(cover)) {
          // Cross-run warm path: the carried workspace's domain still
          // covers the (moved) queries, so its graph — a superset of every
          // member's Theorem-2 obstacle set — and its scan arena serve
          // this run as-is.
          carried = 1;
        } else {
          if (state.workspace != nullptr && store != nullptr) {
            store->Harvest(state.workspace->graph()->obstacles(),
                           state.harvest_mark);
          }
          state.workspace = std::make_unique<core::QueryWorkspace>(
              data_, obstacles_, cover, repair_gate);
          state.reuse_hits_mark = 0;
          state.obstacles_mark = 0;
          state.harvest_mark = 0;
          if (store != nullptr) {
            store_hits += store->PreSeed(state.workspace->graph(),
                                         ExpandedBy(cover, extent_floor));
          }
        }
        state.last_cover = cover;
      }
    }
    if (!share && state.workspace != nullptr) {
      // The guard stopped sharing (the shard's queries drifted apart):
      // retire the carried workspace, banking its retrieval in the store.
      if (store != nullptr) {
        store->Harvest(state.workspace->graph()->obstacles(),
                       state.harvest_mark);
      }
      state.workspace.reset();
      state.reuse_hits_mark = 0;
      state.obstacles_mark = 0;
      state.harvest_mark = 0;
    }

    QueryStats shard_totals;
    for (size_t idx : state.members) {
      const BatchQuery& q = queries[idx];
      QueryOutcome& out = result.outcomes[idx];
      core::QueryWorkspace* ws = state.workspace.get();
      // Guard-declined traffic still reuses earlier retrieval: a
      // per-query graph pre-seeded from the cross-shard store.
      std::optional<core::QueryWorkspace> query_ws;
      if (ws == nullptr && store != nullptr && opts_.share_workspace) {
        query_ws.emplace(data_, obstacles_, q.segment.Bounds());
        store_hits += store->PreSeed(
            query_ws->graph(), ExpandedBy(q.segment.Bounds(), extent_floor));
        ws = &*query_ws;
      }
      const core::TickWarmStart warm{q.prior, q.client_tag};
      out.coknn = obstacles_ != nullptr
                      ? core::CoknnQuery(*data_, *obstacles_, q.segment, q.k,
                                         opts_.query, ws, warm)
                      : core::CoknnQuery1T(*data_, q.segment, q.k,
                                           opts_.query, ws, warm);
      QueryStats* out_stats = &out.coknn->stats;
      if (carried != 0) {
        // The query ran on cross-run state: mark it (unless the
        // stationary-segment memo already did) and credit its Dijkstra
        // scans to the carried arena.
        if (out_stats->tick_warm_starts == 0) out_stats->tick_warm_starts = 1;
        out_stats->tick_frontier_reuse += out_stats->dijkstra_runs;
      }
      shard_totals += *out_stats;
      if (query_ws && store != nullptr) {
        store->Harvest(query_ws->graph()->obstacles(), 0);
      }
    }
    shard_totals.cross_shard_store_hits += store_hits;
    if (state.workspace != nullptr && store != nullptr) {
      state.harvest_mark = store->Harvest(
          state.workspace->graph()->obstacles(), state.harvest_mark);
    }

    MutexLock lock(stats_mu);
    result.stats.per_query_totals += shard_totals;
    result.stats.cross_shard_store_hits += store_hits;
    result.stats.shards_carried += carried;
    if (state.workspace != nullptr) {
      result.stats.obstacle_reuse_hits +=
          state.workspace->ObstacleReuseHits() - state.reuse_hits_mark;
      result.stats.obstacles_inserted +=
          state.workspace->ObstacleCount() - state.obstacles_mark;
      state.reuse_hits_mark = state.workspace->ObstacleReuseHits();
      state.obstacles_mark = state.workspace->ObstacleCount();
    }
  };

  // Workers claim shards in FIFO order from a shared cursor; with a
  // single worker the order (and so every counter) is deterministic.
  std::atomic<size_t> next_shard{0};
  auto worker = [&]() {
    for (size_t idx = next_shard.fetch_add(1); idx < plan->states_.size();
         idx = next_shard.fetch_add(1)) {
      run_shard(plan->states_[idx]);
    }
  };

  if (threads <= 1) {
    // Single worker: run inline, sparing the pool round-trip.
    worker();
  } else {
    ThreadPool pool(threads);
    for (size_t t = 0; t < threads; ++t) pool.Submit(worker);
    pool.WaitIdle();
  }

  result.stats.data_page_faults = data_->pager().faults() - data_faults0;
  result.stats.buffer_hits = data_->pager().hits() - data_hits0;
  if (obstacles_ != nullptr) {
    result.stats.obstacle_page_faults =
        obstacles_->pager().faults() - obs_faults0;
    result.stats.buffer_hits += obstacles_->pager().hits() - obs_hits0;
  }
  result.stats.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace exec
}  // namespace conn
