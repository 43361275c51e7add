#include "workloads.h"

#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "datagen/fleet.h"
#include "datagen/workload.h"
#include "exec/subscription.h"
#include "rtree/best_first.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "vis/dijkstra.h"
#include "vis/vis_graph.h"

namespace coknn_bench {
namespace {

namespace datagen = conn::datagen;
using conn::core::CoknnResult;
using conn::rtree::RStarTree;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL + 1;
}

// ---------------------------------------------------------------------------
// Inputs shared by the workloads.

/// The k of every query (Table 2's default).
constexpr size_t kK = 5;

/// Fisher-Yates shuffle of \p v drawn from \p seed.
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  conn::Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.UniformU64(i)]);
  }
}

std::unique_ptr<RStarTree> BulkLoad(std::vector<conn::rtree::DataObject> objs) {
  return std::make_unique<RStarTree>(
      std::move(conn::rtree::StrBulkLoad(std::move(objs)).value()));
}

/// Empties \p tree's buffer (rebuilt as a 2Q pool of \p pages frames, 0 =
/// unbuffered) and zeroes its counters.
void ResetBuffer(RStarTree& tree, size_t pages) {
  conn::storage::BufferOptions opts = tree.pager().buffer_pool().options();
  opts.capacity_pages = pages;
  opts.policy = conn::storage::EvictionPolicy::kTwoQueue;
  tree.pager().ConfigureBuffer(opts);
  tree.pager().ResetCounters();
}

/// Pager counters summed over two trees.
struct PagerCounts {
  uint64_t faults = 0, hits = 0, device_reads = 0, prefetch_issued = 0,
           prefetch_hits = 0;

  PagerCounts(const RStarTree& a, const RStarTree& b) {
    for (const RStarTree* t : {&a, &b}) {
      conn::storage::Pager& p = t->pager();
      faults += p.faults();
      hits += p.hits();
      device_reads += p.file().device_reads();
      prefetch_issued += p.prefetch_issued();
      prefetch_hits += p.prefetch_hits();
    }
  }

  void AddDeltaTo(const PagerCounts& before, OpSample* s) const {
    s->faults += faults - before.faults;
    s->hits += hits - before.hits;
    s->device_reads += device_reads - before.device_reads;
    s->prefetch_issued += prefetch_issued - before.prefetch_issued;
    s->prefetch_hits += prefetch_hits - before.prefetch_hits;
  }
};

// ---------------------------------------------------------------------------
// route_cl and graze: one client issuing COkNN queries back to back.

bool InsideWorkspace(const Segment& q) {
  const Rect ws = datagen::Workspace();
  return ws.Contains(q.a) && ws.Contains(q.b);
}

class RouteWorkload : public Workload {
 public:
  /// Operations are the queries \p segments, issued in an order drawn from
  /// \p order_seed.
  RouteWorkload(std::string about, Scene scene, std::vector<Segment> segments,
                uint64_t order_seed, double buffer_share,
                size_t sampled_positions, bool trace)
      : about_(std::move(about)),
        scene_(std::move(scene)),
        segments_(std::move(segments)),
        sampled_(sampled_positions) {
    Shuffle(&segments_, order_seed);
    tp_ = BulkLoad(datagen::ToPointObjects(scene_.points));
    to_ = BulkLoad(datagen::ToObstacleObjects(scene_.obstacles));
    auto pages = [buffer_share](const RStarTree& t) {
      return static_cast<size_t>(
          std::ceil(buffer_share * static_cast<double>(t.PageCount())));
    };
    tp_pages_ = pages(*tp_);
    to_pages_ = pages(*to_);
    if (trace) {
      // The replay streams from its own unbuffered copies, so it cannot
      // disturb the measured trees' buffers.
      replay_tp_ = BulkLoad(datagen::ToPointObjects(scene_.points));
      replay_to_ = BulkLoad(datagen::ToObstacleObjects(scene_.obstacles));
    }
  }

  size_t OpsPerRound() const override { return segments_.size(); }

  void BeginRound() override {
    ResetBuffer(*tp_, tp_pages_);
    ResetBuffer(*to_, to_pages_);
  }

  OpSample RunOp(size_t i, Tracer* tracer,
                 std::vector<CoknnResult>* answers) override {
    const Segment& q = segments_[i];
    OpSample s;
    const PagerCounts before(*tp_, *to_);
    CoknnResult r;
    {
      Tracer::Scope span(tracer, "core.CoknnQuery");
      const Clock::time_point t0 = Clock::now();
      r = conn::core::CoknnQuery(*tp_, *to_, q, kK);
      s.seconds = SecondsSince(t0);
    }
    PagerCounts(*tp_, *to_).AddDeltaTo(before, &s);
    s.answers = 1;
    s.work = r.stats;
    s.engine_seconds = r.stats.cpu_seconds;
    s.exhaustive = r.stats.points_evaluated >= scene_.points.size() ? 1 : 0;
    if (tracer != nullptr) Replay(q, r.stats, tracer, &s);
    answers->push_back(std::move(r));
    return s;
  }

  const Scene& scene() const override { return scene_; }
  size_t SampledPositions() const override { return sampled_; }

  std::string Describe() const override {
    std::ostringstream os;
    os << about_ << " |P|=" << scene_.points.size()
       << " |O|=" << scene_.obstacles.size() << " queries/round="
       << segments_.size() << " k=" << kK
       << " buffer pages Tp " << tp_pages_ << "/" << tp_->PageCount()
       << " To " << to_pages_ << "/" << to_->PageCount();
    return os.str();
  }

  /// Replays the query's own inputs layer by layer: the NPE nearest points
  /// and NOE nearest obstacles through BestFirstIterator, the obstacles
  /// into a fresh VisGraph, and one DijkstraScan per point to the segment's
  /// endpoints.
  void Replay(const Segment& q, const conn::QueryStats& st, Tracer* tracer,
              OpSample* s) const {
    std::vector<Vec2> points;
    std::vector<conn::rtree::DataObject> obstacles;
    {
      Tracer::Scope span(tracer, "rtree.stream");
      conn::rtree::DataObject o;
      double d = 0.0;
      conn::rtree::BestFirstIterator pit(*replay_tp_, q);
      while (points.size() < st.points_evaluated && pit.Next(&o, &d)) {
        points.push_back(o.AsPoint());
      }
      conn::rtree::BestFirstIterator oit(*replay_to_, q);
      while (obstacles.size() < st.obstacles_evaluated && oit.Next(&o, &d)) {
        obstacles.push_back(o);
      }
    }
    s->streamed = points.size() + obstacles.size();
    conn::vis::VisGraph graph(datagen::Workspace());
    std::vector<conn::vis::VertexId> ends;
    {
      Tracer::Scope span(tracer, "vis.AddObstacle");
      ends = {graph.AddFixedVertex(q.a), graph.AddFixedVertex(q.b)};
      for (const auto& o : obstacles) graph.AddObstacle(o.rect, o.id);
    }
    {
      Tracer::Scope span(tracer, "vis.DijkstraScan");
      conn::vis::ScanArena arena;
      for (const Vec2& p : points) {
        conn::vis::DijkstraScan scan(&graph, p, &arena);
        scan.SettleTargets(ends);
      }
    }
  }

  std::string about_;
  Scene scene_;
  std::vector<Segment> segments_;
  size_t sampled_;
  std::unique_ptr<RStarTree> tp_, to_;
  std::unique_ptr<RStarTree> replay_tp_, replay_to_;
  size_t tp_pages_ = 0;
  size_t to_pages_ = 0;
};

// route_cl: the paper's default experiment (Section 5.1, Table 2) at a
// scale where a run holds well over 100 queries.  Like the paper's CA and
// LA files, the scene is one fixed instance, and so is the query set.  The
// queries' start points are stratified, one near the centre of each cell
// of a 12 x 12 grid over the workspace, so that the set samples the
// scene's dense and sparse regions alike; orientation is uniform and the
// length is ql.
constexpr double kRouteScale = 0.002;
constexpr uint64_t kRouteSceneSeed = 2009;
constexpr uint64_t kRouteQuerySeed = 13;
constexpr size_t kRouteGrid = 12;  // kRouteGrid^2 queries per round
constexpr double kRouteJitter = 0.1;
constexpr double kRouteQlPercent = 4.5;
constexpr double kRouteBufferShare = 0.10;  // of each tree's pages

std::unique_ptr<Workload> MakeRouteCl(uint64_t seed, bool trace) {
  const size_t np = static_cast<size_t>(datagen::kCaCardinality * kRouteScale);
  const size_t no = static_cast<size_t>(datagen::kLaCardinality * kRouteScale);
  datagen::DatasetPair pair = datagen::MakeDatasetPair(
      datagen::PointDistribution::kClustered, np, no, kRouteSceneSeed);
  const double length = datagen::QueryLengthFromPercent(kRouteQlPercent);
  const Rect ws = datagen::Workspace();
  const double cw = ws.Width() / kRouteGrid;
  const double ch = ws.Height() / kRouteGrid;
  std::vector<Segment> segments;
  for (size_t slot = 0; slot < kRouteGrid * kRouteGrid; ++slot) {
    // The start lies within kRouteJitter of a cell width of the cell's
    // centre; the segment is redrawn until it ends inside the workspace.
    conn::Rng rng(Mix(kRouteQuerySeed, slot));
    for (;;) {
      const Vec2 a{
          ws.lo.x + cw * (static_cast<double>(slot % kRouteGrid) + 0.5 +
                          kRouteJitter * rng.Uniform(-1.0, 1.0)),
          ws.lo.y + ch * (static_cast<double>(slot / kRouteGrid) + 0.5 +
                          kRouteJitter * rng.Uniform(-1.0, 1.0))};
      const double angle = rng.Uniform(0.0, 2 * M_PI);
      const Segment q{a, a + Vec2{std::cos(angle), std::sin(angle)} * length};
      if (InsideWorkspace(q)) {
        segments.push_back(q);
        break;
      }
    }
  }
  std::ostringstream about;
  about << "clustered P and street O (scale " << kRouteScale << ", seed "
        << kRouteSceneSeed << "), ql " << kRouteQlPercent
        << "% queries (seed " << kRouteQuerySeed << ") starting near the cell "
        << "centres of a " << kRouteGrid << "x" << kRouteGrid
        << " grid, 2Q buffer at " << kRouteBufferShare * 100 << "% of pages;";
  return std::make_unique<RouteWorkload>(
      about.str(), Scene{std::move(pair.points), std::move(pair.obstacles)},
      std::move(segments), seed, kRouteBufferShare,
      /*sampled_positions=*/2, trace);
}

// graze: a small scene with fixed degenerate inputs.
constexpr size_t kGrazePoints = 60;
constexpr size_t kGrazeObstacles = 130;
constexpr uint64_t kGrazeSceneSeed = 99;
constexpr uint64_t kGrazeQuerySeed = 17;
constexpr double kGrazeSlopes[] = {1e-5, 1e-4, 1e-3, 4e-3};
constexpr size_t kGrazeShallow = 8;
constexpr size_t kGrazeSteep = 150;

std::unique_ptr<Workload> MakeGraze(uint64_t seed, bool trace) {
  datagen::DatasetPair pair = datagen::MakeDatasetPair(
      datagen::PointDistribution::kUniform, kGrazePoints, kGrazeObstacles,
      kGrazeSceneSeed);
  const std::vector<Rect> obs = pair.obstacles;

  // Shallow entries: the segment runs 100 units along a long horizontal
  // edge, just outside it, and crosses into the street at the edge's
  // middle.  Alternate segments come from the left along the bottom edge
  // and from the right along the top edge.
  std::vector<Segment> segments;
  for (size_t i = 0; i < obs.size() && segments.size() < kGrazeShallow; ++i) {
    const Rect& r = obs[i];
    if (r.Width() < 120.0 || r.Height() < 2.0) continue;
    const double slope =
        kGrazeSlopes[segments.size() % std::size(kGrazeSlopes)];
    const bool from_left = segments.size() % 2 == 0;
    const Vec2 entry{r.lo.x + 0.5 * r.Width(), from_left ? r.lo.y : r.hi.y};
    const Vec2 dir = from_left ? Vec2{1.0, slope} : Vec2{-1.0, -slope};
    const Segment q{entry - dir * 100.0, entry + dir * (0.4 * r.Width())};
    if (InsideWorkspace(q)) segments.push_back(q);
  }
  // These shallow entries and the parked client below depend on nothing
  // but the constants above.  A parked client: the zero-length segment at
  // the first free spot of a fixed scan.
  for (double x = 5000.0;; x += 7.0) {
    const Vec2 p{x, 5000.0};
    bool free = true;
    for (const Rect& r : obs) free = free && !r.Contains(p);
    if (free) {
      segments.push_back({p, p});
      break;
    }
  }

  // Steep crossings through obstacle centres (even slots) and passes
  // through obstacle corners (odd slots), at 30-60 degrees to the axes.
  // Slots cycle through the obstacles.
  for (size_t slot = 0; slot < kGrazeSteep; ++slot) {
    conn::Rng rng(Mix(kGrazeQuerySeed, slot));
    // An obstacle at the workspace's edge may admit no segment inside it:
    // after 64 candidates the slot moves on to the next obstacle.
    for (uint64_t attempt = 0;; ++attempt) {
      const Rect& r = obs[(slot + attempt / 64) % obs.size()];
      const double angle = rng.Uniform(M_PI / 6, M_PI / 3) +
                           M_PI / 2 * static_cast<double>(rng.UniformU64(4));
      const Vec2 dir{std::cos(angle), std::sin(angle)};
      const Vec2 corners[4] = {r.lo, {r.hi.x, r.lo.y}, r.hi, {r.lo.x, r.hi.y}};
      const Vec2 through =
          slot % 2 == 1 ? corners[rng.UniformU64(4)] : r.Center();
      const Segment q{through - dir * 100.0, through + dir * 100.0};
      if (InsideWorkspace(q)) {
        segments.push_back(q);
        break;
      }
    }
  }
  std::ostringstream about;
  about << "uniform P and street O (seed " << kGrazeSceneSeed << "): "
        << kGrazeShallow << " shallow entries (slopes 1e-5..4e-3), 1 point "
        << "query, " << kGrazeSteep << " steep crossings and corner passes "
        << "(seed " << kGrazeQuerySeed << "); unbuffered;";
  return std::make_unique<RouteWorkload>(
      about.str(), Scene{std::move(pair.points), std::move(pair.obstacles)},
      std::move(segments), seed, /*buffer_share=*/0.0,
      /*sampled_positions=*/8, trace);
}

// ---------------------------------------------------------------------------
// fleet_ticks: the subscription service's tick loop over a fixed scene
// (uniform P, the LA stand-in for O) and fixed fleets.
constexpr double kFleetScale = 0.05;
constexpr uint64_t kFleetSceneSeed = 4242;
constexpr size_t kFleetClients = 48;
constexpr uint64_t kFleetTicks = 112;     // ticks per round
constexpr uint64_t kFleetEpisodes = 4;    // fresh services per round
constexpr uint64_t kEpisodeTicks = kFleetTicks / kFleetEpisodes;
constexpr uint64_t kChurnPeriod = 8;      // ticks between churn steps
constexpr size_t kChurnClients = 6;       // unsubscribed + subscribed per step
constexpr size_t kFleetWorkers = 2;
constexpr size_t kFleetDepots = 6;
constexpr double kDepotRadius = 400.0;
constexpr size_t kFleetWaypoints = 16;    // ~6,000 units of route
constexpr double kLegLength = 400.0;
constexpr double kBaseSpeed = 16.0;
constexpr double kFleetMargin = 500.0;
constexpr uint64_t kFleetTemplateSeed = 77;
constexpr uint64_t kFleetStartSeed = 5;
constexpr size_t kRoutesPerEpisode =
    kFleetClients + kChurnClients * ((kEpisodeTicks - 1) / kChurnPeriod);

/// \p n routes around kFleetDepots fixed depots.  Route i's depot, leg
/// headings (uniform), leg lengths (0.5-1.5 x kLegLength), dyadic speed
/// (kBaseSpeed x 1/2, 1 or 2) and start within kDepotRadius of its depot
/// are drawn from i alone.  Routes stay kFleetMargin inside the workspace:
/// a client running at x = 6..65 inserted 6,126 of the 6,573 obstacles for
/// one 64-unit slice, a two-minute tick (see README.md).
std::vector<datagen::FleetRoute> DepotFleet(size_t n) {
  const Rect ws = datagen::Workspace();
  const Rect inner({ws.lo.x + kFleetMargin, ws.lo.y + kFleetMargin},
                   {ws.hi.x - kFleetMargin, ws.hi.y - kFleetMargin});
  auto clamp = [&inner](Vec2 p) {
    return Vec2{std::clamp(p.x, inner.lo.x, inner.hi.x),
                std::clamp(p.y, inner.lo.y, inner.hi.y)};
  };
  std::vector<datagen::FleetRoute> routes(n);
  for (size_t i = 0; i < n; ++i) {
    conn::Rng shape(Mix(kFleetTemplateSeed, i));
    conn::Rng start(Mix(kFleetStartSeed, i));
    const size_t d = i % kFleetDepots;
    // Depots on a 2 x (kFleetDepots / 2) grid over the workspace.
    const Vec2 depot{
        ws.lo.x + ws.Width() * (0.5 + static_cast<double>(d / 2)) /
                      static_cast<double>(kFleetDepots / 2),
        ws.lo.y + ws.Height() * (0.25 + 0.5 * static_cast<double>(d % 2))};
    const double angle = start.Uniform(0.0, 2 * M_PI);
    const double radius = kDepotRadius * std::sqrt(start.NextDouble());
    Vec2 pos = clamp(depot + Vec2{std::cos(angle), std::sin(angle)} * radius);
    routes[i].waypoints.push_back(pos);
    for (size_t w = 1; w < kFleetWaypoints; ++w) {
      const double heading = shape.Uniform(0.0, 2 * M_PI);
      const double len = kLegLength * shape.Uniform(0.5, 1.5);
      pos = clamp(pos + Vec2{std::cos(heading), std::sin(heading)} * len);
      routes[i].waypoints.push_back(pos);
    }
    routes[i].speed =
        std::ldexp(kBaseSpeed, static_cast<int>(shape.UniformU64(3)) - 1);
  }
  return routes;
}

class FleetWorkload : public Workload {
 public:
  /// The round's episodes run in an order drawn from \p seed.
  explicit FleetWorkload(uint64_t seed) : episodes_(kFleetEpisodes) {
    const size_t np =
        static_cast<size_t>(datagen::kCaCardinality * kFleetScale);
    const size_t no =
        static_cast<size_t>(datagen::kLaCardinality * kFleetScale);
    datagen::DatasetPair pair = datagen::MakeDatasetPair(
        datagen::PointDistribution::kUniform, np, no, kFleetSceneSeed);
    scene_ = Scene{std::move(pair.points), std::move(pair.obstacles)};
    tp_ = BulkLoad(datagen::ToPointObjects(scene_.points));
    to_ = BulkLoad(datagen::ToObstacleObjects(scene_.obstacles));

    for (datagen::FleetRoute& r :
         DepotFleet(kFleetEpisodes * kRoutesPerEpisode)) {
      routes_.push_back({std::move(r.waypoints), r.speed});
    }
    std::iota(episodes_.begin(), episodes_.end(), 0);
    Shuffle(&episodes_, seed);

    opts_.batch.num_threads = kFleetWorkers;
    opts_.batch.target_shard_size = 8;
    // Share every shard's workspace: the tick loop's carried state is what
    // this workload measures, not the locality guard's fallback.
    opts_.batch.share_locality_factor = 0.0;
    opts_.batch.query.use_tick_warm_start = true;
    opts_.batch.query.use_differential_repair = true;
    opts_.reshard_period = 4;
  }

  size_t OpsPerRound() const override { return kFleetTicks; }

  void BeginRound() override {
    ResetBuffer(*tp_, tp_->PageCount());
    ResetBuffer(*to_, to_->PageCount());
    StartEpisode(episodes_[0]);
  }

  OpSample RunOp(size_t i, Tracer* tracer,
                 std::vector<CoknnResult>* answers) override {
    OpSample s;
    const uint64_t episode_tick = i % kEpisodeTicks;
    if (i > 0 && episode_tick == 0) {
      StartEpisode(episodes_[i / kEpisodeTicks]);
    }
    if (episode_tick > 0 && episode_tick % kChurnPeriod == 0) {
      const Clock::time_point t0 = Clock::now();
      for (size_t j = 0; j < kChurnClients; ++j) {
        {
          Tracer::Scope span(tracer, "exec.Unsubscribe");
          (void)service_->Unsubscribe(live_.front());
        }
        live_.pop_front();
        Subscribe(tracer);
      }
      s.churn_seconds = SecondsSince(t0);
    }
    const PagerCounts before(*tp_, *to_);
    conn::exec::TickResult tick;
    {
      Tracer::Scope span(tracer, "exec.Tick");
      const Clock::time_point t0 = Clock::now();
      tick = service_->Tick();
      s.seconds = SecondsSince(t0);
    }
    PagerCounts(*tp_, *to_).AddDeltaTo(before, &s);
    for (conn::exec::ClientUpdate& u : tick.updates) {
      if (!u.status.ok() || !u.result.has_value()) {
        ++s.errors;
        continue;
      }
      const conn::QueryStats& st = u.result->stats;
      ++s.answers;
      s.work += st;
      s.engine_seconds += st.cpu_seconds;
      // The stationary memo re-serves a client whose slice did not move.
      auto [last, first_tick] = last_segment_.try_emplace(u.client, u.segment);
      if (!first_tick && last->second == u.segment) ++s.memo_hits;
      last->second = u.segment;
      if (st.points_evaluated >= scene_.points.size()) ++s.exhaustive;
      answers->push_back(std::move(*u.result));
    }
    s.shards = tick.stats.shard_count;
    s.reuse_hits = tick.stats.obstacle_reuse_hits;
    s.store_hits = tick.stats.cross_shard_store_hits;
    s.adopted = tick.stats.workspaces_adopted;
    s.workers = tick.stats.threads_used;
    return s;
  }

  const Scene& scene() const override { return scene_; }
  size_t SampledPositions() const override { return 1; }

  std::string Describe() const override {
    std::ostringstream os;
    os << "uniform P, street O, clustered depot fleet (" << kFleetWaypoints
       << "-waypoint routes); |P|=" << scene_.points.size()
       << " |O|=" << scene_.obstacles.size() << " clients=" << kFleetClients
       << " ticks/round=" << kFleetTicks << " in " << kFleetEpisodes
       << " episodes, churn " << kChurnClients
       << " every " << kChurnPeriod << " ticks, workers=" << kFleetWorkers
       << " k=" << kK << " buffer = whole index (" << tp_->PageCount() << "+"
       << to_->PageCount() << " pages)";
    return os.str();
  }

 private:
  /// A fresh service over the cached index, subscribing episode \p e's
  /// first kFleetClients routes.  A round runs kFleetEpisodes episodes of
  /// different fleets: the carried workspaces' growth makes one fleet's
  /// tick latency swing with its routes, and four fleets average that out.
  void StartEpisode(uint64_t e) {
    service_.reset();
    service_ =
        std::make_unique<conn::exec::SubscriptionService>(*tp_, *to_, opts_);
    live_.clear();
    last_segment_.clear();
    next_route_ = e * kRoutesPerEpisode;
    for (size_t i = 0; i < kFleetClients; ++i) Subscribe(nullptr);
  }

  void Subscribe(Tracer* tracer) {
    Tracer::Scope span(tracer, "exec.Subscribe");
    live_.push_back(
        service_->Subscribe(routes_.at(next_route_++), kK).value());
  }

  Scene scene_;
  std::unique_ptr<RStarTree> tp_, to_;
  std::vector<conn::exec::RouteSpec> routes_;
  std::vector<uint64_t> episodes_;  // the round's episode order
  conn::exec::SubscriptionOptions opts_;
  std::unique_ptr<conn::exec::SubscriptionService> service_;
  std::deque<int64_t> live_;
  std::map<int64_t, Segment> last_segment_;  // client id -> last slice
  size_t next_route_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"route_cl", "fleet_ticks",
                                                 "graze"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool trace) {
  if (name == "route_cl") return MakeRouteCl(seed, trace);
  if (name == "fleet_ticks") return std::make_unique<FleetWorkload>(seed);
  if (name == "graze") return MakeGraze(seed, trace);
  return nullptr;
}

}  // namespace coknn_bench
