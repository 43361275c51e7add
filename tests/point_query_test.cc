// Zero-length COkNN queries [p, p] — a point lookup, a parked client —
// against NaiveOracle.  The answer is one [0, 0] tuple holding the k
// obstructed nearest neighbors of p, in both tree configurations, one-shot
// and batched, and on every tick of a subscription client parked at its
// route's end (including ticks the stationary-segment memo re-serves).  A
// p strictly inside an obstacle reaches nothing: no tuple, and
// unreachable = {[0, 0]}.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/coknn.h"
#include "core/conn.h"
#include "core/naive.h"
#include "exec/batch.h"
#include "exec/subscription.h"
#include "test_util.h"

namespace conn {
namespace exec {
namespace {

struct Config {
  uint64_t seed;
  size_t k;
  bool one_tree;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  std::string name = "K";
  name += std::to_string(c.k);
  name += c.one_tree ? "OneTree" : "TwoTrees";
  name += "Seed";
  name += std::to_string(c.seed);
  return name;
}

/// A scene, its trees, and the brute-force oracle over it.
struct World {
  explicit World(uint64_t seed)
      : scene(testutil::MakeScene(seed, 60, 20)),
        tp(testutil::MakePointTree(scene)),
        to(testutil::MakeObstacleTree(scene)),
        unified(testutil::MakeUnifiedTree(scene)),
        oracle(scene.points, scene.obstacles) {}

  core::CoknnResult Query(const geom::Vec2& p, size_t k, bool one_tree) const {
    const geom::Segment q(p, p);
    return one_tree ? core::CoknnQuery1T(unified, q, k)
                    : core::CoknnQuery(tp, to, q, k);
  }

  BatchRunner Runner(bool one_tree, const BatchOptions& opts) const {
    return one_tree ? BatchRunner(unified, opts) : BatchRunner(tp, to, opts);
  }

  /// Query locations outside every obstacle: the scene query's endpoints
  /// plus seeded random points.
  std::vector<geom::Vec2> FreePoints(uint64_t seed, size_t n) const {
    std::vector<geom::Vec2> candidates = {scene.query.a, scene.query.b};
    Rng rng(seed);
    for (size_t i = 0; i < 4 * n; ++i) {
      candidates.push_back(
          {rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
    }
    std::vector<geom::Vec2> free;
    for (const geom::Vec2& p : candidates) {
      bool inside = false;
      for (const geom::Rect& r : scene.obstacles) inside |= r.Contains(p);
      if (!inside) free.push_back(p);
      if (free.size() == n) break;
    }
    return free;
  }

  testutil::Scene scene;
  rtree::RStarTree tp;
  rtree::RStarTree to;
  rtree::RStarTree unified;
  core::NaiveOracle oracle;
};

/// \p r is the single [0, 0] tuple holding the oracle's k nearest of \p p.
void ExpectOracleAnswer(const core::CoknnResult& r, const World& w,
                        const geom::Vec2& p, size_t k) {
  const auto want = w.oracle.OnnAt(p, k);
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_TRUE(r.unreachable.IsEmpty());
  const core::CoknnTuple& tup = r.tuples[0];
  EXPECT_EQ(tup.range.lo, 0.0);
  EXPECT_EQ(tup.range.hi, 0.0);
  ASSERT_EQ(tup.candidates.size(), want.size());
  for (size_t j = 0; j < want.size(); ++j) {
    const double tol = 1e-6 * (1.0 + want[j].second);
    EXPECT_NEAR(r.OdistAt(0.0, j), want[j].second, tol) << "rank " << j;
    // Ids may differ only between equidistant points.
    const size_t pid = static_cast<size_t>(tup.candidates[j].pid);
    EXPECT_NEAR(w.oracle.OdistToPoint(p, pid), want[j].second, tol)
        << "rank " << j;
  }
}

void ExpectUnreachablePoint(const core::CoknnResult& r) {
  EXPECT_TRUE(r.tuples.empty());
  ASSERT_EQ(r.unreachable.size(), 1u);
  EXPECT_EQ(r.unreachable.intervals()[0].lo, 0.0);
  EXPECT_EQ(r.unreachable.intervals()[0].hi, 0.0);
}

void ExpectSameAnswer(const core::CoknnResult& got,
                      const core::CoknnResult& want) {
  EXPECT_EQ(got.unreachable, want.unreachable);
  ASSERT_EQ(got.tuples.size(), want.tuples.size());
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    ASSERT_EQ(got.tuples[i].candidates.size(),
              want.tuples[i].candidates.size());
    for (size_t c = 0; c < got.tuples[i].candidates.size(); ++c) {
      EXPECT_EQ(got.tuples[i].candidates[c].pid,
                want.tuples[i].candidates[c].pid);
      EXPECT_EQ(got.tuples[i].candidates[c].offset,
                want.tuples[i].candidates[c].offset);
    }
  }
}

class PointQuery : public ::testing::TestWithParam<Config> {};

TEST_P(PointQuery, OneShotMatchesOracle) {
  const Config cfg = GetParam();
  const World w(cfg.seed);
  for (const geom::Vec2& p : w.FreePoints(cfg.seed ^ 0x9E37, 6)) {
    SCOPED_TRACE("p=(" + std::to_string(p.x) + ", " + std::to_string(p.y) +
                 ")");
    ExpectOracleAnswer(w.Query(p, cfg.k, cfg.one_tree), w, p, cfg.k);
  }
}

TEST_P(PointQuery, BatchedMatchesOneShotAndOracle) {
  const Config cfg = GetParam();
  const World w(cfg.seed);
  const std::vector<geom::Vec2> points = w.FreePoints(cfg.seed ^ 0x51ED, 8);
  std::vector<BatchQuery> batch;
  for (const geom::Vec2& p : points) {
    batch.push_back(BatchQuery::Coknn(geom::Segment(p, p), cfg.k));
  }
  BatchOptions opts;
  opts.num_threads = 2;
  opts.target_shard_size = 3;
  opts.share_locality_factor = 0.0;  // force sharing
  const BatchResult result = w.Runner(cfg.one_tree, opts).Run(batch);
  ASSERT_EQ(result.outcomes.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(result.outcomes[i].coknn.has_value());
    const core::CoknnResult& got = *result.outcomes[i].coknn;
    ExpectOracleAnswer(got, w, points[i], cfg.k);
    ExpectSameAnswer(got, w.Query(points[i], cfg.k, cfg.one_tree));
  }
}

TEST_P(PointQuery, InsideObstacleIsUnreachable) {
  const Config cfg = GetParam();
  const World w(cfg.seed);
  const geom::Vec2 p = w.scene.obstacles.front().Center();
  ExpectUnreachablePoint(w.Query(p, cfg.k, cfg.one_tree));

  const BatchRunner runner = w.Runner(cfg.one_tree, BatchOptions{});
  const BatchResult batched = runner.Run({BatchQuery::Coknn({p, p}, cfg.k)});
  ExpectUnreachablePoint(*batched.outcomes[0].coknn);

  // The CONN view agrees: nothing reachable, nothing reported.
  const core::ConnResult conn =
      cfg.one_tree ? core::ConnQuery1T(w.unified, {p, p})
                   : core::ConnQuery(w.tp, w.to, {p, p});
  EXPECT_TRUE(conn.tuples.empty());
  EXPECT_EQ(conn.unreachable, batched.outcomes[0].coknn->unreachable);
}

TEST_P(PointQuery, ParkedSubscriptionClientGetsKNeighborsEveryTick) {
  const Config cfg = GetParam();
  const World w(cfg.seed);
  const std::vector<geom::Vec2> ends = w.FreePoints(cfg.seed ^ 0xFA2C, 2);
  ASSERT_EQ(ends.size(), 2u);

  for (const bool repair : {false, true}) {
    SCOPED_TRACE(repair ? "differential repair" : "warm start");
    SubscriptionOptions opts;
    opts.batch.num_threads = 1;
    opts.batch.query.use_tick_warm_start = true;
    opts.batch.query.use_differential_repair = repair;
    SubscriptionService service =
        cfg.one_tree ? SubscriptionService(w.unified, opts)
                     : SubscriptionService(w.tp, w.to, opts);
    // One client drives a short leg and parks at its end on tick 2; the
    // other is stationary (a one-waypoint route) from its first tick.
    const geom::Vec2 start{ends[0].x + 60.0, ends[0].y};
    const int64_t mover =
        service.Subscribe({{start, ends[0]}, /*speed=*/30.0}, cfg.k).value();
    const int64_t parked =
        service.Subscribe({{ends[1]}, /*speed=*/1.0}, cfg.k).value();

    size_t memo_hits = 0;
    for (uint64_t tick = 0; tick < 6; ++tick) {
      const TickResult t = service.Tick();
      ASSERT_EQ(t.updates.size(), 2u);
      for (const ClientUpdate& u : t.updates) {
        ASSERT_TRUE(u.result.has_value());
        const bool at_end = u.client == parked || tick >= 2;
        if (!at_end) continue;
        const geom::Vec2 p = u.client == mover ? ends[0] : ends[1];
        ASSERT_EQ(u.segment, geom::Segment(p, p)) << "tick " << tick;
        SCOPED_TRACE("client " + std::to_string(u.client) + " tick " +
                     std::to_string(tick));
        ExpectOracleAnswer(*u.result, w, p, cfg.k);
        memo_hits += u.result->stats.tick_warm_starts != 0 &&
                     u.result->stats.points_evaluated == 0;
      }
    }
    EXPECT_GT(memo_hits, 0u) << "the memo never re-served a parked tick";
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, PointQuery,
                         ::testing::Values(Config{21, 1, false},
                                           Config{22, 3, false},
                                           Config{23, 5, false},
                                           Config{24, 1, true},
                                           Config{25, 3, true},
                                           Config{26, 5, true}),
                         ConfigName);

}  // namespace
}  // namespace exec
}  // namespace conn
