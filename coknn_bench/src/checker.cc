#include "checker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <random>
#include <sstream>

#include "core/naive.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "rtree/str_bulk_load.h"

namespace coknn_bench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kInteriorEps = 1e-7;  // the engine's interior shrink

/// Distances agree when within 1e-6 relative or 1e-5 absolute: far below
/// the 1 % the self-test corrupts by, far above double rounding on paths
/// of a few dozen legs in a 10^4 workspace.
bool Near(double a, double b) {
  return std::abs(a - b) <= 1e-5 + 1e-6 * std::max(std::abs(a), std::abs(b));
}

double Euclid(Vec2 a, Vec2 b) { return std::hypot(a.x - b.x, a.y - b.y); }

/// Liang-Barsky clip of [a, b] against \p r; true iff they share a piece of
/// positive parameter length (\p strict) or any point (!strict).
bool Clip(Vec2 a, Vec2 b, const Rect& r, bool strict) {
  if (r.lo.x > r.hi.x || r.lo.y > r.hi.y) return false;
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  double t0 = 0.0;
  double t1 = 1.0;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {a.x - r.lo.x, r.hi.x - a.x, a.y - r.lo.y,
                       r.hi.y - a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) return false;
      continue;
    }
    const double t = q[i] / p[i];
    if (p[i] < 0.0) {
      t0 = std::max(t0, t);
    } else {
      t1 = std::min(t1, t);
    }
    if (t0 > t1) return false;
  }
  return strict ? t1 - t0 > 0.0 : true;
}

Rect Shrunk(const Rect& r) {
  return Rect({r.lo.x + kInteriorEps, r.lo.y + kInteriorEps},
              {r.hi.x - kInteriorEps, r.hi.y - kInteriorEps});
}

/// The vertices of one answer's search region with a lazily filled
/// corner-to-corner visibility matrix, shared by every position checked on
/// that answer (positions of one segment see mostly the same corners).
class RegionGraph {
 public:
  RegionGraph(const BruteForce& bf, const Rect& region) : bf_(bf) {
    for (const BruteForce::Vertex& v : bf.VerticesIn(region)) {
      pos_.push_back(v.pos);
      point_.push_back(v.point);
    }
    if (pos_.size() <= kMaxCached) vis_.assign(pos_.size() * pos_.size(), 0);
  }

  std::vector<std::pair<int64_t, double>> Within(Vec2 s, double radius) {
    const size_t n = pos_.size();
    std::vector<double> dist(n, kInf);
    std::vector<char> done(n, 0);
    using Item = std::pair<double, uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    for (uint32_t v = 0; v < n; ++v) {
      const double e = Euclid(s, pos_[v]);
      if (e <= radius && !bf_.Blocked(s, pos_[v])) {
        dist[v] = e;
        heap.push({e, v});
      }
    }
    std::vector<std::pair<int64_t, double>> out;
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (done[u]) continue;
      done[u] = 1;
      if (point_[u] >= 0) {
        // Paths never bend at a data point, so points are not expanded.
        out.emplace_back(point_[u], d);
        continue;
      }
      for (uint32_t w = 0; w < n; ++w) {
        if (done[w]) continue;
        const double nd = d + Euclid(pos_[u], pos_[w]);
        if (nd > radius || nd >= dist[w]) continue;
        if (!Visible(u, w)) continue;
        dist[w] = nd;
        heap.push({nd, w});
      }
    }
    return out;  // ascending: Dijkstra settles in distance order
  }

 private:
  static constexpr size_t kMaxCached = 6000;

  bool Visible(uint32_t u, uint32_t w) {
    if (vis_.empty()) return !bf_.Blocked(pos_[u], pos_[w]);
    uint8_t& c = vis_[static_cast<size_t>(u) * pos_.size() + w];
    if (c == 0) {
      c = bf_.Blocked(pos_[u], pos_[w]) ? 2 : 1;
      vis_[static_cast<size_t>(w) * pos_.size() + u] = c;
    }
    return c == 1;
  }

  const BruteForce& bf_;
  std::vector<Vec2> pos_;
  std::vector<int64_t> point_;
  std::vector<uint8_t> vis_;  // 0 unknown, 1 visible, 2 blocked
};

}  // namespace

BruteForce::BruteForce(const Scene& scene) : scene_(scene) {
  bounds_ = Rect::Empty();
  for (const Rect& r : scene.obstacles) {
    bounds_.lo.x = std::min(bounds_.lo.x, r.lo.x);
    bounds_.lo.y = std::min(bounds_.lo.y, r.lo.y);
    bounds_.hi.x = std::max(bounds_.hi.x, r.hi.x);
    bounds_.hi.y = std::max(bounds_.hi.y, r.hi.y);
  }
  if (!bounds_.IsValid()) bounds_ = Rect({0, 0}, {1, 1});
  cell_w_ = std::max(bounds_.Width() / kCells, 1e-9);
  cell_h_ = std::max(bounds_.Height() / kCells, 1e-9);
  cell_obstacles_.resize(kCells * kCells);
  for (uint32_t i = 0; i < scene.obstacles.size(); ++i) {
    int x0, y0, x1, y1;
    CellRange(scene.obstacles[i], &x0, &y0, &x1, &y1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) cell_obstacles_[y * kCells + x].push_back(i);
    }
  }
  stamp_.assign(scene.obstacles.size(), 0);
}

void BruteForce::CellRange(const Rect& r, int* x0, int* y0, int* x1,
                           int* y1) const {
  auto cx = [&](double x) {
    return std::clamp(static_cast<int>((x - bounds_.lo.x) / cell_w_), 0,
                      kCells - 1);
  };
  auto cy = [&](double y) {
    return std::clamp(static_cast<int>((y - bounds_.lo.y) / cell_h_), 0,
                      kCells - 1);
  };
  *x0 = cx(r.lo.x);
  *x1 = cx(r.hi.x);
  *y0 = cy(r.lo.y);
  *y1 = cy(r.hi.y);
}

bool BruteForce::Blocked(Vec2 a, Vec2 b) const {
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  int x0, y0, x1, y1;
  CellRange(Rect::FromCorners(a, b), &x0, &y0, &x1, &y1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const Rect cell({bounds_.lo.x + x * cell_w_, bounds_.lo.y + y * cell_h_},
                      {bounds_.lo.x + (x + 1) * cell_w_,
                       bounds_.lo.y + (y + 1) * cell_h_});
      if (x0 != x1 && y0 != y1 && !Clip(a, b, cell, /*strict=*/false)) {
        continue;
      }
      for (uint32_t i : cell_obstacles_[y * kCells + x]) {
        if (stamp_[i] == epoch_) continue;
        stamp_[i] = epoch_;
        if (Clip(a, b, Shrunk(scene_.obstacles[i]), /*strict=*/true)) {
          return true;
        }
      }
    }
  }
  return false;
}

bool BruteForce::InsideObstacle(Vec2 p) const {
  int x0, y0, x1, y1;
  CellRange(Rect::FromPoint(p), &x0, &y0, &x1, &y1);
  for (uint32_t i : cell_obstacles_[y0 * kCells + x0]) {
    const Rect s = Shrunk(scene_.obstacles[i]);
    if (s.lo.x < p.x && p.x < s.hi.x && s.lo.y < p.y && p.y < s.hi.y) {
      return true;
    }
  }
  return false;
}

std::vector<BruteForce::Vertex> BruteForce::VerticesIn(
    const Rect& region) const {
  std::vector<Vertex> out;
  auto inside = [&](Vec2 p) {
    return region.lo.x <= p.x && p.x <= region.hi.x && region.lo.y <= p.y &&
           p.y <= region.hi.y;
  };
  for (const Rect& r : scene_.obstacles) {
    for (Vec2 c : {r.lo, Vec2{r.hi.x, r.lo.y}, r.hi, Vec2{r.lo.x, r.hi.y}}) {
      if (inside(c)) out.push_back({c, -1});
    }
  }
  for (size_t i = 0; i < scene_.points.size(); ++i) {
    if (inside(scene_.points[i])) {
      out.push_back({scene_.points[i], static_cast<int64_t>(i)});
    }
  }
  return out;
}

std::vector<std::pair<int64_t, double>> BruteForce::Within(
    Vec2 s, double radius, const Rect& region) const {
  RegionGraph graph(*this, region);
  return graph.Within(s, radius);
}

Verdict CheckAnswer(const conn::core::CoknnResult& answer,
                    const BruteForce& oracle, size_t sampled_positions,
                    uint64_t seed) {
  Verdict v;
  auto fail = [&v](const std::string& why) {
    v.ok = false;
    v.why = why;
    return v;
  };
  const Segment& q = answer.query;
  const double len = q.Length();
  const size_t k = answer.k;
  const auto& points = oracle.scene().points;

  // 1. The tuples and the unreachable set partition [0, |q|] in order.
  struct Piece {
    double lo, hi;
    bool tuple;
  };
  std::vector<Piece> pieces;
  for (const auto& t : answer.tuples) pieces.push_back({t.range.lo, t.range.hi, true});
  for (const auto& u : answer.unreachable.intervals()) {
    pieces.push_back({u.lo, u.hi, false});
  }
  for (size_t i = 1; i < answer.tuples.size(); ++i) {
    if (answer.tuples[i].range.lo < answer.tuples[i - 1].range.lo) {
      return fail("tuples out of order");
    }
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.lo < b.lo; });
  const double gap = 1e-6 * std::max(1.0, len);
  if (pieces.empty()) return fail("empty answer");
  if (std::abs(pieces.front().lo) > gap) return fail("partition starts late");
  if (std::abs(pieces.back().hi - len) > gap) return fail("partition ends early");
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (pieces[i].hi < pieces[i].lo) return fail("inverted interval");
    if (i > 0 && std::abs(pieces[i].lo - pieces[i - 1].hi) > gap) {
      return fail("gap or overlap in the partition");
    }
  }

  // 2. Unreachable stretches lie inside obstacles.
  for (const auto& u : answer.unreachable.intervals()) {
    if (!oracle.InsideObstacle(q.At(u.Mid()))) {
      return fail("unreachable midpoint outside every obstacle");
    }
  }

  // Positions: every tuple midpoint, then seeded samples inside tuples.
  struct Position {
    double t;
    const conn::core::CoknnTuple* tuple;
    bool midpoint;
  };
  std::vector<Position> positions;
  for (const auto& t : answer.tuples) positions.push_back({t.range.Mid(), &t, true});
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t i = 0; i < sampled_positions && !answer.tuples.empty(); ++i) {
    const auto& t = answer.tuples[rng() % answer.tuples.size()];
    positions.push_back({t.range.lo + unit(rng) * t.range.Length(), &t, false});
  }

  // 3. Per-position properties; the brute-force radius is the largest
  //    reported distance (whole scene where a tuple is underfull).
  std::vector<std::vector<double>> reported(positions.size());
  double radius = 0.0;
  for (size_t i = 0; i < positions.size(); ++i) {
    const Position& p = positions[i];
    const Vec2 s = q.At(p.t);
    std::vector<int64_t> ids;
    for (const auto& c : p.tuple->candidates) {
      if (c.pid < 0 || static_cast<size_t>(c.pid) >= points.size()) {
        return fail("candidate id out of range");
      }
      ids.push_back(c.pid);
      const double d = c.offset + Euclid(c.cp, s);
      if (d < Euclid(s, points[c.pid]) - 1e-6 * std::max(1.0, d)) {
        return fail("distance below the Euclidean distance");
      }
      reported[i].push_back(d);
    }
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      return fail("duplicate candidate id");
    }
    if (ids.size() > k) return fail("more than k candidates");
    if (p.midpoint) {
      for (size_t j = 1; j < reported[i].size(); ++j) {
        if (reported[i][j] < reported[i][j - 1] &&
            !Near(reported[i][j], reported[i][j - 1])) {
          return fail("candidates not sorted at the midpoint");
        }
      }
    }
    radius = ids.size() < k
                 ? kInf
                 : std::max(radius, *std::max_element(reported[i].begin(),
                                                      reported[i].end()));
  }
  if (positions.empty()) return v;

  // 4. Ranked distances and each neighbour's distance against the brute
  //    force, on one region graph for the whole answer.
  const double r = radius == kInf ? kInf : radius * (1 + 1e-6) + 1e-3;
  Rect region = Rect::FromCorners(q.a, q.b);
  if (r == kInf) {
    region = Rect({-kInf, -kInf}, {kInf, kInf});
  } else {
    region = Rect({region.lo.x - r, region.lo.y - r},
                  {region.hi.x + r, region.hi.y + r});
  }
  RegionGraph graph(oracle, region);
  for (size_t i = 0; i < positions.size(); ++i) {
    const Position& p = positions[i];
    const auto truth = graph.Within(q.At(p.t), r);
    ++v.positions;
    std::vector<double> got = reported[i];
    std::sort(got.begin(), got.end());
    const size_t expect = std::min(k, truth.size());
    std::ostringstream where;
    where << " at t=" << p.t << " of " << len;
    if (got.size() != expect) {
      return fail("reported " + std::to_string(got.size()) +
                  " neighbours, brute force finds " + std::to_string(expect) +
                  where.str());
    }
    for (size_t j = 0; j < got.size(); ++j) {
      if (!Near(got[j], truth[j].second)) {
        std::ostringstream os;
        os << "rank " << j << " distance " << got[j] << " != brute force "
           << truth[j].second << " (point " << truth[j].first << ")"
           << where.str();
        return fail(os.str());
      }
    }
    for (size_t j = 0; j < p.tuple->candidates.size(); ++j) {
      const int64_t id = p.tuple->candidates[j].pid;
      const auto it = std::find_if(truth.begin(), truth.end(),
                                   [id](const auto& e) { return e.first == id; });
      const double d = reported[i][j];
      if (it == truth.end() || !Near(it->second, d)) {
        return fail("neighbour " + std::to_string(id) + " distance differs" +
                    where.str());
      }
    }
  }
  return v;
}

bool SameAnswer(const conn::core::CoknnResult& a,
                const conn::core::CoknnResult& b) {
  if (!(a.query == b.query) || a.k != b.k || !(a.unreachable == b.unreachable) ||
      a.tuples.size() != b.tuples.size()) {
    return false;
  }
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    const auto& x = a.tuples[i];
    const auto& y = b.tuples[i];
    if (!(x.range == y.range) || x.candidates.size() != y.candidates.size()) {
      return false;
    }
    for (size_t j = 0; j < x.candidates.size(); ++j) {
      const auto& c = x.candidates[j];
      const auto& d = y.candidates[j];
      if (c.pid != d.pid || !(c.cp == d.cp) || c.offset != d.offset) return false;
    }
  }
  return true;
}

std::string SelfTest() {
  namespace datagen = conn::datagen;
  const datagen::DatasetPair pair =
      datagen::MakeDatasetPair(datagen::PointDistribution::kUniform, 40, 30, 5);
  const Scene scene{pair.points, pair.obstacles};
  const BruteForce bf(scene);

  // The brute force agrees with the repo's NaiveOracle (full global
  // visibility graph) on this scene.
  const conn::core::NaiveOracle naive(pair.points, pair.obstacles);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> coord(0.0, 10000.0);
  const Rect everywhere({-kInf, -kInf}, {kInf, kInf});
  for (int i = 0; i < 12; ++i) {
    const Vec2 s{coord(rng), coord(rng)};
    if (bf.InsideObstacle(s)) continue;
    const auto want = naive.OnnAt(s, 5);
    const auto got = bf.Within(s, kInf, everywhere);
    if (got.size() < want.size()) return "brute force misses reachable points";
    for (size_t j = 0; j < want.size(); ++j) {
      if (!Near(want[j].second, got[j].second)) {
        return "brute force disagrees with NaiveOracle";
      }
    }
  }

  auto tp = conn::rtree::StrBulkLoad(datagen::ToPointObjects(pair.points));
  auto to = conn::rtree::StrBulkLoad(datagen::ToObstacleObjects(pair.obstacles));
  if (!tp.ok() || !to.ok()) return "bulk load failed";
  datagen::WorkloadOptions wopts;
  wopts.query_length = 2500.0;
  const Segment q = datagen::RandomQuerySegment(datagen::Workspace(), wopts, {}, 3);
  const conn::core::CoknnResult good =
      conn::core::CoknnQuery(tp.value(), to.value(), q, 5);
  const Verdict ok = CheckAnswer(good, bf, 8, 1);
  if (!ok.ok) return "known-good answer rejected: " + ok.why;

  // A tuple whose two nearest distances differ clearly at its midpoint.
  const conn::geom::SegmentFrame frame(q);
  size_t at = good.tuples.size();
  for (size_t i = 0; i < good.tuples.size() && at == good.tuples.size(); ++i) {
    const auto& c = good.tuples[i].candidates;
    const double mid = good.tuples[i].range.Mid();
    if (c.size() >= 2 && c[1].Curve(frame).Eval(mid) >
                             c[0].Curve(frame).Eval(mid) * 1.05 + 1.0) {
      at = i;
    }
  }
  if (at == good.tuples.size() || good.tuples.size() < 2) {
    return "self-test scene too small";
  }
  conn::core::CoknnResult swapped = good;
  std::swap(swapped.tuples[at].candidates[0].pid,
            swapped.tuples[at].candidates[1].pid);
  conn::core::CoknnResult off = good;
  {
    auto& c = off.tuples[at].candidates[0];
    c.offset += 0.01 * c.Curve(frame).Eval(good.tuples[at].range.Mid());
  }
  conn::core::CoknnResult dropped = good;
  dropped.tuples.erase(dropped.tuples.begin() + at);
  if (CheckAnswer(swapped, bf, 8, 1).ok) return "swapped neighbour accepted";
  if (CheckAnswer(off, bf, 8, 1).ok) return "distance off by 1 % accepted";
  if (CheckAnswer(dropped, bf, 8, 1).ok) return "dropped tuple accepted";
  return "";
}

}  // namespace coknn_bench
