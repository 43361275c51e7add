// Correctness checker for COkNN answers, independent of the engine.
//
// BruteForce answers obstructed k-NN at one location with an exhaustive
// Dijkstra over the visibility graph of every obstacle corner and data
// point inside a search disk, testing each sight line against every
// obstacle that its grid cells hold.  It shares no code with vis/ or core/
// beyond the Vec2/Rect/Segment value types; its blocking rule is the
// engine's documented one (a sight line is blocked iff it passes through
// an obstacle interior shrunk by 1e-7), written out again here.
//
// Restricting the graph to the disk of radius r around the location is
// sound: a path no longer than r never leaves that disk.  The checker sets
// r from the answer under test (its k-th distance at the location, with a
// small margin) and widens it to the whole scene where the answer holds
// fewer than k neighbours.

#ifndef COKNN_BENCH_CHECKER_H_
#define COKNN_BENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/coknn.h"
#include "geom/box.h"
#include "geom/segment.h"
#include "geom/vec.h"

namespace coknn_bench {

using conn::geom::Rect;
using conn::geom::Segment;
using conn::geom::Vec2;

/// The inputs the checker compares against: P and O in memory.
struct Scene {
  std::vector<Vec2> points;
  std::vector<Rect> obstacles;
};

class BruteForce {
 public:
  explicit BruteForce(const Scene& scene);

  /// True iff the closed segment [a, b] passes through some obstacle's
  /// interior (shrunk by 1e-7).
  bool Blocked(Vec2 a, Vec2 b) const;

  /// True iff \p p lies strictly inside some obstacle.
  bool InsideObstacle(Vec2 p) const;

  /// Obstructed distances from \p s to every data point reachable by a path
  /// of length <= \p radius, as (point id, distance) sorted by distance.
  /// The graph holds the corners and points inside \p region only, which
  /// must contain the disk of radius \p radius around \p s.
  std::vector<std::pair<int64_t, double>> Within(Vec2 s, double radius,
                                                 const Rect& region) const;

  const Scene& scene() const { return scene_; }

  /// One graph vertex: an obstacle corner or a data point.
  struct Vertex {
    Vec2 pos;
    int64_t point = -1;  ///< data point id, -1 for an obstacle corner
  };

  /// Every obstacle corner and data point inside \p region.
  std::vector<Vertex> VerticesIn(const Rect& region) const;

 private:
  void CellRange(const Rect& r, int* x0, int* y0, int* x1, int* y1) const;

  const Scene& scene_;
  static constexpr int kCells = 64;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  Rect bounds_;
  std::vector<std::vector<uint32_t>> cell_obstacles_;
  mutable std::vector<uint32_t> stamp_;  // one Blocked() call's dedupe marks
  mutable uint32_t epoch_ = 0;
};

/// Outcome of checking one answer.
struct Verdict {
  bool ok = true;
  size_t positions = 0;  ///< locations compared against the brute force
  std::string why;       ///< first failed check (empty when ok)
};

/// Checks one COkNN answer: the tuples and the unreachable set partition
/// the segment in order; candidate ids are distinct, sorted by distance at
/// each tuple midpoint and never nearer than Euclidean distance; the
/// unreachable midpoints lie inside obstacles; and at every tuple midpoint
/// plus \p sampled_positions seeded positions the reported ranked distances
/// and every reported neighbour's distance match the brute force.
Verdict CheckAnswer(const conn::core::CoknnResult& answer,
                    const BruteForce& oracle, size_t sampled_positions,
                    uint64_t seed);

/// True iff two answers are bit-identical (tuples, candidates, unreachable
/// set); rounds after the first are compared with it this way.
bool SameAnswer(const conn::core::CoknnResult& a,
                const conn::core::CoknnResult& b);

/// Feeds the checker one known-good answer and three corrupted copies (a
/// swapped neighbour, a distance off by 1 %, a dropped tuple) on a small
/// fixed scene, after confirming that BruteForce agrees with the repo's
/// NaiveOracle there.  Returns an empty string on success, else what went
/// wrong.
std::string SelfTest();

}  // namespace coknn_bench

#endif  // COKNN_BENCH_CHECKER_H_
