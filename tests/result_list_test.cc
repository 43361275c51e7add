// Tests for the result list and its update (RLU, Algorithm 3) at k = 1 —
// the KnnResultList that CONN runs on: interval bookkeeping, winner
// selection, and RLMAX semantics.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/coknn.h"

namespace conn {
namespace core {
namespace {

geom::SegmentFrame TestFrame() {
  return geom::SegmentFrame(geom::Segment({0, 0}, {100, 0}));
}

ControlPointList SelfCpl(geom::Vec2 p, double lo = 0.0, double hi = 100.0) {
  return {CplEntry{true, p, 0.0, geom::Interval(lo, hi)}};
}

/// ONN id at \p t (kNoPoint where unset or outside the domain).
int64_t OnnAt(const KnnResultList& rl, double t) {
  for (const CoknnTuple& tup : rl.tuples()) {
    if (!tup.range.ContainsApprox(t)) continue;
    return tup.candidates.empty() ? kNoPoint : tup.candidates[0].pid;
  }
  return kNoPoint;
}

/// ONN distance at \p t (+infinity where unset or outside the domain).
double OdistAt(const KnnResultList& rl, double t,
               const geom::SegmentFrame& frame) {
  for (const CoknnTuple& tup : rl.tuples()) {
    if (!tup.range.ContainsApprox(t)) continue;
    if (tup.candidates.empty()) break;
    return tup.candidates[0].Curve(frame).Eval(t);
  }
  return std::numeric_limits<double>::infinity();
}

TEST(ResultListTest, StartsUnsetWithInfiniteRlMax) {
  const geom::SegmentFrame frame = TestFrame();
  const KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  ASSERT_EQ(rl.tuples().size(), 1u);
  EXPECT_TRUE(rl.tuples()[0].candidates.empty());
  EXPECT_TRUE(std::isinf(rl.RlMax(frame)));
  EXPECT_EQ(OnnAt(rl, 50.0), kNoPoint);
  EXPECT_TRUE(std::isinf(OdistAt(rl, 50.0, frame)));
}

TEST(ResultListTest, FirstPointTakesEverything) {
  const geom::SegmentFrame frame = TestFrame();
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  rl.Update(7, SelfCpl({50, 10}), frame, nullptr);
  ASSERT_EQ(rl.tuples().size(), 1u);
  EXPECT_EQ(rl.tuples()[0].candidates[0].pid, 7);
  EXPECT_DOUBLE_EQ(OdistAt(rl, 50.0, frame), 10.0);
  // RLMAX = distance at the farther endpoint.
  EXPECT_NEAR(rl.RlMax(frame), std::hypot(50, 10), 1e-12);
}

TEST(ResultListTest, BisectorSplitBetweenTwoPoints) {
  const geom::SegmentFrame frame = TestFrame();
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  rl.Update(1, SelfCpl({30, 10}), frame, nullptr);
  rl.Update(2, SelfCpl({70, 10}), frame, nullptr);
  ASSERT_EQ(rl.tuples().size(), 2u);
  EXPECT_EQ(OnnAt(rl, 10.0), 1);
  EXPECT_EQ(OnnAt(rl, 90.0), 2);
  EXPECT_NEAR(rl.tuples()[0].range.hi, 50.0, 1e-9);
}

TEST(ResultListTest, DominatedChallengerChangesNothing) {
  const geom::SegmentFrame frame = TestFrame();
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  rl.Update(1, SelfCpl({50, 5}), frame, nullptr);
  rl.Update(2, SelfCpl({50, 50}), frame, nullptr);  // strictly farther
  ASSERT_EQ(rl.tuples().size(), 1u);
  ASSERT_EQ(rl.tuples()[0].candidates.size(), 1u);
  EXPECT_EQ(rl.tuples()[0].candidates[0].pid, 1);
  EXPECT_EQ(rl.tuples()[0].range.lo, 0.0);
  EXPECT_EQ(rl.tuples()[0].range.hi, 100.0);
}

TEST(ResultListTest, ChallengerWinsMiddleCreatesThreeEntries) {
  const geom::SegmentFrame frame = TestFrame();
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  rl.Update(1, SelfCpl({50, 30}), frame, nullptr);
  // Control point near the segment with an offset: wins a bounded window
  // around t=50 (Case 2: two split points).
  ControlPointList challenger = {
      CplEntry{true, {50, 2}, 15.0, geom::Interval(0, 100)}};
  rl.Update(2, challenger, frame, nullptr);
  ASSERT_EQ(rl.tuples().size(), 3u);
  EXPECT_EQ(rl.tuples()[0].candidates[0].pid, 1);
  EXPECT_EQ(rl.tuples()[1].candidates[0].pid, 2);
  EXPECT_EQ(rl.tuples()[2].candidates[0].pid, 1);
}

TEST(ResultListTest, MultiPieceDomainKeepsGaps) {
  const geom::SegmentFrame frame = TestFrame();
  KnnResultList rl(
      geom::IntervalSet{std::vector<geom::Interval>{{0, 40}, {60, 100}}}, 1);
  rl.Update(1, SelfCpl({50, 10}), frame, nullptr);
  ASSERT_EQ(rl.tuples().size(), 2u);
  EXPECT_EQ(OnnAt(rl, 50.0), kNoPoint);  // inside the gap
  EXPECT_EQ(OnnAt(rl, 20.0), 1);
  EXPECT_EQ(OnnAt(rl, 80.0), 1);
}

TEST(ResultListTest, PartialCplOnlyAffectsItsIntervals) {
  const geom::SegmentFrame frame = TestFrame();
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  rl.Update(1, SelfCpl({50, 20}), frame, nullptr);
  // A challenger whose CPL covers only [0, 30] (e.g. the rest is blocked).
  ControlPointList partial = {
      CplEntry{true, {10, 1}, 0.0, geom::Interval(0, 30)},
      CplEntry{false, {}, 0.0, geom::Interval(30, 100)}};
  rl.Update(2, partial, frame, nullptr);
  EXPECT_EQ(OnnAt(rl, 10.0), 2);
  EXPECT_EQ(OnnAt(rl, 80.0), 1);
}

TEST(ResultListTest, AdjacentSamePointSameCurveMerges) {
  const geom::SegmentFrame frame = TestFrame();
  KnnResultList rl(geom::IntervalSet{geom::Interval(0, 100)}, 1);
  // Same point, same control point, delivered as two adjacent CPL pieces.
  ControlPointList split_cpl = {
      CplEntry{true, {50, 10}, 0.0, geom::Interval(0, 50)},
      CplEntry{true, {50, 10}, 0.0, geom::Interval(50, 100)}};
  rl.Update(1, split_cpl, frame, nullptr);
  ASSERT_EQ(rl.tuples().size(), 1u);
  EXPECT_DOUBLE_EQ(rl.tuples()[0].range.Length(), 100.0);
}

}  // namespace
}  // namespace core
}  // namespace conn
