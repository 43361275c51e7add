// Hint staging: Pager::Prefetch accounting at the storage layer, and —
// the correctness bar of staging — bit-identical engine results with
// BufferOptions::stage_hints on vs off, across point distributions,
// eviction policies, and worker counts.  Staging is synchronous, so a
// staged run is also exactly reproducible: its fault/hit/prefetch counters
// repeat run to run.  Runs under the tsan preset (label "exec"): the
// multi-worker configs stage pages from several query threads into one
// pool.  The AsyncPipelineTest / AsyncEquivalence suite names date from
// when staging ran on I/O worker threads; they are kept so test ids stay
// comparable across history.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/coknn.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "exec/batch.h"
#include "rtree/str_bulk_load.h"
#include "storage/pager.h"
#include "storage_test_util.h"

namespace conn {
namespace storage {
namespace {

constexpr size_t kTestPages = 96;

/// Pager over kTestPages stamped pages with a \p capacity-frame pool.
void ConfigureStaged(Pager* pager, size_t capacity) {
  for (size_t i = 0; i < kTestPages; ++i) {
    const PageId id = pager->Allocate();
    ASSERT_TRUE(pager->Write(id, StampedPage(id)).ok());
  }
  BufferOptions opts;
  opts.capacity_pages = capacity;
  opts.stage_hints = true;
  pager->ConfigureBuffer(opts);
  pager->ResetCounters();
}

TEST(AsyncPipelineTest, EveryDemandFetchChargesExactlyOnce) {
  Pager pager;
  ConfigureStaged(&pager, /*capacity=*/16);
  constexpr size_t kOps = 300;
  Rng rng(0xA51);
  for (size_t op = 0; op < kOps; ++op) {
    const PageId id = static_cast<PageId>(rng.UniformU64(kTestPages));
    ASSERT_TRUE(pager.Fetch(id).ok());
    // Interleaved staging is never a demand fetch: it must not move the
    // fault + hit total.
    if (rng.Bernoulli(0.3)) {
      pager.Prefetch(std::vector<PageId>{id + 1, id + 2});
    }
  }
  EXPECT_EQ(pager.faults() + pager.hits(), kOps);
  EXPECT_GT(pager.prefetch_issued(), 0u);
}

TEST(AsyncPipelineTest, PrefetchHintsLandAndCountHits) {
  Pager pager;
  ConfigureStaged(&pager, /*capacity=*/64);
  const std::vector<PageId> hinted{20, 21, 22, 23, 24, 25, 26, 27};
  pager.Prefetch(hinted);
  EXPECT_EQ(pager.prefetch_issued(), hinted.size());
  EXPECT_EQ(pager.file().device_reads(), hinted.size());
  // Staging is synchronous: every hinted page is resident on return.
  for (const PageId id : hinted) {
    EXPECT_TRUE(pager.buffer_pool().Resident(id)) << "page " << id;
  }
  for (const PageId id : hinted) {
    StatusOr<PinnedPage> got = pager.Fetch(id);
    ASSERT_TRUE(got.ok()) << "page " << id;
    EXPECT_TRUE(PageMatchesStamp(got.value().page(), id)) << "page " << id;
  }
  EXPECT_EQ(pager.prefetch_hits(), hinted.size());
  EXPECT_EQ(pager.hits(), hinted.size());
  EXPECT_EQ(pager.faults(), 0u);
  EXPECT_LE(pager.prefetch_hits() + pager.prefetch_wasted(),
            pager.prefetch_issued());
}

TEST(AsyncPipelineTest, EvictedUntouchedStagesCountAsWasted) {
  Pager pager;
  // Capacity far below the scan: staged pages that are never demanded get
  // evicted by the churn and must surface as prefetch_wasted.
  ConfigureStaged(&pager, /*capacity=*/8);
  const std::vector<PageId> hinted{80, 81, 82, 83};
  pager.Prefetch(hinted);
  for (PageId id = 0; id < 64; ++id) {
    ASSERT_TRUE(pager.Fetch(id).ok());
  }
  EXPECT_EQ(pager.prefetch_wasted(), hinted.size());
  EXPECT_EQ(pager.prefetch_hits(), 0u);
}

TEST(AsyncPipelineTest, SyncFallbackWhenAsyncOffOrUnbuffered) {
  // An unbuffered pager has nowhere to stage: Prefetch is a no-op (no
  // device read, nothing issued) and every Fetch still faults.
  Pager pager;
  for (size_t i = 0; i < kTestPages; ++i) {
    const PageId id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, StampedPage(id)).ok());
  }
  BufferOptions opts;
  opts.capacity_pages = 0;
  opts.stage_hints = true;
  pager.ConfigureBuffer(opts);
  pager.ResetCounters();
  pager.Prefetch(std::vector<PageId>{2, 3});
  EXPECT_EQ(pager.prefetch_issued(), 0u);
  EXPECT_EQ(pager.file().device_reads(), 0u);
  StatusOr<PinnedPage> got = pager.Fetch(2);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(PageMatchesStamp(got.value().page(), 2));
  EXPECT_EQ(pager.faults(), 1u);  // unbuffered: every fetch faults
}

}  // namespace
}  // namespace storage

namespace exec {
namespace {

struct Scene {
  datagen::DatasetPair pair;
  rtree::RStarTree tp;
  rtree::RStarTree to;
  std::vector<geom::Segment> queries;
};

Scene MakeScene(uint64_t seed, datagen::PointDistribution dist) {
  Scene s;
  s.pair = datagen::MakeDatasetPair(dist, 140, 70, seed);
  s.tp = rtree::StrBulkLoad(datagen::ToPointObjects(s.pair.points)).value();
  s.to =
      rtree::StrBulkLoad(datagen::ToObstacleObjects(s.pair.obstacles)).value();
  datagen::WorkloadOptions wopts;
  wopts.query_length = 450.0;
  s.queries = datagen::MakeWorkload(10, datagen::Workspace(), wopts, {},
                                    seed ^ 0xA57);
  return s;
}

void SetBuffer(const rtree::RStarTree& tree, storage::EvictionPolicy policy,
               bool stage_hints) {
  storage::BufferOptions opts = tree.pager().buffer_pool().options();
  opts.capacity_pages = std::max<size_t>(4, tree.PageCount() / 4);
  opts.policy = policy;
  opts.stage_hints = stage_hints;
  tree.pager().ConfigureBuffer(opts);
  tree.pager().ResetCounters();
}

void ExpectBitIdentical(const core::CoknnResult& got,
                        const core::CoknnResult& want, size_t qi) {
  SCOPED_TRACE("query " + std::to_string(qi));
  ASSERT_EQ(got.unreachable.intervals().size(),
            want.unreachable.intervals().size());
  for (size_t i = 0; i < got.unreachable.intervals().size(); ++i) {
    EXPECT_EQ(got.unreachable.intervals()[i].lo,
              want.unreachable.intervals()[i].lo);
    EXPECT_EQ(got.unreachable.intervals()[i].hi,
              want.unreachable.intervals()[i].hi);
  }
  ASSERT_EQ(got.tuples.size(), want.tuples.size());
  for (size_t i = 0; i < got.tuples.size(); ++i) {
    const core::CoknnTuple& g = got.tuples[i];
    const core::CoknnTuple& x = want.tuples[i];
    EXPECT_EQ(g.range.lo, x.range.lo) << "tuple " << i;
    EXPECT_EQ(g.range.hi, x.range.hi) << "tuple " << i;
    ASSERT_EQ(g.candidates.size(), x.candidates.size()) << "tuple " << i;
    for (size_t c = 0; c < g.candidates.size(); ++c) {
      EXPECT_EQ(g.candidates[c].pid, x.candidates[c].pid)
          << "tuple " << i << " cand " << c;
      EXPECT_EQ(g.candidates[c].cp, x.candidates[c].cp)
          << "tuple " << i << " cand " << c;
      EXPECT_EQ(g.candidates[c].offset, x.candidates[c].offset)
          << "tuple " << i << " cand " << c;
    }
  }
  // Staging never changes which nodes a traversal expands, so the
  // algorithmic work is identical too.
  EXPECT_EQ(got.stats.points_evaluated, want.stats.points_evaluated);
  EXPECT_EQ(got.stats.obstacles_evaluated, want.stats.obstacles_evaluated);
  EXPECT_EQ(got.stats.lemma2_terminations, want.stats.lemma2_terminations);
}

struct StagingConfig {
  uint64_t seed;
  datagen::PointDistribution dist;
  storage::EvictionPolicy policy;
  size_t threads;
};

class AsyncEquivalence : public ::testing::TestWithParam<StagingConfig> {};

TEST_P(AsyncEquivalence, AsyncAndSyncProduceBitIdenticalResults) {
  const StagingConfig cfg = GetParam();
  const Scene s = MakeScene(cfg.seed, cfg.dist);

  std::vector<BatchQuery> batch;
  for (const geom::Segment& q : s.queries) {
    batch.push_back(BatchQuery::Coknn(q, 3));
  }
  BatchOptions opts;
  opts.num_threads = cfg.threads;
  opts.target_shard_size = 3;
  opts.share_locality_factor = 0.0;
  const BatchRunner runner(s.tp, s.to, opts);

  SetBuffer(s.tp, cfg.policy, /*stage_hints=*/false);
  SetBuffer(s.to, cfg.policy, /*stage_hints=*/false);
  const BatchResult sync_run = runner.Run(batch);
  EXPECT_EQ(sync_run.stats.per_query_totals.prefetch_issued, 0u);

  SetBuffer(s.tp, cfg.policy, /*stage_hints=*/true);
  SetBuffer(s.to, cfg.policy, /*stage_hints=*/true);
  const BatchResult staged_run = runner.Run(batch);
  EXPECT_GT(staged_run.stats.per_query_totals.prefetch_issued, 0u);

  ASSERT_EQ(staged_run.outcomes.size(), sync_run.outcomes.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(staged_run.outcomes[i].coknn.has_value());
    ASSERT_TRUE(sync_run.outcomes[i].coknn.has_value());
    ExpectBitIdentical(*staged_run.outcomes[i].coknn,
                       *sync_run.outcomes[i].coknn, i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AsyncEquivalence,
    ::testing::Values(
        StagingConfig{31, datagen::PointDistribution::kUniform,
                    storage::EvictionPolicy::kTwoQueue, 1},
        StagingConfig{32, datagen::PointDistribution::kUniform,
                    storage::EvictionPolicy::kExactLru, 4},
        StagingConfig{33, datagen::PointDistribution::kZipf,
                    storage::EvictionPolicy::kTwoQueue, 4},
        StagingConfig{34, datagen::PointDistribution::kZipf,
                    storage::EvictionPolicy::kExactLru, 1}),
    [](const ::testing::TestParamInfo<StagingConfig>& info) {
      const StagingConfig& c = info.param;
      return (c.dist == datagen::PointDistribution::kUniform ? "Uniform"
                                                             : "Zipf") +
             std::string(c.policy == storage::EvictionPolicy::kTwoQueue
                             ? "TwoQueue"
                             : "ExactLru") +
             "T" + std::to_string(c.threads);
    });

/// Runs the scene's queries one after another on 2Q buffers with staging
/// \p on and returns the summed QueryStats.
QueryStats RunSequential(const Scene& s, bool stage_hints) {
  SetBuffer(s.tp, storage::EvictionPolicy::kTwoQueue, stage_hints);
  SetBuffer(s.to, storage::EvictionPolicy::kTwoQueue, stage_hints);
  QueryStats total;
  for (const geom::Segment& q : s.queries) {
    total += core::CoknnQuery(s.tp, s.to, q, /*k=*/3).stats;
  }
  return total;
}

TEST(StagingTest, StagedRunsRepeatExactlyAndNeverAddFaults) {
  const Scene s = MakeScene(35, datagen::PointDistribution::kUniform);
  const QueryStats first = RunSequential(s, /*stage_hints=*/true);
  const QueryStats second = RunSequential(s, /*stage_hints=*/true);
  const QueryStats off = RunSequential(s, /*stage_hints=*/false);

  // Staging happens on the calling thread, so a staged run reproduces its
  // own I/O counters exactly.
  EXPECT_EQ(second.TotalPageReads(), first.TotalPageReads());
  EXPECT_EQ(second.buffer_hits, first.buffer_hits);
  EXPECT_EQ(second.prefetch_issued, first.prefetch_issued);
  EXPECT_EQ(second.prefetch_hits, first.prefetch_hits);
  EXPECT_EQ(second.prefetch_wasted, first.prefetch_wasted);
  EXPECT_GT(first.prefetch_issued, 0u);

  // Staged pages turn demand faults into hits; they never add one here.
  EXPECT_LE(first.TotalPageReads(), off.TotalPageReads());
  EXPECT_EQ(first.points_evaluated, off.points_evaluated);
  EXPECT_EQ(first.obstacles_evaluated, off.obstacles_evaluated);
}

}  // namespace
}  // namespace exec
}  // namespace conn
