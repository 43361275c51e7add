// Concurrency tests for the pin/unpin buffer pool, run under the tsan
// preset (label "exec") alongside the batch-executor suite: many threads
// fetch, pin, read, and release pages of one shared Pager while eviction
// churns, which is exactly what BatchRunner's workers do to a tree's pool.
// The staging variants mix Pager::Prefetch into the same traffic, as the
// traversals do with BufferOptions::stage_hints on.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/pool_tuning.h"
#include "storage_test_util.h"

namespace conn {
namespace storage {
namespace {

void RunChurn(EvictionPolicy policy, bool stage = false,
              size_t capacity_pages = kFramesPerShard / kA1inTargetDivisor,
              size_t pages = 64) {
  const size_t kPages = pages;
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 1500;

  Pager pager;
  for (size_t i = 0; i < kPages; ++i) {
    const PageId id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, StampedPage(id)).ok());
  }
  BufferOptions opts;
  // Default capacity is a quarter of one latch shard's frame budget
  // (pool_tuning.h): a single-shard pool far below the working set, so
  // eviction churns constantly and stays churning if the shard sizing
  // ever changes.  The fan-out variant below overrides it to span many
  // latch shards.
  opts.capacity_pages = capacity_pages;
  opts.policy = policy;
  pager.ConfigureBuffer(opts);
  pager.ResetCounters();

  std::atomic<uint64_t> corrupt{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xBEEF + t);
      std::vector<PinnedPage> held;  // pins held across later fetches
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        // Skew toward a hot set so hits, misses, and evictions all happen.
        const PageId id = rng.Bernoulli(0.5)
                              ? static_cast<PageId>(rng.UniformU64(8))
                              : static_cast<PageId>(rng.UniformU64(kPages));
        // Staging racing the demand traffic: readahead of the next pages
        // (possibly resident, possibly being fetched by another thread).
        if (stage && rng.Bernoulli(0.3)) {
          pager.Prefetch(std::vector<PageId>{
              static_cast<PageId>((id + 1) % kPages),
              static_cast<PageId>((id + 2) % kPages)});
        }
        StatusOr<PinnedPage> view = pager.Fetch(id);
        if (!view.ok() || !PageMatchesStamp(view.value().page(), id)) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Exercise the decoded-object slot under contention.
        if (view.value().decoded() == nullptr && rng.Bernoulli(0.25)) {
          view.value().SetDecoded(std::make_shared<PageId>(id));
        } else if (view.value().decoded() != nullptr &&
                   *std::static_pointer_cast<const PageId>(
                       view.value().decoded()) != id) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
        }
        // Sometimes keep the pin alive across future fetches/evictions.
        if (rng.Bernoulli(0.2)) {
          held.push_back(std::move(view).value());
          if (held.size() > 4) held.erase(held.begin());
        }
      }
      // Re-check pages still pinned at the end: their bytes never moved.
      for (const PinnedPage& p : held) {
        if (!PageMatchesStamp(p.page(), p.id())) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(pager.buffer_pool().PinnedFrames(), 0u);  // no leaked pins
  // Every demand fetch resolved to exactly one hit or one fault; staging
  // is neither.
  EXPECT_EQ(pager.faults() + pager.hits(), kThreads * kOpsPerThread);
  // Each staged frame ends as at most one prefetch hit or one waste.
  EXPECT_LE(pager.prefetch_hits() + pager.prefetch_wasted(),
            pager.prefetch_issued());
  if (stage) {
    EXPECT_GT(pager.prefetch_issued(), 0u);
  }
}

TEST(StorageRaceTest, ConcurrentFetchPinUnpinChurnTwoQueue) {
  RunChurn(EvictionPolicy::kTwoQueue);
}

TEST(StorageRaceTest, ConcurrentFetchPinUnpinChurnExactLru) {
  RunChurn(EvictionPolicy::kExactLru);
}

// Same churn with threads mixing Prefetch into their demand fetches:
// staging inserts race demand misses and evictions on one pool, and the
// one-hit-or-one-fault accounting invariant must survive it.  (The suite
// names date from the worker-thread staging pipeline.)
TEST(StorageRaceTest, ConcurrentChurnAsyncPipelineTwoQueue) {
  RunChurn(EvictionPolicy::kTwoQueue, /*stage=*/true);
}

TEST(StorageRaceTest, ConcurrentChurnAsyncPipelineExactLru) {
  RunChurn(EvictionPolicy::kExactLru, /*stage=*/true);
}

// Churn across a pool spanning many latch shards (pool_tuning.h), staging
// on: evictions, staging inserts, and pin traffic spread over the full
// fan-out instead of one latch.
TEST(StorageRaceTest, ConcurrentChurnAcrossLiftedShardFanout) {
  RunChurn(EvictionPolicy::kTwoQueue, /*stage=*/true,
           /*capacity_pages=*/8 * kFramesPerShard, /*pages=*/1024);
}

TEST(StorageRaceTest, ConcurrentTreeTraversalsShareOnePool) {
  // Four threads range-scan one tree whose pool is much smaller than the
  // tree, so frames churn while every thread parses nodes from pinned
  // memory and installs/consumes decoded-node cache entries.
  constexpr size_t kObjects = 4000;
  std::vector<rtree::DataObject> objs;
  Rng rng(0x7EA);
  objs.reserve(kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    objs.push_back(rtree::DataObject::Point(
        {rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, i));
  }
  rtree::RStarTree tree =
      std::move(rtree::StrBulkLoad(std::move(objs)).value());
  tree.pager().SetBufferCapacity(kFramesPerShard / kA1inTargetDivisor);

  // Single-threaded reference counts per window.
  std::vector<geom::Rect> windows;
  std::vector<size_t> expected;
  Rng wrng(0x51DE);
  for (int i = 0; i < 32; ++i) {
    const double x = wrng.Uniform(0, 900), y = wrng.Uniform(0, 900);
    windows.push_back(geom::Rect({x, y}, {x + 100, y + 100}));
    std::vector<rtree::DataObject> out;
    ASSERT_TRUE(tree.RangeQuery(windows.back(), &out).ok());
    expected.push_back(out.size());
  }

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t round = 0; round < 8; ++round) {
        for (size_t w = 0; w < windows.size(); ++w) {
          std::vector<rtree::DataObject> out;
          if (!tree.RangeQuery(windows[w], &out).ok() ||
              out.size() != expected[w]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(tree.pager().buffer_pool().PinnedFrames(), 0u);
}

// Threads that miss the same cold page together charge one fault between
// them: the first to stage it faults, every later one reuses its frame and
// counts the hit it would have been a moment later — the same counts as
// the race-free interleaving (1 fault + N-1 hits), so fault totals do not
// depend on thread timing.
TEST(StorageRaceTest, ConcurrentColdMissChargesOneFault) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kRounds = 1000;

  Pager pager;
  const PageId id = pager.Allocate();
  ASSERT_TRUE(pager.Write(id, StampedPage(id)).ok());
  BufferOptions opts;
  opts.capacity_pages = 16;
  pager.ConfigureBuffer(opts);
  pager.ResetCounters();

  // `start` releases every thread onto the cold page at once; `done` waits
  // until all pins are dropped, and its completion step empties the pool
  // so the next round starts cold again.
  std::barrier start(kThreads);
  std::barrier done(kThreads, [&pager]() noexcept { pager.ClearBuffer(); });
  std::atomic<uint64_t> corrupt{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t round = 0; round < kRounds; ++round) {
        start.arrive_and_wait();
        {
          StatusOr<PinnedPage> view = pager.Fetch(id);
          if (!view.ok() || !PageMatchesStamp(view.value().page(), id)) {
            corrupt.fetch_add(1, std::memory_order_relaxed);
          }
        }
        done.arrive_and_wait();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(pager.faults(), kRounds);
  EXPECT_EQ(pager.hits(), kRounds * (kThreads - 1));
}

// A Prefetch racing cold demand misses of the same page: per round exactly
// one of them stages the page.  If a fetch wins, it charges the round's one
// fault and the Prefetch stages nothing; if the Prefetch wins, it counts
// one prefetch_issued and every fetch is a hit.  A Prefetch that lost the
// race (kReused) must neither fault nor count as issued.
TEST(StorageRaceTest, PrefetchRacingColdMissChargesNoFault) {
  constexpr size_t kThreads = 4;  // thread 0 stages, the others fetch
  constexpr uint64_t kRounds = 1000;

  Pager pager;
  const PageId id = pager.Allocate();
  ASSERT_TRUE(pager.Write(id, StampedPage(id)).ok());
  BufferOptions opts;
  opts.capacity_pages = 16;
  pager.ConfigureBuffer(opts);
  pager.ResetCounters();

  std::barrier start(kThreads);
  std::barrier done(kThreads, [&pager]() noexcept { pager.ClearBuffer(); });
  std::atomic<uint64_t> corrupt{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<PageId> hint{id};
      for (uint64_t round = 0; round < kRounds; ++round) {
        start.arrive_and_wait();
        if (t == 0) {
          pager.Prefetch(hint);
        } else {
          StatusOr<PinnedPage> view = pager.Fetch(id);
          if (!view.ok() || !PageMatchesStamp(view.value().page(), id)) {
            corrupt.fetch_add(1, std::memory_order_relaxed);
          }
        }
        done.arrive_and_wait();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const uint64_t fetches = kRounds * (kThreads - 1);
  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(pager.faults() + pager.hits(), fetches);
  // One staging per round, by a fetch (a fault) or by the Prefetch.
  EXPECT_EQ(pager.faults() + pager.prefetch_issued(), kRounds);
  EXPECT_LE(pager.prefetch_hits(), pager.prefetch_issued());
}

}  // namespace
}  // namespace storage
}  // namespace conn
