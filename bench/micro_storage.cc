// Storage-layer microbenchmarks: buffer-pool hit latency, miss/eviction
// churn, pin/unpin latch contention across threads, the decoded-node cache
// on the tree read path, and cold scans with Prefetch readahead.  Wired
// into the bench_smoke CTest label so the pool's fast paths stay runnable;
// absolute numbers are hardware-dependent, shapes (hit << miss, contention
// scaling) are what to watch.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/pool_tuning.h"

namespace conn {
namespace bench {
namespace {

using storage::BufferOptions;
using storage::EvictionPolicy;
using storage::Page;
using storage::PageId;
using storage::Pager;
using storage::PinnedPage;

constexpr size_t kFilePages = 2048;

EvictionPolicy PolicyArg(int64_t arg) {
  return arg == 0 ? EvictionPolicy::kTwoQueue : EvictionPolicy::kExactLru;
}

std::unique_ptr<Pager> MakePager(size_t capacity, EvictionPolicy policy) {
  auto pager = std::make_unique<Pager>();
  Page p;
  for (size_t i = 0; i < kFilePages; ++i) {
    const PageId id = pager->Allocate();
    p.WriteAt<uint64_t>(0, id);
    CONN_CHECK(pager->Write(id, p).ok());
  }
  BufferOptions opts;
  opts.capacity_pages = capacity;
  opts.policy = policy;
  pager->ConfigureBuffer(opts);
  return pager;
}

/// Hit path: working set fits, every fetch pins a resident frame.
void BM_BufferHit(benchmark::State& state) {
  auto pager = MakePager(/*capacity=*/128, PolicyArg(state.range(0)));
  for (PageId id = 0; id < 64; ++id) CONN_CHECK(pager->Fetch(id).ok());
  pager->ResetCounters();  // exclude the priming faults from hit_rate
  PageId id = 0;
  for (auto _ : state) {
    StatusOr<PinnedPage> view = pager->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
    id = (id + 1) % 64;
  }
  state.counters["hit_rate"] =
      static_cast<double>(pager->hits()) /
      static_cast<double>(pager->hits() + pager->faults());
}
BENCHMARK(BM_BufferHit)->Arg(0)->Arg(1);

/// Miss path: capacity far below the scan, every fetch evicts and reloads.
void BM_BufferMissChurn(benchmark::State& state) {
  auto pager = MakePager(/*capacity=*/16, PolicyArg(state.range(0)));
  PageId id = 0;
  for (auto _ : state) {
    StatusOr<PinnedPage> view = pager->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
    id = (id + 1) % kFilePages;
  }
  state.counters["fault_rate"] =
      static_cast<double>(pager->faults()) /
      static_cast<double>(pager->hits() + pager->faults());
}
BENCHMARK(BM_BufferMissChurn)->Arg(0)->Arg(1);

/// Unbuffered baseline: direct file views (the paper's bs = 0 default).
void BM_UnbufferedFetch(benchmark::State& state) {
  auto pager = MakePager(/*capacity=*/0, EvictionPolicy::kTwoQueue);
  PageId id = 0;
  for (auto _ : state) {
    StatusOr<PinnedPage> view = pager->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
    id = (id + 1) % kFilePages;
  }
}
BENCHMARK(BM_UnbufferedFetch);

/// Pin/unpin contention: all threads hammer one hot set through the
/// per-shard latches.  Throughput per thread should degrade gently, not
/// collapse, as threads are added.  Pool and hot-set sizes derive from the
/// pool's own sharding constants (storage/pool_tuning.h): the pool spans
/// the full kMaxShards fan-out (32 shards / 1024 frames under the current
/// tuning) with the hot set striped across every latch, so a future
/// shard-cap change moves this watchpoint with it.
void BM_PinContention(benchmark::State& state) {
  static Pager* shared = [] {
    return MakePager(/*capacity=*/storage::kMaxShards *
                         storage::kFramesPerShard,
                     EvictionPolicy::kTwoQueue)
        .release();
  }();
  Rng rng(0x900D + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const PageId id = static_cast<PageId>(
        rng.UniformU64(storage::kMaxShards * storage::kFramesPerShard));
    StatusOr<PinnedPage> view = shared->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
  }
}
BENCHMARK(BM_PinContention)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

/// Cold sequential scan with readahead: after each demand fault the scan
/// stages the next Arg pages through Prefetch (STR lays a level's siblings
/// out contiguously).  Arg 0 is the staging-free scan.  Staged pages count
/// device reads and prefetch hits, never faults, so demand_faults falls
/// with the readahead width while the scan's result is identical.
void BM_ColdScan(benchmark::State& state) {
  const auto readahead = static_cast<PageId>(state.range(0));
  uint64_t demand_faults = 0;
  uint64_t staged_hits = 0;
  std::vector<PageId> next;
  for (auto _ : state) {
    state.PauseTiming();
    auto pager = MakePager(/*capacity=*/64, EvictionPolicy::kTwoQueue);
    pager->ResetCounters();
    state.ResumeTiming();
    uint64_t sum = 0;
    for (PageId id = 0; id < kFilePages; ++id) {
      const uint64_t faults_before = pager->faults();
      StatusOr<PinnedPage> view = pager->Fetch(id);
      sum += view.value().page().ReadAt<uint64_t>(0);
      if (readahead > 0 && pager->faults() != faults_before) {
        next.clear();
        for (PageId j = id + 1; j <= id + readahead; ++j) next.push_back(j);
        pager->Prefetch(next);
      }
    }
    benchmark::DoNotOptimize(sum);
    demand_faults = pager->faults();
    staged_hits = pager->prefetch_hits();
  }
  state.counters["demand_faults"] = static_cast<double>(demand_faults);
  state.counters["prefetch_hits"] = static_cast<double>(staged_hits);
}
BENCHMARK(BM_ColdScan)->Arg(0)->Arg(8)->Arg(32);

/// Tree read path: hot-node fetches against the decoded-node cache
/// (buffered) vs per-read parsing (unbuffered).
void BM_FetchNodeHot(benchmark::State& state) {
  static rtree::RStarTree* tree = [] {
    std::vector<rtree::DataObject> objs;
    Rng rng(0xCAFE);
    objs.reserve(20000);
    for (size_t i = 0; i < 20000; ++i) {
      objs.push_back(rtree::DataObject::Point(
          {rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, i));
    }
    return new rtree::RStarTree(
        std::move(rtree::StrBulkLoad(std::move(objs)).value()));
  }();
  const bool buffered = state.range(0) != 0;
  tree->pager().SetBufferCapacity(buffered ? tree->PageCount() : 0);
  for (auto _ : state) {
    StatusOr<rtree::ConstNodeRef> ref = tree->FetchNode(tree->root());
    benchmark::DoNotOptimize(ref.value()->entries.data());
  }
}
BENCHMARK(BM_FetchNodeHot)->Arg(0)->Arg(1);

}  // namespace
}  // namespace bench
}  // namespace conn

BENCHMARK_MAIN();
