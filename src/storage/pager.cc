#include "storage/pager.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace conn {
namespace storage {

Pager::~Pager() {
  // Join the I/O workers (draining queued requests) while the pool and
  // file they write into are still alive.
  miss_queue_.reset();
}

void Pager::ConfigureBuffer(const BufferOptions& options) {
  // Quiesce in-flight servicing first: workers stage into the pool that is
  // about to be rebuilt.
  miss_queue_.reset();
  pool_.Configure(options);
  hint_depth_.store(kHintDepthCap, std::memory_order_relaxed);
  tune_issued_mark_.store(prefetch_issued_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  tune_wasted_mark_.store(pool_.prefetch_wasted(), std::memory_order_relaxed);
  if (options.async_io && options.capacity_pages > 0) {
    miss_queue_ = std::make_unique<MissQueue>(
        options.io_threads, options.miss_queue_depth,
        [this](std::vector<MissQueue::Item> batch) {
          ServiceBatch(std::move(batch));
        });
  }
}

void Pager::ResetCounters() {
  faults_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  prefetch_issued_.store(0, std::memory_order_relaxed);
  pool_.ResetPrefetchCounters();
  // The autotuner restarts from the widest window with fresh marks: a
  // measured phase should adapt to its own workload, not the warm-up's.
  hint_depth_.store(kHintDepthCap, std::memory_order_relaxed);
  tune_issued_mark_.store(0, std::memory_order_relaxed);
  tune_wasted_mark_.store(0, std::memory_order_relaxed);
  if (miss_queue_ != nullptr) miss_queue_->ResetDepthStats();
}

MissQueue::DepthStats Pager::MissQueueDepths() {
  if (miss_queue_ == nullptr) return MissQueue::DepthStats{};
  return miss_queue_->Depths();
}

StatusOr<PinnedPage> Pager::Fetch(PageId id) {
  if (miss_queue_ == nullptr) return SyncFetch(id);
  return FetchAsync(id).Wait();
}

StatusOr<PinnedPage> Pager::SyncFetch(PageId id) {
  if (pool_.capacity() == 0) {
    // Unbuffered (the paper's default configuration): every read faults and
    // the view aliases the file's stable page storage — no copy at all.
    const Page* view = nullptr;
    CONN_RETURN_IF_ERROR(file_.View(id, &view));
    faults_.fetch_add(1, std::memory_order_relaxed);
    return PinnedPage::Direct(id, view);
  }

  PinnedPage out;
  if (pool_.TryGet(id, &out)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  const Page* src = nullptr;
  CONN_RETURN_IF_ERROR(file_.View(id, &src));
  const BufferPool::InsertOutcome staged = pool_.Insert(id, *src, &out);
  if (staged == BufferPool::InsertOutcome::kReused) {
    // A concurrent fetch of the same cold page staged it first: this fetch
    // is the hit it would have been a moment later, not a second fault.
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  faults_.fetch_add(1, std::memory_order_relaxed);
  if (staged == BufferPool::InsertOutcome::kFull) {
    // Every candidate frame is pinned: serve a handle-owned copy without
    // caching it (and skip readahead — further staging attempts would
    // burn device reads against the same pinned-full pool).  Rare — it
    // takes as many concurrently pinned pages as the pool has frames.
    return PinnedPage::Overflow(id, *src);
  }

  // Optional readahead: stage the immediately following ids (STR bulk
  // loading lays a level's siblings out contiguously).  Staged pages count
  // device reads, not faults; a later demand access counts a hit as the
  // page's *first* reference (no scan-resistance bypass).
  const size_t ra = pool_.options().readahead_pages;
  for (size_t i = 1; i <= ra; ++i) {
    const PageId next = id + static_cast<PageId>(i);
    if (next >= file_.PageCount()) break;
    if (pool_.Resident(next)) continue;
    const Page* ra_src = nullptr;
    if (!file_.View(next, &ra_src).ok()) break;
    const BufferPool::InsertOutcome ra_staged =
        pool_.Insert(next, *ra_src, /*out=*/nullptr);
    if (ra_staged == BufferPool::InsertOutcome::kFull) break;
    if (ra_staged == BufferPool::InsertOutcome::kStaged) {
      prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return out;
}

PageRequest Pager::FetchAsync(PageId id) {
  if (miss_queue_ == nullptr) return PageRequest::Completed(SyncFetch(id));

  PinnedPage out;
  if (pool_.TryGet(id, &out)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return PageRequest::Completed(std::move(out));
  }

  // The fault is charged at issue time against the same residency check
  // the synchronous path uses, so with hints disabled the fault counts are
  // identical whether the read then happens off-worker or (queue full)
  // inline.
  faults_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<PageRequestState>();
  if (!miss_queue_->EnqueueDemand({id, state})) {
    // Bounded-queue backpressure: the caller services its own miss, which
    // is exactly the synchronous reference path (minus re-counting).
    return PageRequest::Completed(ServiceMiss(id));
  }
  PageRequest request(std::move(state));

  // STR readahead rides the hint class instead of running inline: it can
  // no longer extend this (or any) demand fetch's latency.
  const size_t ra = pool_.options().readahead_pages;
  for (size_t i = 1; i <= ra; ++i) {
    (void)TryStageHint(id + static_cast<PageId>(i));  // best effort
  }
  return request;
}

void Pager::Prefetch(std::span<const PageId> ids) {
  if (miss_queue_ == nullptr) return;
  for (const PageId id : ids) {
    // Best effort by design: a filtered hint (resident, duplicate, full
    // queue) is simply not staged.
    (void)TryStageHint(id);
  }
}

bool Pager::TryStageHint(PageId id) {
  if (miss_queue_ == nullptr) return false;
  if (id >= file_.PageCount()) return false;
  if (pool_.Resident(id)) return false;
  if (!miss_queue_->EnqueueHint({id, nullptr})) return false;
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  MaybeAdaptHintDepth();
  return true;
}

void Pager::MaybeAdaptHintDepth() {
  const uint64_t issued = prefetch_issued_.load(std::memory_order_relaxed);
  uint64_t mark = tune_issued_mark_.load(std::memory_order_relaxed);
  if (issued - mark < kHintTuneWindow) return;
  // One adapter per window: whoever advances the mark owns the decision;
  // a losing racer's window was just closed by the winner.
  if (!tune_issued_mark_.compare_exchange_strong(mark, issued,
                                                 std::memory_order_relaxed)) {
    return;
  }
  const uint64_t wasted = pool_.prefetch_wasted();
  const uint64_t wasted_mark =
      tune_wasted_mark_.exchange(wasted, std::memory_order_relaxed);
  // Waste counters can lag hint acceptance (staging is asynchronous), so
  // the ratio is advisory — exactly right for an advisory depth.
  const double ratio = wasted > wasted_mark
                           ? static_cast<double>(wasted - wasted_mark) /
                                 static_cast<double>(issued - mark)
                           : 0.0;
  size_t depth = hint_depth_.load(std::memory_order_relaxed);
  if (ratio > kHintWastedRatioShrink) {
    depth = std::max(kHintDepthFloor, depth / 2);
  } else if (ratio < kHintWastedRatioRecover) {
    depth = std::min(kHintDepthCap, depth + 1);
  }
  hint_depth_.store(depth, std::memory_order_relaxed);
}

StatusOr<PinnedPage> Pager::ServiceMiss(PageId id) {
  const Page* src = nullptr;
  CONN_RETURN_IF_ERROR(file_.View(id, &src));
  PinnedPage out;
  if (pool_.Insert(id, *src, &out) == BufferPool::InsertOutcome::kFull) {
    return PinnedPage::Overflow(id, *src);
  }
  return out;
}

void Pager::ServiceBatch(std::vector<MissQueue::Item> batch) {
  // Hints that became resident while queued need no device work; demand
  // items always proceed (their waiter needs a completion regardless).
  std::vector<MissQueue::Item> work;
  work.reserve(batch.size());
  for (MissQueue::Item& item : batch) {
    if (item.state == nullptr && pool_.Resident(item.id)) continue;
    work.push_back(std::move(item));
  }
  if (work.empty()) return;

  // One ascending sweep per service cycle — the batched-pread idiom.
  std::sort(work.begin(), work.end(),
            [](const MissQueue::Item& a, const MissQueue::Item& b) {
              return a.id < b.id;
            });
  std::vector<PageId> ids;
  ids.reserve(work.size());
  for (const MissQueue::Item& item : work) ids.push_back(item.id);
  std::vector<const Page*> views;
  file_.ViewBatch(ids, &views);

  for (size_t i = 0; i < work.size(); ++i) {
    MissQueue::Item& item = work[i];
    const Page* view = views[i];
    if (item.state == nullptr) {
      // Hint: stage and move on.  A false Insert (page raced in, or every
      // frame pinned) costs nothing further.
      if (view != nullptr) (void)pool_.Insert(item.id, *view, nullptr);
      continue;
    }
    if (view == nullptr) {
      CompletePageRequest(*item.state,
                          Status::NotFound("PageFile::View: page " +
                                           std::to_string(item.id) +
                                           " not allocated"),
                          PinnedPage());
      continue;
    }
    // Demand: pin into the completion.  No counter updates here — the
    // fault was charged at issue time, and Insert's raced-in reuse must
    // not double-count a hit.
    PinnedPage out;
    if (pool_.Insert(item.id, *view, &out) ==
        BufferPool::InsertOutcome::kFull) {
      out = PinnedPage::Overflow(item.id, *view);
    }
    CompletePageRequest(*item.state, Status::OK(), std::move(out));
  }
}

Status Pager::Write(PageId id, const Page& page) {
  CONN_RETURN_IF_ERROR(file_.Write(id, page));
  pool_.PutForWrite(id, page);
  return Status::OK();
}

}  // namespace storage
}  // namespace conn
