#include "storage/pager.h"

namespace conn {
namespace storage {

void Pager::ResetCounters() {
  faults_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  prefetch_issued_.store(0, std::memory_order_relaxed);
  pool_.ResetPrefetchCounters();
}

StatusOr<PinnedPage> Pager::Fetch(PageId id) {
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
    // A concurrent fetch or prefetch of the same cold page staged it first:
    // this fetch is the hit it would have been a moment later, not a second
    // fault.
    hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  faults_.fetch_add(1, std::memory_order_relaxed);
  if (staged == BufferPool::InsertOutcome::kFull) {
    // Every candidate frame is pinned: serve a handle-owned copy without
    // caching it.  Rare — it takes as many concurrently pinned pages as the
    // pool has frames.
    return PinnedPage::Overflow(id, *src);
  }
  return out;
}

void Pager::Prefetch(std::span<const PageId> ids) {
  if (pool_.capacity() == 0) return;
  for (const PageId id : ids) {
    if (pool_.Resident(id)) continue;
    const Page* src = nullptr;
    if (!file_.View(id, &src).ok()) continue;  // out of range
    // A null pin marks the frame as staged: its first demand hit is the
    // page's first reference (no scan-resistance bypass).
    const BufferPool::InsertOutcome staged =
        pool_.Insert(id, *src, /*out=*/nullptr);
    // Every frame pinned: further staging would only burn device reads
    // against the same full pool.
    if (staged == BufferPool::InsertOutcome::kFull) break;
    // kReused: a concurrent fetch staged the page between the residency
    // check and the insert — nothing was staged here.
    if (staged == BufferPool::InsertOutcome::kStaged) {
      prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status Pager::Write(PageId id, const Page& page) {
  CONN_RETURN_IF_ERROR(file_.Write(id, page));
  pool_.PutForWrite(id, page);
  return Status::OK();
}

}  // namespace storage
}  // namespace conn
