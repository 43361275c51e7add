// In-memory simulated disk: an append-allocated array of 4 KB pages.
//
// The experiments of Section 5 measure I/O as the number of page accesses
// under a cost model (10 ms per fault), not wall-clock disk latency, so the
// backing store can safely live in RAM while the Pager (pager.h) provides
// the fault accounting and the buffer pool in front of it.  Page addresses
// are stable for the file's lifetime, which lets the unbuffered read path
// hand out direct views instead of copies.

#ifndef CONN_STORAGE_PAGE_FILE_H_
#define CONN_STORAGE_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace conn {
namespace storage {

/// Append-allocated page store with read/write by PageId.
class PageFile {
 public:
  PageFile() = default;

  // Identity semantics, like a file handle.  The owning Pager is itself
  // pinned behind a stable heap allocation, so moves are not needed.
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  PageFile(PageFile&&) = delete;
  PageFile& operator=(PageFile&&) = delete;

  /// Allocates a zeroed page and returns its id.
  PageId Allocate();

  /// Number of allocated pages.
  size_t PageCount() const { return pages_.size(); }

  /// Points \p out at page \p id's stable storage (no copy).  Counts one
  /// device read.  NotFound for unallocated ids.  The view stays valid for
  /// the file's lifetime; callers must not read it concurrently with a
  /// Write to the same page (reads and structural writes never overlap:
  /// trees are built before queries run against them).
  Status View(PageId id, const Page** out) const;

  /// Copies page \p id into \p out.  NotFound for unallocated ids.
  Status Read(PageId id, Page* out) const;

  /// Overwrites page \p id.  NotFound for unallocated ids.
  Status Write(PageId id, const Page& page);

  /// Raw device-level counters (all accesses, buffered or not; prefetch
  /// staging counts here but not as pager faults).
  uint64_t device_reads() const {
    return device_reads_.load(std::memory_order_relaxed);
  }
  uint64_t device_writes() const { return device_writes_; }

 private:
  // unique_ptr keeps Page addresses stable and avoids 4 KB moves on growth.
  std::vector<std::unique_ptr<Page>> pages_;
  // Read()/View() are logically const and run concurrently from query
  // threads.
  mutable std::atomic<uint64_t> device_reads_{0};
  uint64_t device_writes_ = 0;
};

}  // namespace storage
}  // namespace conn

#endif  // CONN_STORAGE_PAGE_FILE_H_
