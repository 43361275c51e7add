#include "storage/buffer_pool.h"

#include <algorithm>

#include "storage/pool_tuning.h"

namespace conn {
namespace storage {

void PinnedPage::SetDecoded(std::shared_ptr<const void> obj) {
  decoded_ = obj;
  if (pool_ != nullptr) pool_->InstallDecoded(frame_, std::move(obj));
}

void PinnedPage::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
  data_ = nullptr;
  id_ = kInvalidPageId;
  decoded_.reset();
  owned_.reset();
}

void BufferPool::Configure(const BufferOptions& options) {
  for (const Frame& f : frames_) {
    CONN_CHECK_MSG(f.pins.load(std::memory_order_acquire) == 0,
                   "BufferPool::Configure with live pins");
  }
  options_ = options;
  const size_t cap = options.capacity_pages;
  frames_ = std::vector<Frame>(cap);
  // Shard count: exact-LRU needs one global list to reproduce the seed
  // buffer's eviction order; 2Q shards once the pool is big enough for
  // latch contention to matter.  The mapping (id % shards) is
  // deterministic, so fault counts stay machine-independent.
  size_t num_shards = 1;
  if (cap > 0 && options.policy == EvictionPolicy::kTwoQueue) {
    num_shards = std::clamp<size_t>(cap / kFramesPerShard, 1, kMaxShards);
  }
  shards_.clear();
  shards_.reserve(std::max<size_t>(num_shards, 1));
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Configure is a single-threaded structural operation, but the list
  // helpers require the shard latch — take it (uncontended) per shard.
  // Frame i belongs to shard i % num_shards, seeded in ascending i order
  // (the same per-shard free-list order the interleaved seed loop built).
  for (size_t s = 0; s < num_shards; ++s) {
    Shard& sh = *shards_[s];
    MutexLock lock(sh.mu);
    for (size_t i = s; i < cap; i += num_shards) {
      ++sh.capacity;
      PushFront(sh, ListId::kFree, static_cast<uint32_t>(i));
    }
    sh.a1in_target = std::max<size_t>(1, sh.capacity / kA1inTargetDivisor);
  }
}

void BufferPool::Clear() {
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    MutexLock lock(sh.mu);
    for (const auto& [id, f] : sh.table) {
      CONN_CHECK_MSG(frames_[f].pins.load(std::memory_order_acquire) == 0,
                     "BufferPool::Clear with live pins");
    }
    for (const auto& [id, f] : sh.table) {
      Frame& frame = frames_[f];
      frame.page_id = kInvalidPageId;
      frame.decoded.reset();
      Unlink(sh, f);
      PushFront(sh, ListId::kFree, f);
    }
    sh.table.clear();
    sh.ghost_fifo.clear();
    sh.ghost_map.clear();
  }
}

BufferPool::List& BufferPool::ListFor(Shard& sh, ListId id) {
  switch (id) {
    case ListId::kFree:
      return sh.free_list;
    case ListId::kA1in:
      return sh.a1in;
    case ListId::kAm:
      return sh.am;
  }
  CONN_CHECK(false);
  return sh.free_list;  // unreachable
}

void BufferPool::Unlink(Shard& sh, uint32_t frame) {
  Frame& f = frames_[frame];
  List& list = ListFor(sh, f.list);
  if (f.prev != kNullFrame) {
    frames_[f.prev].next = f.next;
  } else {
    list.head = f.next;
  }
  if (f.next != kNullFrame) {
    frames_[f.next].prev = f.prev;
  } else {
    list.tail = f.prev;
  }
  f.prev = f.next = kNullFrame;
  --list.size;
}

void BufferPool::PushFront(Shard& sh, ListId list_id, uint32_t frame) {
  Frame& f = frames_[frame];
  List& list = ListFor(sh, list_id);
  f.list = list_id;
  f.prev = kNullFrame;
  f.next = list.head;
  if (list.head != kNullFrame) frames_[list.head].prev = frame;
  list.head = frame;
  if (list.tail == kNullFrame) list.tail = frame;
  ++list.size;
}

uint32_t BufferPool::EvictFromTail(Shard& sh, ListId list_id, bool to_ghost) {
  uint32_t f = ListFor(sh, list_id).tail;
  while (f != kNullFrame &&
         frames_[f].pins.load(std::memory_order_acquire) != 0) {
    f = frames_[f].prev;  // pinned frames are never evicted
  }
  if (f == kNullFrame) return kNullFrame;
  Frame& frame = frames_[f];
  // A readahead-staged page that was never demand-referenced has no reuse
  // history to remember: ghosting it would turn its first-ever demand
  // access into a bogus "second reference" straight into Am.
  if (frame.prefetched) {
    prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
  }
  if (to_ghost && !frame.prefetched) GhostInsert(sh, frame.page_id);
  sh.table.erase(frame.page_id);
  frame.page_id = kInvalidPageId;
  frame.decoded.reset();
  Unlink(sh, f);
  return f;
}

void BufferPool::GhostInsert(Shard& sh, PageId id) {
  const uint64_t seq = ++sh.ghost_seq;
  sh.ghost_map[id] = seq;  // refreshes the entry if one already exists
  sh.ghost_fifo.push_back({id, seq});
  // Ghost history length trades two failure modes: too short and a root
  // FIFO-evicted mid-query is forgotten before the query touches it again
  // (no promotion); too long and cyclically re-scanned cold pages all earn
  // ghost hits, flooding Am until it degenerates to plain LRU.  4x the
  // frame count covers one query's worth of evictions (the upper-level
  // reuse distance) while staying well below leaf re-scan distances.
  // The FIFO bound matters too: ghost hits erase map entries but leave
  // their FIFO entries behind, so trimming on the map size alone would let
  // the deque grow by one stale entry per eviction forever on a cycling
  // working set.
  const size_t ghost_cap = 4 * sh.capacity;
  while ((sh.ghost_map.size() > ghost_cap ||
          sh.ghost_fifo.size() > 2 * ghost_cap) &&
         !sh.ghost_fifo.empty()) {
    const auto [old_id, old_seq] = sh.ghost_fifo.front();
    sh.ghost_fifo.pop_front();
    // Only the id's newest entry is authoritative; stale entries (ghost
    // hits already consumed them, or a later re-ghost superseded them)
    // must not delete the live one.
    auto it = sh.ghost_map.find(old_id);
    if (it != sh.ghost_map.end() && it->second == old_seq) {
      sh.ghost_map.erase(it);
    }
  }
}

uint32_t BufferPool::AcquireFrame(Shard& sh) {
  if (sh.free_list.size > 0) {
    const uint32_t f = sh.free_list.head;
    Unlink(sh, f);
    return f;
  }
  if (options_.policy == EvictionPolicy::kExactLru) {
    return EvictFromTail(sh, ListId::kAm, /*to_ghost=*/false);
  }
  // 2Q: drain the probationary FIFO while it exceeds its share (or while
  // the protected side is empty); otherwise evict the protected LRU tail.
  uint32_t f = kNullFrame;
  if (sh.a1in.size > sh.a1in_target || sh.am.size == 0) {
    f = EvictFromTail(sh, ListId::kA1in, /*to_ghost=*/true);
  }
  if (f == kNullFrame) f = EvictFromTail(sh, ListId::kAm, /*to_ghost=*/false);
  if (f == kNullFrame) f = EvictFromTail(sh, ListId::kA1in, /*to_ghost=*/true);
  return f;
}

bool BufferPool::TryGet(PageId id, PinnedPage* out) {
  if (capacity() == 0) return false;
  Shard& sh = *shards_[ShardOf(id)];
  MutexLock lock(sh.mu);
  auto it = sh.table.find(id);
  if (it == sh.table.end()) return false;
  const uint32_t f = it->second;
  Frame& frame = frames_[f];
  // Reference touch.  In 2Q mode any second *demand* reference — whether
  // the page is still probationary or already protected — moves it to the
  // front of Am: R-tree roots and internal nodes are re-touched within a
  // single query, long before classic-2Q's eviction-then-ghost-hit cycle
  // would promote them.  Pages demand-referenced exactly once (leaf
  // scans) stay in the A1in FIFO and wash out without disturbing the
  // protected set; the first demand hit on a readahead-staged page is
  // such a first reference, not a promoting second one.
  if (frame.prefetched) {
    frame.prefetched = false;
    prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
    if (options_.policy == EvictionPolicy::kExactLru) {
      Unlink(sh, f);
      PushFront(sh, ListId::kAm, f);  // plain LRU touch
    }
  } else {
    Unlink(sh, f);
    PushFront(sh, ListId::kAm, f);
  }
  PinInto(sh, f, id, out);
  return true;
}

void BufferPool::PinInto(Shard& sh, uint32_t f, PageId id, PinnedPage* out) {
  // REQUIRES(sh.mu): the pin must appear before the latch is released
  // (eviction checks pins under the same latch), and the decoded snapshot
  // must be taken atomically with the lookup.
  (void)sh;  // only the capability is consumed
  Frame& frame = frames_[f];
  frame.pins.fetch_add(1, std::memory_order_acq_rel);
  out->Release();
  out->pool_ = this;
  out->frame_ = f;
  out->data_ = &frame.page;
  out->id_ = id;
  out->decoded_ = frame.decoded;
}

uint32_t BufferPool::StageFrame(Shard& sh, PageId id, const Page& src) {
  const uint32_t f = AcquireFrame(sh);
  if (f == kNullFrame) return kNullFrame;  // every candidate frame pinned
  Frame& frame = frames_[f];
  frame.page = src;  // the simulated disk-to-frame transfer
  frame.page_id = id;
  frame.prefetched = false;  // Insert overrides for readahead staging
  sh.table.emplace(id, f);
  if (options_.policy == EvictionPolicy::kExactLru) {
    PushFront(sh, ListId::kAm, f);
  } else if (sh.ghost_map.erase(id) > 0) {
    PushFront(sh, ListId::kAm, f);  // seen before: straight to protected
  } else {
    PushFront(sh, ListId::kA1in, f);  // first sighting: probationary
  }
  return f;
}

BufferPool::InsertOutcome BufferPool::Insert(PageId id, const Page& src,
                                             PinnedPage* out) {
  if (capacity() == 0) return InsertOutcome::kFull;
  Shard& sh = *shards_[ShardOf(id)];
  MutexLock lock(sh.mu);
  uint32_t f = kNullFrame;
  InsertOutcome outcome = InsertOutcome::kStaged;
  auto it = sh.table.find(id);
  if (it != sh.table.end()) {
    // Another thread staged this page between our miss and now; reuse it
    // (the content is identical — pages are immutable during reads).
    f = it->second;
    outcome = InsertOutcome::kReused;
  } else {
    f = StageFrame(sh, id, src);
    if (f == kNullFrame) return InsertOutcome::kFull;
    frames_[f].prefetched = (out == nullptr);
  }
  if (out != nullptr) {
    frames_[f].prefetched = false;  // demand reference
    PinInto(sh, f, id, out);
  }
  return outcome;
}

void BufferPool::PutForWrite(PageId id, const Page& src) {
  if (capacity() == 0) return;
  Shard& sh = *shards_[ShardOf(id)];
  MutexLock lock(sh.mu);
  auto it = sh.table.find(id);
  if (it != sh.table.end()) {
    const uint32_t f = it->second;
    Frame& frame = frames_[f];
    CONN_DCHECK(frame.pins.load(std::memory_order_acquire) == 0);
    frame.page = src;
    frame.decoded.reset();  // the cached parse no longer matches the bytes
    if (options_.policy == EvictionPolicy::kExactLru ||
        frame.list == ListId::kAm) {
      Unlink(sh, f);
      PushFront(sh, ListId::kAm, f);
    }
    return;
  }
  StageFrame(sh, id, src);  // fully pinned => stays write-through only
}

bool BufferPool::Resident(PageId id) {
  if (capacity() == 0) return false;
  Shard& sh = *shards_[ShardOf(id)];
  MutexLock lock(sh.mu);
  return sh.table.count(id) > 0;
}

size_t BufferPool::ResidentPages() {
  size_t n = 0;
  for (auto& sh : shards_) {
    MutexLock lock(sh->mu);
    n += sh->table.size();
  }
  return n;
}

size_t BufferPool::PinnedFrames() {
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.pins.load(std::memory_order_acquire) != 0) ++n;
  }
  return n;
}

void BufferPool::Unpin(uint32_t frame) {
  // Release ordering publishes the reader's byte accesses to the next
  // evictor, whose acquire load of the zero pin count synchronizes here.
  frames_[frame].pins.fetch_sub(1, std::memory_order_release);
}

void BufferPool::InstallDecoded(uint32_t frame,
                                std::shared_ptr<const void> obj) {
  Frame& f = frames_[frame];
  // The caller holds a pin, so the frame cannot be evicted or recycled;
  // its page id (and thus its shard) is stable.
  Shard& sh = *shards_[ShardOf(f.page_id)];
  MutexLock lock(sh.mu);
  f.decoded = std::move(obj);
}

}  // namespace storage
}  // namespace conn
