// Disk-based R*-tree (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990) —
// the index assumed by the paper for both the data set P and the obstacle
// set O ("All data and obstacle sets are indexed by an R*-tree, with the
// page size fixed at 4KB", Section 5.1).
//
// Implemented features:
//   * ChooseSubtree with the R* overlap-enlargement rule at the leaf level
//     (restricted to the 32 least-area-enlargement candidates);
//   * forced reinsertion of 30% of entries on first overflow per level;
//   * the R* topological split (margin-driven axis choice, overlap-driven
//     distribution choice);
//   * deletion with tree condensation and orphan reinsertion;
//   * range / segment-intersection queries;
//   * STR bulk loading (str_bulk_load.h) and best-first distance browsing
//     (best_first.h) as companions.
//
// All node accesses go through the Pager, so every traversal is charged
// page faults under the paper's I/O model and can be run with a buffer pool
// of any capacity and policy (Figure 12's experiment).  Read traversals use
// FetchNode(), which pins the page in the pool and returns a shared ref to
// the frame's cached deserialization — hot nodes are parsed once per
// residency and never copied.  With BufferOptions::stage_hints on, the
// traversals also stage the pages they will likely read next
// (PrefetchPages).  The Pager itself lives behind a stable heap
// handle: moving a tree (bulk-load returns by value) relocates only the
// handle, never the frame table, latches, or counters that in-flight
// readers may reference.

#ifndef CONN_RTREE_RSTAR_TREE_H_
#define CONN_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "geom/segment.h"
#include "rtree/node.h"
#include "storage/pager.h"

namespace conn {
namespace rtree {

/// A disk-paged R*-tree over (rect, payload) objects.
class RStarTree {
 public:
  /// Creates an empty tree (a single empty leaf).
  RStarTree();

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;

  /// Inserts an object (R* insertion with forced reinsert).
  Status Insert(const DataObject& obj);

  /// Deletes the object matching (rect, id, kind) exactly.  NotFound if the
  /// object is not present.  Underflowing nodes are dissolved and their
  /// contents reinserted; orphaned subtree pages are not recycled (no
  /// free-list — acceptable for this workload, documented limitation).
  Status Delete(const DataObject& obj);

  /// Number of indexed objects.
  size_t size() const { return size_; }

  /// Tree height in levels (1 = root is a leaf).
  size_t Height() const { return height_; }

  /// Root page id.
  storage::PageId root() const { return root_; }

  /// Bounding rectangle of the whole tree (Empty() when no objects).
  geom::Rect Bounds() const;

  /// Page accessor — configure the buffer pool and read fault counters
  /// here.  The Pager has a stable address for the tree's lifetime (moves
  /// of the tree only re-seat the owning handle).
  storage::Pager& pager() const { return *pager_; }

  /// Number of pages the tree occupies (the "tree size" for Figure 12's
  /// buffer percentages).
  size_t PageCount() const { return pager_->PageCount(); }

  /// Fetches a node through the buffer pool without copying: the returned
  /// ref aliases the frame's decoded-node cache (parsed at most once per
  /// residency of the page).  The ref stays valid after eviction.
  StatusOr<ConstNodeRef> FetchNode(storage::PageId id) const;

  /// True when traversals stage hint pages: stage_hints on over a
  /// buffered pool.  Otherwise they keep the exact reference access
  /// pattern.
  bool PrefetchEnabled() const;

  /// Stages tree pages through Pager::Prefetch (a no-op unless
  /// PrefetchEnabled(); staging never faults).
  void PrefetchPages(std::span<const storage::PageId> ids) const;

  /// Reads a node into caller-owned (mutable) storage — the insertion and
  /// deletion paths use this; read-only traversals prefer FetchNode().
  Status ReadNode(storage::PageId id, Node* out) const;

  /// All objects whose rect intersects \p range.
  Status RangeQuery(const geom::Rect& range,
                    std::vector<DataObject>* out) const;

  /// All objects whose rect intersects segment \p s.
  Status SegmentIntersectionQuery(const geom::Segment& s,
                                  std::vector<DataObject>* out) const;

  /// Structural invariant check (levels, MBR containment, fill factors,
  /// object count).  Intended for tests; OK on success.
  Status Validate() const;

 private:
  friend class StrBulkLoader;  // builds pages directly

  struct PathItem {
    storage::PageId page_id;
    Node node;
    int slot_in_parent;  // -1 for the root
  };

  Status WriteNode(storage::PageId id, const Node& node);

  /// Descends from the root to a node at \p target_level following the R*
  /// ChooseSubtree rules for \p rect; fills \p path (root first).
  Status ChoosePath(const geom::Rect& rect, uint16_t target_level,
                    std::vector<PathItem>* path) const;

  /// Core insertion of an entry at a level, with the once-per-level forced
  /// reinsertion discipline (bitmask over levels).
  Status InsertEntry(const NodeEntry& entry, uint16_t level,
                     uint32_t* reinsert_mask);

  /// Splits an overflowing node by the R* algorithm; returns the new
  /// sibling in \p right.
  static void SplitNode(Node* node, Node* right);

  /// Rewrites nodes along \p path from \p from_index upward, refreshing the
  /// parents' entry rectangles.
  Status AdjustPath(std::vector<PathItem>* path, size_t from_index);

  Status ValidateRec(storage::PageId id, uint16_t expected_level,
                     const geom::Rect* parent_rect, bool is_root,
                     size_t* object_count) const;

  // Stable handle: the Pager (frame table, latches, counters) never moves
  // even when the tree object does.
  std::unique_ptr<storage::Pager> pager_ =
      std::make_unique<storage::Pager>();
  storage::PageId root_ = storage::kInvalidPageId;
  size_t height_ = 1;
  size_t size_ = 0;
};

}  // namespace rtree
}  // namespace conn

#endif  // CONN_RTREE_RSTAR_TREE_H_
