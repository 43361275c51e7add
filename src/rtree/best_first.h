// Best-first distance browsing over an R-tree (Hjaltason & Samet, TODS
// 1999).  Yields indexed objects in ascending order of their minimum
// Euclidean distance to a query segment — the mindist(e, q) order in which
// both CONN's data points and IOR's obstacles are consumed (Algorithms 1
// and 4).  Incremental: callers stop as soon as their termination bound
// (RLMAX, Lemma 2; or the IOR search distance, Lemma 3) is reached, giving
// the optimal I/O property of best-first search.
//
// With hint staging on (BufferOptions::stage_hints over a buffered pool),
// the descent additionally stages pages through Pager::Prefetch: before
// faulting on the node it is about to expand it stages the nearest
// still-pending node pages from the heap prefix, and when it expands a
// level-1 node it stages that node's nearest leaf children (STR siblings,
// laid out contiguously), at most kHintDepth of them.  Staging never
// faults and doesn't change which nodes the descent expands, so results
// and NPE/NOE accounting stay identical; demand faults can only turn into
// buffer hits.

#ifndef CONN_RTREE_BEST_FIRST_H_
#define CONN_RTREE_BEST_FIRST_H_

#include <vector>

#include "geom/segment.h"
#include "rtree/rstar_tree.h"

namespace conn {
namespace rtree {

/// Incremental nearest-first stream of objects from a tree w.r.t. a segment.
/// (A point query is the degenerate segment [p, p].)
class BestFirstIterator {
 public:
  /// Starts a stream over \p tree ordered by mindist to \p q.  The tree must
  /// outlive the iterator and must not be modified during iteration.
  BestFirstIterator(const RStarTree& tree, const geom::Segment& q);

  /// Minimum possible distance of any not-yet-returned object; +infinity
  /// when exhausted.  Expands internal nodes as needed (counted I/O).
  double PeekDist();

  /// Retrieves the next object and its mindist.  False when exhausted.
  bool Next(DataObject* out, double* dist);

 private:
  struct HeapItem {
    double dist;
    bool is_node;
    uint64_t payload;  // PageId for nodes, encoded leaf payload for objects
    geom::Rect rect;

    bool operator>(const HeapItem& o) const {
      if (dist != o.dist) return dist > o.dist;
      // Deterministic tie-break: nodes before objects, then by payload.
      if (is_node != o.is_node) return !is_node;
      return payload > o.payload;
    }
  };

  /// Pops internal nodes until the heap's top is an object (or empty).
  void EnsureTopIsObject();

  /// Heap primitives over heap_ (std::push_heap/pop_heap with the same
  /// std::greater<> ordering std::priority_queue would use, so the pop
  /// order is identical).  The raw vector exists so the hint emitters can
  /// scan the heap prefix for pending node pages — a priority_queue hides
  /// its container.
  void PushItem(const HeapItem& item);
  HeapItem PopTop();

  /// Stages the nearest still-pending node pages from the heap prefix
  /// (hint staging only; called right before a demand node fetch).
  void EmitPendingNodeHints();

  const RStarTree& tree_;
  geom::Segment query_;
  const bool hints_;  ///< tree_.PrefetchEnabled() at construction
  std::vector<HeapItem> heap_;  ///< min-heap via std::push_heap/pop_heap
  std::vector<storage::PageId> hint_scratch_;
};

}  // namespace rtree
}  // namespace conn

#endif  // CONN_RTREE_BEST_FIRST_H_
