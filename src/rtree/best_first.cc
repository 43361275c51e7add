#include "rtree/best_first.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "geom/distance.h"
#include "storage/pool_tuning.h"

namespace conn {
namespace rtree {
namespace {

// Heap-prefix window scanned for pending node pages before a demand node
// fetch.  The first levels of the binary min-heap hold the smallest
// (nearest) items, so a short prefix covers the likely next expansions
// without ordering the whole heap.
constexpr size_t kPendingHintScan = 12;

// At most this many pending-node hints per expansion: enough to stage the
// descent's likely next expansions, small enough that a query that
// terminates early (Lemma 2 / Lemma 3 bounds) wastes little staging.
constexpr size_t kPendingNodeHintCap = 4;

}  // namespace

BestFirstIterator::BestFirstIterator(const RStarTree& tree,
                                     const geom::Segment& q)
    : tree_(tree), query_(q), hints_(tree.PrefetchEnabled()) {
  if (tree.size() == 0) return;  // empty tree: stream is empty
  HeapItem root;
  root.dist = 0.0;
  root.is_node = true;
  root.payload = tree.root();
  root.rect = geom::Rect::Empty();
  PushItem(root);
}

void BestFirstIterator::PushItem(const HeapItem& item) {
  heap_.push_back(item);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

BestFirstIterator::HeapItem BestFirstIterator::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  HeapItem top = heap_.back();
  heap_.pop_back();
  return top;
}

void BestFirstIterator::EmitPendingNodeHints() {
  hint_scratch_.clear();
  const size_t scan = std::min(heap_.size(), kPendingHintScan);
  for (size_t i = 0;
       i < scan && hint_scratch_.size() < kPendingNodeHintCap; ++i) {
    if (!heap_[i].is_node) continue;
    hint_scratch_.push_back(static_cast<storage::PageId>(heap_[i].payload));
  }
  if (!hint_scratch_.empty()) tree_.PrefetchPages(hint_scratch_);
}

void BestFirstIterator::EnsureTopIsObject() {
  while (!heap_.empty() && heap_.front().is_node) {
    const HeapItem top = PopTop();
    // Stage the nodes we will likely expand next before faulting on this
    // one, so their later demand fetches find them resident.
    if (hints_) EmitPendingNodeHints();
    // Page ids in the heap come from the tree itself; failure here means
    // structural corruption, not a caller error.
    StatusOr<ConstNodeRef> ref =
        tree_.FetchNode(static_cast<storage::PageId>(top.payload));
    CONN_CHECK_MSG(ref.ok(), "best-first read failed");
    const Node& node = *ref.value();
    // Children of a level-1 node are leaf pages: collect (dist, id) so the
    // nearest STR siblings can be staged as one batch below.
    std::vector<std::pair<double, storage::PageId>> leaf_children;
    const bool collect_leaves = hints_ && node.level == 1;
    for (const NodeEntry& e : node.entries) {
      HeapItem item;
      item.dist = geom::MinDistRectSegment(e.rect, query_);
      item.is_node = !node.IsLeaf();
      item.payload = node.IsLeaf() ? e.payload
                                   : static_cast<uint64_t>(e.DecodeChild());
      item.rect = e.rect;
      PushItem(item);
      if (collect_leaves) {
        leaf_children.push_back({item.dist, e.DecodeChild()});
      }
    }
    if (collect_leaves && !leaf_children.empty()) {
      // Sibling leaf pages staged per expanded level-1 node, nearest (by
      // mindist to the query) first, at most kHintDepth of them.
      const size_t take =
          std::min(leaf_children.size(), storage::kHintDepth);
      std::partial_sort(leaf_children.begin(), leaf_children.begin() + take,
                        leaf_children.end());
      hint_scratch_.clear();
      for (size_t i = 0; i < take; ++i) {
        hint_scratch_.push_back(leaf_children[i].second);
      }
      tree_.PrefetchPages(hint_scratch_);
    }
  }
}

double BestFirstIterator::PeekDist() {
  EnsureTopIsObject();
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().dist;
}

bool BestFirstIterator::Next(DataObject* out, double* dist) {
  EnsureTopIsObject();
  if (heap_.empty()) return false;
  const HeapItem top = PopTop();
  NodeEntry e;
  e.rect = top.rect;
  e.payload = top.payload;
  *out = e.ToObject();
  *dist = top.dist;
  return true;
}

}  // namespace rtree
}  // namespace conn
