#include "rtree/pair_join.h"

#include <limits>
#include <vector>

#include "geom/distance.h"
#include "storage/pool_tuning.h"

namespace conn {
namespace rtree {
namespace {

// Hint staging only: stage the leaf children of a just-expanded level-1
// node so the pairs pushed onto the heap find their pages resident when
// popped.  Entry order is STR order — siblings are contiguous.  The batch
// is clamped by kHintDepth (matches the best-first descent's clamp).
void HintLeafChildren(const RStarTree& tree, const Node& node) {
  if (node.level != 1 || !tree.PrefetchEnabled()) return;
  std::vector<storage::PageId> ids;
  ids.reserve(storage::kHintDepth);
  for (const NodeEntry& e : node.entries) {
    ids.push_back(e.DecodeChild());
    if (ids.size() >= storage::kHintDepth) break;
  }
  tree.PrefetchPages(ids);
}

}  // namespace

PairDistanceJoin::PairDistanceJoin(const RStarTree& tree_a,
                                   const RStarTree& tree_b)
    : tree_a_(tree_a), tree_b_(tree_b) {
  if (tree_a.size() == 0 || tree_b.size() == 0) return;
  Item root;
  root.dist = 0.0;
  root.a_is_node = true;
  root.b_is_node = true;
  root.a_payload = tree_a.root();
  root.b_payload = tree_b.root();
  root.a_rect = geom::Rect::Empty();
  root.b_rect = geom::Rect::Empty();
  heap_.push(root);
}

void PairDistanceJoin::PushChildren(const Item& top) {
  // Expand the side that is a node; prefer expanding both simultaneously
  // when both are nodes (classic simultaneous traversal keeps the heap
  // shallower than alternating single-side expansion).
  if (top.a_is_node && top.b_is_node) {
    StatusOr<ConstNodeRef> ra =
        tree_a_.FetchNode(static_cast<storage::PageId>(top.a_payload));
    StatusOr<ConstNodeRef> rb =
        tree_b_.FetchNode(static_cast<storage::PageId>(top.b_payload));
    CONN_CHECK(ra.ok() && rb.ok());
    const Node& na = *ra.value();
    const Node& nb = *rb.value();
    HintLeafChildren(tree_a_, na);
    HintLeafChildren(tree_b_, nb);
    for (const NodeEntry& ea : na.entries) {
      for (const NodeEntry& eb : nb.entries) {
        Item item;
        item.dist = geom::MinDistRectRect(ea.rect, eb.rect);
        item.a_is_node = !na.IsLeaf();
        item.b_is_node = !nb.IsLeaf();
        item.a_payload = na.IsLeaf() ? ea.payload
                                     : static_cast<uint64_t>(ea.DecodeChild());
        item.b_payload = nb.IsLeaf() ? eb.payload
                                     : static_cast<uint64_t>(eb.DecodeChild());
        item.a_rect = ea.rect;
        item.b_rect = eb.rect;
        heap_.push(item);
      }
    }
    return;
  }
  // Exactly one side is a node: pair each of its children with the fixed
  // object on the other side.
  const bool expand_a = top.a_is_node;
  const RStarTree& tree = expand_a ? tree_a_ : tree_b_;
  StatusOr<ConstNodeRef> ref = tree.FetchNode(static_cast<storage::PageId>(
      expand_a ? top.a_payload : top.b_payload));
  CONN_CHECK(ref.ok());
  const Node& node = *ref.value();
  HintLeafChildren(tree, node);
  for (const NodeEntry& e : node.entries) {
    Item item = top;
    const geom::Rect other = expand_a ? top.b_rect : top.a_rect;
    item.dist = geom::MinDistRectRect(e.rect, other);
    if (expand_a) {
      item.a_is_node = !node.IsLeaf();
      item.a_payload = node.IsLeaf()
                           ? e.payload
                           : static_cast<uint64_t>(e.DecodeChild());
      item.a_rect = e.rect;
    } else {
      item.b_is_node = !node.IsLeaf();
      item.b_payload = node.IsLeaf()
                           ? e.payload
                           : static_cast<uint64_t>(e.DecodeChild());
      item.b_rect = e.rect;
    }
    heap_.push(item);
  }
}

void PairDistanceJoin::EnsureTopIsPair() {
  while (!heap_.empty() &&
         (heap_.top().a_is_node || heap_.top().b_is_node)) {
    const Item top = heap_.top();
    heap_.pop();
    PushChildren(top);
  }
}

double PairDistanceJoin::PeekDist() {
  EnsureTopIsPair();
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.top().dist;
}

bool PairDistanceJoin::Next(DataObject* a, DataObject* b, double* dist) {
  EnsureTopIsPair();
  if (heap_.empty()) return false;
  const Item top = heap_.top();
  heap_.pop();
  NodeEntry ea, eb;
  ea.rect = top.a_rect;
  ea.payload = top.a_payload;
  eb.rect = top.b_rect;
  eb.payload = top.b_payload;
  *a = ea.ToObject();
  *b = eb.ToObject();
  *dist = top.dist;
  return true;
}

}  // namespace rtree
}  // namespace conn
