// conn-pinnedpage-escape MUST fire: each function below leaks a raw view
// of PinnedPage::page() bytes past the pin's lifetime, through one of the
// escape shapes the check knows (return, field store, returned lambda) —
// and always through a local alias, which the old grep lint could not see.

#include "common/check.h"
#include "storage/pager.h"

namespace conn {
namespace storage {
namespace {

struct ViewCache {
  const Page* last = nullptr;
};

const Page* ReturnEscape(Pager& pager) {
  StatusOr<PinnedPage> got = pager.Fetch(0);
  CONN_CHECK(got.ok());
  const Page& view = got.value().page();
  const Page* alias = &view;
  return alias;  // conn-tidy: expect
}

void FieldEscape(Pager& pager, ViewCache* cache) {
  StatusOr<PinnedPage> got = pager.Fetch(0);
  CONN_CHECK(got.ok());
  cache->last = &got.value().page();  // conn-tidy: expect
}

auto LambdaEscape(Pager& pager) {
  StatusOr<PinnedPage> got = pager.Fetch(0);
  CONN_CHECK(got.ok());
  const Page& view = got.value().page();
  return [&view] { return view.bytes[0]; };  // conn-tidy: expect
}

}  // namespace
}  // namespace storage
}  // namespace conn
