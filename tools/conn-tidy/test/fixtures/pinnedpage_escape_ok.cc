// conn-pinnedpage-escape must stay silent: every page() view below dies
// inside the pin's scope.  Passing the borrow down by argument
// (AssignFromPage-style), reading through a local alias, and copying the
// bytes out are the sanctioned idioms.

#include <cstdint>

#include "common/check.h"
#include "storage/pager.h"

namespace conn {
namespace storage {
namespace {

uint8_t Consume(const Page& page) { return page.bytes[0]; }

uint8_t ReadWithinPin(Pager& pager) {
  StatusOr<PinnedPage> got = pager.Fetch(0);
  CONN_CHECK(got.ok());
  const Page& view = got.value().page();
  const Page* alias = &view;       // alias is fine while the pin lives
  return Consume(*alias);
}

Page CopyOut(Pager& pager) {
  StatusOr<PinnedPage> got = pager.Fetch(0);
  CONN_CHECK(got.ok());
  return got.value().page();       // by-value copy, not a borrow
}

}  // namespace
}  // namespace storage
}  // namespace conn
