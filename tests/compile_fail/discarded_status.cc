// Must not compile: Status and Result<T> are [[nodiscard]] at class scope,
// and the tree builds with -Werror, so a bare call that drops either is an
// error. The compile_fail.discarded_status ctest expects one diagnostic per
// bare call; checked, consumed (`.ok()`) and voided results compile.
#include "common/result.h"
#include "common/status.h"

namespace demo {

hyperq::common::Status Flush();
hyperq::common::Result<int> Count();

void Use() {
  Flush();
  Count();
  hyperq::common::Status s = Flush();
  if (!s.ok()) return;
  Flush().ok();
  (void)Flush();
  (void)Count();
}

}  // namespace demo
