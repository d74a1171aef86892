// Must not compile: common::Mutex has no default constructor, so every
// mutex names its LockRank. The compile_fail.unranked_mutex ctest expects
// the missing-constructor diagnostic for g_bad.
#include "common/sync.h"

namespace demo {

hyperq::common::Mutex g_good{hyperq::common::LockRank::kJob, "good"};
hyperq::common::Mutex g_bad;

}  // namespace demo
