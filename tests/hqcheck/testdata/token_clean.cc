// Known-clean input for the token rules: a ranked global mutex and
// smart-pointer factories draw no finding.
#include <memory>

#include "common/sync.h"

namespace demo {

struct Widget {
  int size = 0;
};

common::Mutex g_mu{common::LockRank::kJob, "clean"};
int g_value = 0;

void Bump() {
  common::MutexLock lock(&g_mu);
  ++g_value;
}

std::unique_ptr<Widget> MakeWidget() { return std::make_unique<Widget>(); }
std::shared_ptr<Widget> ShareWidget() { return std::shared_ptr<Widget>(new Widget()); }

}  // namespace demo
