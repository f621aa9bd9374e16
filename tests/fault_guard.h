// FaultGuard — gives one test scope a clean fault state (every point
// disarmed, every counter zero) and, when the scope ends, installs the
// ambient GMC_FAULT spec again. A test that pins counts which a fired
// point would perturb holds one, and the tests after it still run under
// the spec: gtest runs a binary's suites in the order they first appear,
// so no test can count on running last.

#ifndef GMC_TESTS_FAULT_GUARD_H_
#define GMC_TESTS_FAULT_GUARD_H_

#include <cstdlib>

#include "util/fault.h"

namespace gmc {

class FaultGuard {
 public:
  FaultGuard() { fault::Reset(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
  ~FaultGuard() {
    // "" disarms every point; a malformed spec leaves them disarmed, as
    // the env install does.
    const char* spec = std::getenv("GMC_FAULT");
    fault::Configure(spec != nullptr ? spec : "");
  }
};

}  // namespace gmc

#endif  // GMC_TESTS_FAULT_GUARD_H_
