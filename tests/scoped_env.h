// ScopedEnv — sets environment variables for one test scope and restores
// their previous values (set or unset) when it goes out of scope, so a test
// that exercises GmcOptions::FromEnv cannot leak a GMC_ variable into the
// tests that run after it, whatever their order.

#ifndef GMC_TESTS_SCOPED_ENV_H_
#define GMC_TESTS_SCOPED_ENV_H_

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gmc {

class ScopedEnv {
 public:
  ScopedEnv() = default;
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() {
    // Newest first, so a variable set twice ends at its original value.
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      if (it->second.has_value()) {
        ::setenv(it->first.c_str(), it->second->c_str(), 1);
      } else {
        ::unsetenv(it->first.c_str());
      }
    }
  }

  /// Sets `name` to `value`, or unsets it when `value` is null.
  void Set(const char* name, const char* value) {
    const char* previous = std::getenv(name);
    saved_.emplace_back(name, previous != nullptr
                                  ? std::optional<std::string>(previous)
                                  : std::nullopt);
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

}  // namespace gmc

#endif  // GMC_TESTS_SCOPED_ENV_H_
