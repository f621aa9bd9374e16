// A monitoring counter that is its own snapshot.
//
// Every layer's Stats struct (GmcServer, CircuitCache, GfomcSession) is
// built from these, so one declaration serves as both the live counters
// and the copy a reader takes home: stats() is a plain struct copy, one
// relaxed load per field, and never takes a lock. The
// price is that a copied struct is not a transaction — each field is read
// independently, so two counters bumped together may be seen one ahead of
// the other. That is the right trade for monitoring: a STATS or HEALTH
// reader never waits behind an evaluation.
//
// All operations are relaxed: the counters order nothing, they only count.

#ifndef GMC_UTIL_RELAXED_COUNTER_H_
#define GMC_UTIL_RELAXED_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace gmc {

class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  // Copying loads the source: a copied struct of counters is a snapshot.
  RelaxedCounter(const RelaxedCounter& other) noexcept
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) noexcept {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  RelaxedCounter& operator+=(uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator-=(uint64_t n) noexcept {
    value_.fetch_sub(n, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() noexcept { return *this += 1; }

  // High-water mark: raises the value to `candidate` if that is larger.
  void RaiseTo(uint64_t candidate) noexcept {
    uint64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < candidate &&
           !value_.compare_exchange_weak(seen, candidate,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace gmc

#endif  // GMC_UTIL_RELAXED_COUNTER_H_
