// Deterministic, always-compiled fault injection.
//
// Every failure path the robustness layer promises to survive — a store
// read that returns garbage, a store write that never lands, a cache
// insert that is lost, a socket write to a vanished peer — is guarded by a
// named fault point that CI can fire on demand. The points are compiled
// into every build (no #ifdef forks: the code CI exercises is the code
// production runs); when no spec is installed the cost of a point is one
// relaxed atomic load and a predictable branch, cheap enough to leave on
// the store/serve paths permanently (bench_robust pins this).
//
// Activation comes from the GMC_FAULT environment variable (read once) or
// from Configure() in tests. Spec grammar, comma-separated:
//
//   GMC_FAULT="store.write=0.1,cache.insert=0.01,seed=42"
//
//   point := store.read | store.write | cache.insert | socket.write
//          | serve.accept | store.scrub | lineage.template
//   rate  := decimal in [0, 1] (probability that one crossing fires)
//   seed  := uint64 (default 0) — decisions are a pure function of
//            (seed, point, per-point crossing index), so a given seed
//            fires the exact same crossings in every run and on every
//            machine, regardless of thread interleaving.
//
// A fired point must surface as a typed error on the normal failure path
// of its call site — never a crash, never a silently wrong answer. The
// call sites (circuit_io.cc, circuit_cache.cc, serve.cc, scrub.cc,
// grounder.cc) each document which existing failure they alias to.

#ifndef GMC_UTIL_FAULT_H_
#define GMC_UTIL_FAULT_H_

#include <cstdint>
#include <string>

namespace gmc {
namespace fault {

enum class Point : int {
  kStoreRead = 0,    // LoadCircuit: the image fails to read back
  kStoreWrite,       // SaveCircuit: the write is lost before rename
  kCacheInsert,      // CircuitCache: a compiled circuit misses the cache
  kSocketWrite,      // serve reply: the peer vanished mid-send
  kServeAccept,      // accept(2): a transient ECONNABORTED-class failure
  kStoreScrub,       // scrub: the quarantine rename fails
  kLineageTemplate,  // GroundingTemplates: the stored template is lost
  kNumPoints,
};

const char* PointName(Point point);

// Installs a spec (see grammar above), replacing any active one; the empty
// string disables every point and zeroes the counters. Returns false and
// fills *error on a malformed spec, leaving the previous spec active.
bool Configure(const std::string& spec, std::string* error = nullptr);

// True if this crossing of `point` should fail. The first call anywhere
// lazily installs GMC_FAULT. A malformed env spec disables injection
// rather than abort (the variable is operator input, not programmer
// error), and one stderr line names the variable and the parse error.
bool ShouldFail(Point point);

// Crossings of `point` that fired since the last Configure/Reset.
uint64_t InjectedCount(Point point);
// Total crossings of `point` (fired or not) — lets tests assert a point
// was actually exercised even at rate 0.
uint64_t CrossingCount(Point point);

// Disables every point and zeroes all counters (tests).
void Reset();

}  // namespace fault
}  // namespace gmc

#endif  // GMC_UTIL_FAULT_H_
