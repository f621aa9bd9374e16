// A directory of compiled circuits, keyed by CNF hash — the persistence
// layer behind CircuitCache's warm starts.
//
// One file per circuit, named <Cnf::Hash64 as 16 hex digits>.gmcc. The
// hash only NAMES the file; correctness never rests on it — TryLoad
// verifies a candidate by exact clause-list comparison against the
// requested CNF (the same equality the in-memory cache uses), so a hash
// collision or a stale file degrades to a miss, never a wrong circuit.
//
// The store is a cache, not a database: every failure mode (missing file,
// corrupt bytes, version mismatch, clause mismatch) is reported as a
// typed non-fatal result and the caller recompiles. Writers go through
// SaveCircuit's temp-file + atomic-rename, so concurrent readers,
// writers, and WarmFrom scans never observe partial files.
//
// Thread safety: immutable after construction (a directory string), so
// all methods are safe to call concurrently.

#ifndef GMC_STORE_CIRCUIT_STORE_H_
#define GMC_STORE_CIRCUIT_STORE_H_

#include <string>
#include <vector>

#include "compile/nnf.h"
#include "compile/vtree.h"
#include "lineage/boolean_formula.h"
#include "store/circuit_io.h"

namespace gmc {
namespace store {

/// Outcome of a read-through probe. kMissing is the cold-cache case.
/// kRejected means the file's BYTES are invalid (corruption, torn write,
/// version skew) — a self-healing cache may quarantine it (store/scrub.h).
/// kMismatch means the bytes are a perfectly valid circuit for a
/// DIFFERENT CNF (a 64-bit hash collision, or a file hand-renamed into
/// place) — it must never be quarantined: it may be someone else's valid
/// entry. Both count as rejections in CircuitCache::Stats.
enum class StoreLookup { kLoaded, kMissing, kRejected, kMismatch };

class CircuitStore {
 public:
  /// A store rooted at `directory`. The directory is created (with
  /// parents) on the first Save, not here — constructing a store for a
  /// directory that never materializes is free.
  explicit CircuitStore(std::string directory);

  const std::string& directory() const { return directory_; }

  /// The file path `cnf`'s circuit would live at.
  std::string PathFor(const Cnf& cnf) const;

  /// Probes the store for `cnf`'s circuit. kLoaded fills *circuit (and
  /// *order if non-null) after verifying the file's embedded CNF matches
  /// `cnf` clause-for-clause. kMissing: no file. kRejected: file present
  /// but invalid. kMismatch: valid file for a different CNF. *error says
  /// why for both rejection kinds.
  StoreLookup TryLoad(const Cnf& cnf, NnfCircuit* circuit,
                      OrderHeuristic* order, std::string* error) const;

  /// Write-through: persists one compiled circuit (atomic rename; see
  /// circuit_io.h). Creates the store directory if needed. Returns false
  /// with *error on I/O failure — callers treat that as a lost cache
  /// write, never as a query failure.
  bool Save(const NnfCircuit& circuit, const Cnf& cnf, OrderHeuristic order,
            std::string* error) const;

  /// Every .gmcc path currently in the store directory (unvalidated —
  /// WarmFrom validates as it loads). Missing directory yields an empty
  /// list.
  std::vector<std::string> ListEntries() const;

 private:
  std::string directory_;
};

/// mkdir -p. Returns false with *error on failure (EEXIST is success).
bool EnsureDirectory(const std::string& path, std::string* error);

}  // namespace store
}  // namespace gmc

#endif  // GMC_STORE_CIRCUIT_STORE_H_
