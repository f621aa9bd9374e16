// Save / load for the on-disk circuit format (circuit_format.h).
//
// Two ways to get a circuit across a process boundary:
//   * SaveCircuit — atomically writes one circuit (plus the CNF it was
//     compiled from) to a file: temp file in the target directory, fsync,
//     rename, so readers never observe a half-written store entry.
//   * LoadCircuit — reads, validates (checksum + full structural bounds
//     check), and copies the file's node records and child pool into an
//     owning NnfCircuit, whose in-memory layout they already are. The
//     expensive step a warm start replaces is COMPILATION; this is two
//     array copies. CircuitCache (and so gmc_serve) loads this way.
//
// The reader rejects — with a clean error string, no UB, no partial
// state — truncated files, flipped bits anywhere (checksum), version or
// magic mismatches, and structurally invalid arenas (out-of-range child
// ids, children not preceding parents, bad kinds/roots/counts) or a
// recomputed fingerprint that disagrees with the header. The owning copy
// is the validated arrays themselves, so it needs no second check.

#ifndef GMC_STORE_CIRCUIT_IO_H_
#define GMC_STORE_CIRCUIT_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compile/nnf.h"
#include "compile/vtree.h"
#include "lineage/boolean_formula.h"

namespace gmc {
namespace store {

/// A validated circuit image decoded from a file (LoadCircuit) — the
/// circuit, the CNF it answers, and the provenance the header carries.
struct LoadedCircuit {
  NnfCircuit circuit;
  Cnf cnf;
  OrderHeuristic order = OrderHeuristic::kDefault;
  uint64_t cnf_hash = 0;
  uint64_t fingerprint = 0;
};

/// Serializes `circuit` (compiled from `cnf` under `order`) into the
/// format's byte image. Deterministic: same circuit + CNF → same bytes.
std::vector<uint8_t> EncodeCircuit(const NnfCircuit& circuit, const Cnf& cnf,
                                   OrderHeuristic order);

/// Validates and decodes a byte image. Returns false (with *error set, out
/// untouched beyond scratch) on ANY malformation; never aborts on bad
/// bytes — corrupt stores must degrade to recompilation, not crashes.
bool DecodeCircuit(const uint8_t* data, size_t size, LoadedCircuit* out,
                   std::string* error);

/// Atomic save: writes the encoded image to `<path>.tmp.<pid>` in the
/// destination directory, fsyncs, then renames over `path`. Returns false
/// with *error on any I/O failure (the temp file is unlinked).
bool SaveCircuit(const NnfCircuit& circuit, const Cnf& cnf,
                 OrderHeuristic order, const std::string& path,
                 std::string* error);

/// Reads + validates + copies. See LoadedCircuit.
bool LoadCircuit(const std::string& path, LoadedCircuit* out,
                 std::string* error);

}  // namespace store
}  // namespace gmc

#endif  // GMC_STORE_CIRCUIT_IO_H_
