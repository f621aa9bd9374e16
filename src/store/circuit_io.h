// Save / load / mmap for the on-disk circuit format (circuit_format.h).
//
// Three ways to get a circuit across a process boundary:
//   * SaveCircuit — atomically writes one circuit (plus the CNF it was
//     compiled from) to a file: temp file in the target directory, fsync,
//     rename, so readers never observe a half-written store entry.
//   * LoadCircuit — reads, validates (checksum + full structural bounds
//     check), and copies the file's node records and child pool into an
//     owning NnfCircuit, whose in-memory layout they already are. The
//     expensive step a warm start replaces is COMPILATION; this is two
//     array copies. CircuitCache (and so gmc_serve) loads this way.
//   * MappedCircuitView — mmap(PROT_READ) of the same file, validated the
//     same way, evaluable IN PLACE through the shared walk core with zero
//     copies: a library API for embedders whose replicas should share a
//     single page-cache copy of every circuit.
//
// Every reader rejects — with a clean error string, no UB, no partial
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
#include "compile/nnf_walk.h"
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

/// A read-only mmap of one store file, validated on open and evaluable in
/// place: view() points straight into the mapping, so EvaluateBatch{,
/// Dyadic,Double} walk the file's pages with zero copies — the walk code
/// is the same the in-memory circuit runs, hence bit-identical results.
///
/// Move-only RAII (the mapping unmaps on destruction); the view and
/// everything it points at die with the object. Thread safety: const
/// after Open, safe for concurrent evaluation from any number of threads.
class MappedCircuitView {
 public:
  MappedCircuitView() = default;
  ~MappedCircuitView();
  MappedCircuitView(MappedCircuitView&& other) noexcept;
  MappedCircuitView& operator=(MappedCircuitView&& other) noexcept;
  MappedCircuitView(const MappedCircuitView&) = delete;
  MappedCircuitView& operator=(const MappedCircuitView&) = delete;

  /// Maps and validates `path`. On failure returns false with *error set
  /// and leaves the object empty (ok() == false).
  bool Open(const std::string& path, std::string* error);

  bool ok() const { return data_ != nullptr; }
  /// The circuit, as a walk view into the mapping. Requires ok().
  const CircuitWalkView& view() const { return view_; }

  uint64_t cnf_hash() const { return cnf_hash_; }
  uint64_t fingerprint() const { return fingerprint_; }
  OrderHeuristic order() const { return order_; }
  size_t file_size() const { return size_; }

  /// The source CNF, decoded from the embedded section (exact-match
  /// verification of store hits; one allocation per clause). Requires ok().
  Cnf DecodeCnf() const;

  /// Evaluation, straight off the mapping (see compile/nnf_walk.h for
  /// semantics — these are the same walks NnfCircuit runs on its own
  /// arrays).
  Rational Evaluate(const std::vector<Rational>& probabilities) const;
  std::vector<Rational> EvaluateBatch(const WeightMatrix& weights,
                                      int num_threads = 0) const;
  std::vector<Rational> EvaluateBatchDyadic(
      const WeightMatrix& weights, int num_threads = 0,
      DyadicBatchStats* stats = nullptr) const;
  std::vector<double> EvaluateBatchDouble(const WeightMatrix& weights,
                                          int recheck_stride = 0,
                                          double recheck_tolerance = 1e-9,
                                          int num_threads = 0) const;

 private:
  void Reset();

  const uint8_t* data_ = nullptr;  // mmap base; non-null iff ok()
  size_t size_ = 0;
  CircuitWalkView view_;
  uint64_t cnf_hash_ = 0;
  uint64_t fingerprint_ = 0;
  OrderHeuristic order_ = OrderHeuristic::kDefault;
  const int32_t* clause_lengths_ = nullptr;
  const int32_t* clause_vars_ = nullptr;
  int32_t num_clauses_ = 0;
  int32_t cnf_num_vars_ = 0;
  size_t num_clause_vars_ = 0;
};

}  // namespace store
}  // namespace gmc

#endif  // GMC_STORE_CIRCUIT_IO_H_
