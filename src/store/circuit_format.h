// The on-disk circuit format: a versioned, little-endian, arena-laid-out
// d-DNNF container (".gmcc" files of the circuit store).
//
// Design goals, in order:
//   1. A loaded file IS an evaluable circuit: the node section uses the
//      exact FlatNode record the walk core (compile/nnf_walk.h) consumes,
//      so loading copies two arrays with no per-node decoding.
//   2. Corruption is detected, never executed: a full-file checksum plus
//      per-node bounds validation run before any walk touches the data.
//   3. Self-describing: the grounded CNF the circuit was compiled from is
//      embedded verbatim, so (a) a store hit is verified by EXACT clause
//      comparison — the 64-bit key hash only names the file, it never
//      decides correctness — and (b) a cold cache can warm itself from a
//      directory with no other input.
//
// Layout (all integers little-endian; offsets in bytes):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     8  magic "gmccirc\0"
//        8     4  format version (currently 1)
//       12     4  order heuristic tag (OrderHeuristic; informational)
//       16     8  Cnf::Hash64 of the source CNF (names the store file)
//       24     8  circuit fingerprint (WalkFingerprint; round-trip check)
//       32     8  num_nodes        (N)
//       40     8  num_children     (C — kAnd child-id pool length)
//       48     4  root node id
//       52     4  num_vars of the circuit
//       56     4  num_vars of the source CNF
//       60     4  num_clauses of the source CNF (M)
//       64     8  reserved (zero)
//       72     8  checksum: FNV-1a over every other byte of the file
//       80   16N  node records (FlatNode: kind u32, var i32, a i32, b i32)
//    +16N    4C  child-id pool (i32 each)
//     +4C    4M  clause lengths (i32 each)
//        +  4ΣL  clause variable ids, clause by clause, sorted within
//
// Versioning policy: the magic never changes; `version` bumps on ANY
// layout change, and readers reject every version they were not built
// for — no in-place migration, a mismatched file is simply recompiled
// (the store is a cache, not a database). See docs/SERVING.md for the
// compatibility contract.
//
// The format is defined little-endian. Big-endian hosts would need a
// byte-swapping reader, which nothing targets today; the static_assert
// makes the assumption loud instead of silently corrupt.

#ifndef GMC_STORE_CIRCUIT_FORMAT_H_
#define GMC_STORE_CIRCUIT_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace gmc {
namespace store {

static_assert(std::endian::native == std::endian::little,
              "the circuit store format is little-endian; add a swapping "
              "reader before enabling it on big-endian hosts");

inline constexpr char kMagic[8] = {'g', 'm', 'c', 'c', 'i', 'r', 'c', '\0'};
inline constexpr uint32_t kFormatVersion = 1;
/// Store file extension (files are named <hash64-hex>.gmcc).
inline constexpr char kFileExtension[] = ".gmcc";

/// The fixed-size file header. Trivially copyable, laid out exactly as the
/// table above (static_asserts below pin every offset).
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t order_tag;
  uint64_t cnf_hash;
  uint64_t fingerprint;
  uint64_t num_nodes;
  uint64_t num_children;
  int32_t root;
  int32_t circuit_num_vars;
  int32_t cnf_num_vars;
  int32_t num_clauses;
  uint64_t reserved;
  uint64_t checksum;
};

static_assert(sizeof(FileHeader) == 80, "header layout drifted");
static_assert(offsetof(FileHeader, version) == 8);
static_assert(offsetof(FileHeader, order_tag) == 12);
static_assert(offsetof(FileHeader, cnf_hash) == 16);
static_assert(offsetof(FileHeader, fingerprint) == 24);
static_assert(offsetof(FileHeader, num_nodes) == 32);
static_assert(offsetof(FileHeader, num_children) == 40);
static_assert(offsetof(FileHeader, root) == 48);
static_assert(offsetof(FileHeader, circuit_num_vars) == 52);
static_assert(offsetof(FileHeader, cnf_num_vars) == 56);
static_assert(offsetof(FileHeader, num_clauses) == 60);
static_assert(offsetof(FileHeader, reserved) == 64);
static_assert(offsetof(FileHeader, checksum) == 72);

/// FNV-1a over a byte range — the file checksum primitive. The checksum
/// field itself is skipped by ChecksumFile below, never by this.
inline uint64_t Fnv1a(const uint8_t* data, size_t size,
                      uint64_t seed = 14695981039346656037ull) {
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

/// Checksum of a whole file image with the 8 checksum bytes themselves
/// excluded (so the field can live inside the region it protects).
inline uint64_t ChecksumFile(const uint8_t* data, size_t size) {
  constexpr size_t kBegin = offsetof(FileHeader, checksum);
  constexpr size_t kEnd = kBegin + sizeof(uint64_t);
  uint64_t h = Fnv1a(data, kBegin);
  return Fnv1a(data + kEnd, size - kEnd, h);
}

}  // namespace store
}  // namespace gmc

#endif  // GMC_STORE_CIRCUIT_FORMAT_H_
