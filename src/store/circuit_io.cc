#include "store/circuit_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "compile/nnf_walk.h"
#include "store/circuit_format.h"
#include "util/check.h"
#include "util/fault.h"

namespace gmc {
namespace store {

namespace {

// Bounded retry policy for TRANSIENT I/O errors. EINTR retries immediately
// and never consumes an attempt (a signal is not a resource problem);
// EAGAIN and ENOSPC back off exponentially — 1, 4, 16 ms plus a
// deterministic per-process jitter so N replicas hammering one full disk
// don't retry in lockstep — for up to three attempts before the error is
// surfaced to the caller as permanent. Everything else fails immediately:
// retrying EIO or EBADF only hides real bugs.
class TransientRetry {
 public:
  bool ShouldRetry(int err) {
    if (err == EINTR) return true;
    if (err != EAGAIN && err != ENOSPC) return false;
    if (attempts_ >= kMaxAttempts) return false;
    const uint64_t base_us = 1000ull << (2 * attempts_);
    // splitmix64 finalizer of (pid, attempt): deterministic for a process,
    // decorrelated across processes — no wall clock, no global RNG.
    uint64_t z = (static_cast<uint64_t>(::getpid()) << 8) |
                 static_cast<uint64_t>(attempts_);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    const uint64_t jitter_us = (z ^ (z >> 31)) % 500;
    std::this_thread::sleep_for(
        std::chrono::microseconds(base_us + jitter_us));
    ++attempts_;
    return true;
  }

 private:
  static constexpr int kMaxAttempts = 3;
  int attempts_ = 0;
};

// One decoded-and-validated image: typed pointers into the caller's bytes.
// Produced only by ValidateImage; every field is safe to walk afterwards.
struct ParsedImage {
  FileHeader header;
  CircuitWalkView view;
  const int32_t* clause_lengths = nullptr;
  const int32_t* clause_vars = nullptr;
  size_t num_clause_vars = 0;
};

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// The full admission check for untrusted bytes, in widening order: sizes
// before sections, checksum before structure, structure before the
// fingerprint walk. Nothing here aborts, reads out of bounds, or trusts a
// header field it has not yet proven consistent — a corrupt store entry
// must cost a recompile, never a crash.
bool ValidateImage(const uint8_t* data, size_t size, ParsedImage* out,
                   std::string* error) {
  if (size < sizeof(FileHeader)) {
    return Fail(error, "file smaller than the header (" +
                           std::to_string(size) + " bytes)");
  }
  FileHeader h;
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, "bad magic (not a circuit store file)");
  }
  if (h.version != kFormatVersion) {
    return Fail(error, "format version " + std::to_string(h.version) +
                           " (this build reads only version " +
                           std::to_string(kFormatVersion) + ")");
  }
  if (ChecksumFile(data, size) != h.checksum) {
    return Fail(error, "checksum mismatch (file corrupt or truncated)");
  }
  if (h.order_tag > static_cast<uint32_t>(OrderHeuristic::kBalanced)) {
    return Fail(error, "unknown order heuristic tag " +
                           std::to_string(h.order_tag));
  }

  // Section extents. All arithmetic stays in size_t with divide-side bounds
  // so no multiplication can wrap.
  size_t avail = size - sizeof(FileHeader);
  if (h.num_nodes < 2 || h.num_nodes > avail / sizeof(FlatNode)) {
    return Fail(error, "node count " + std::to_string(h.num_nodes) +
                           " inconsistent with file size");
  }
  if (h.num_nodes > static_cast<uint64_t>(INT32_MAX)) {
    return Fail(error, "node count exceeds the id space");
  }
  avail -= static_cast<size_t>(h.num_nodes) * sizeof(FlatNode);
  if (h.num_children > avail / sizeof(int32_t) ||
      h.num_children > static_cast<uint64_t>(INT32_MAX)) {
    return Fail(error, "child pool length " + std::to_string(h.num_children) +
                           " inconsistent with file size");
  }
  avail -= static_cast<size_t>(h.num_children) * sizeof(int32_t);
  if (h.num_clauses < 0 ||
      static_cast<uint64_t>(h.num_clauses) > avail / sizeof(int32_t)) {
    return Fail(error, "clause count inconsistent with file size");
  }
  avail -= static_cast<size_t>(h.num_clauses) * sizeof(int32_t);
  if (avail % sizeof(int32_t) != 0) {
    return Fail(error, "trailing bytes after the clause sections");
  }
  const size_t num_clause_vars = avail / sizeof(int32_t);

  if (h.root < 0 || static_cast<uint64_t>(h.root) >= h.num_nodes) {
    return Fail(error, "root id out of range");
  }
  if (h.circuit_num_vars < 0 || h.cnf_num_vars < 0) {
    return Fail(error, "negative variable count");
  }
  if (h.reserved != 0) {
    return Fail(error, "nonzero reserved field");
  }

  const FlatNode* nodes =
      reinterpret_cast<const FlatNode*>(data + sizeof(FileHeader));
  const int32_t* children = reinterpret_cast<const int32_t*>(
      data + sizeof(FileHeader) +
      static_cast<size_t>(h.num_nodes) * sizeof(FlatNode));
  const int32_t* clause_lengths =
      children + static_cast<size_t>(h.num_children);
  const int32_t* clause_vars =
      clause_lengths + static_cast<size_t>(h.num_clauses);

  // Per-node structural audit: kinds valid, every edge points strictly
  // downward (children precede parents — the walks' one precondition), AND
  // pool slices in range. After this loop a bottom-up walk cannot read an
  // uninitialized or out-of-range arena slot.
  if (nodes[0].kind != static_cast<uint32_t>(NnfKind::kFalse) ||
      nodes[1].kind != static_cast<uint32_t>(NnfKind::kTrue)) {
    return Fail(error, "nodes 0/1 are not the FALSE/TRUE constants");
  }
  const int32_t num_nodes = static_cast<int32_t>(h.num_nodes);
  for (int32_t id = 2; id < num_nodes; ++id) {
    const FlatNode& n = nodes[id];
    // Range-check the raw word first: NnfKind has a narrower underlying
    // type, so casting an oversized kind would silently truncate.
    if (n.kind > static_cast<uint32_t>(NnfKind::kDecision)) {
      return Fail(error, "node " + std::to_string(id) + ": unknown kind " +
                             std::to_string(n.kind));
    }
    switch (static_cast<NnfKind>(n.kind)) {
      case NnfKind::kVar:
        if (n.var < 0 || n.var >= h.circuit_num_vars) {
          return Fail(error, "node " + std::to_string(id) +
                                 ": variable id out of range");
        }
        break;
      case NnfKind::kDecision:
        if (n.var < 0 || n.var >= h.circuit_num_vars) {
          return Fail(error, "node " + std::to_string(id) +
                                 ": decision variable out of range");
        }
        if (n.a < 0 || n.a >= id || n.b < 0 || n.b >= id) {
          return Fail(error, "node " + std::to_string(id) +
                                 ": decision branch not a predecessor");
        }
        break;
      case NnfKind::kAnd: {
        if (n.b < 2) {
          return Fail(error, "node " + std::to_string(id) +
                                 ": AND with fewer than 2 children");
        }
        if (n.a < 0 ||
            static_cast<uint64_t>(n.a) + static_cast<uint64_t>(n.b) >
                h.num_children) {
          return Fail(error, "node " + std::to_string(id) +
                                 ": child slice outside the pool");
        }
        for (int32_t j = 0; j < n.b; ++j) {
          const int32_t child = children[n.a + j];
          if (child < 0 || child >= id) {
            return Fail(error, "node " + std::to_string(id) +
                                   ": child not a predecessor");
          }
        }
        break;
      }
      default:  // kFalse / kTrue
        return Fail(error, "node " + std::to_string(id) +
                               ": duplicate constant node");
    }
  }

  // Clause sections: lengths non-negative and summing to the var section,
  // every variable id in the CNF's range.
  uint64_t sum = 0;
  for (int32_t c = 0; c < h.num_clauses; ++c) {
    if (clause_lengths[c] < 0) {
      return Fail(error, "negative clause length");
    }
    sum += static_cast<uint64_t>(clause_lengths[c]);
  }
  if (sum != num_clause_vars) {
    return Fail(error, "clause lengths do not sum to the variable section");
  }
  for (size_t i = 0; i < num_clause_vars; ++i) {
    if (clause_vars[i] < 0 || clause_vars[i] >= h.cnf_num_vars) {
      return Fail(error, "clause variable id out of range");
    }
  }

  CircuitWalkView view{nodes,
                       static_cast<size_t>(h.num_nodes),
                       children,
                       static_cast<size_t>(h.num_children),
                       h.root,
                       h.circuit_num_vars};
  // Structure is now proven; the fingerprint walk is safe. It re-derives
  // the order-independent hash and pins it to the header — the save→load
  // round-trip check, run on EVERY read path (one linear pass, cheap next
  // to the checksum scan above).
  if (WalkFingerprint(view) != h.fingerprint) {
    return Fail(error, "fingerprint mismatch (encoder/decoder drift)");
  }

  out->header = h;
  out->view = view;
  out->clause_lengths = clause_lengths;
  out->clause_vars = clause_vars;
  out->num_clause_vars = num_clause_vars;
  return true;
}

Cnf DecodeCnfSections(int32_t cnf_num_vars, int32_t num_clauses,
                      const int32_t* clause_lengths,
                      const int32_t* clause_vars) {
  Cnf cnf;
  cnf.num_vars = cnf_num_vars;
  cnf.clauses.reserve(static_cast<size_t>(num_clauses));
  const int32_t* cursor = clause_vars;
  for (int32_t c = 0; c < num_clauses; ++c) {
    cnf.clauses.emplace_back(cursor, cursor + clause_lengths[c]);
    cursor += clause_lengths[c];
  }
  return cnf;
}

}  // namespace

std::vector<uint8_t> EncodeCircuit(const NnfCircuit& circuit, const Cnf& cnf,
                                   OrderHeuristic order) {
  const CircuitWalkView view = circuit.view();

  size_t num_clause_vars = 0;
  for (const auto& clause : cnf.clauses) num_clause_vars += clause.size();

  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kFormatVersion;
  h.order_tag = static_cast<uint32_t>(order);
  h.cnf_hash = cnf.Hash64();
  h.fingerprint = WalkFingerprint(view);
  h.num_nodes = view.num_nodes;
  h.num_children = view.num_children;
  h.root = view.root;
  h.circuit_num_vars = view.num_vars;
  h.cnf_num_vars = cnf.num_vars;
  h.num_clauses = static_cast<int32_t>(cnf.clauses.size());

  const size_t total =
      sizeof(FileHeader) + view.num_nodes * sizeof(FlatNode) +
      (view.num_children + cnf.clauses.size() + num_clause_vars) *
          sizeof(int32_t);
  std::vector<uint8_t> bytes(total);
  uint8_t* cursor = bytes.data();
  std::memcpy(cursor, &h, sizeof(h));
  cursor += sizeof(h);
  std::memcpy(cursor, view.nodes, view.num_nodes * sizeof(FlatNode));
  cursor += view.num_nodes * sizeof(FlatNode);
  if (view.num_children > 0) {  // an empty pool's pointer may be null (UB)
    std::memcpy(cursor, view.children, view.num_children * sizeof(int32_t));
  }
  cursor += view.num_children * sizeof(int32_t);
  for (const auto& clause : cnf.clauses) {
    const int32_t len = static_cast<int32_t>(clause.size());
    std::memcpy(cursor, &len, sizeof(len));
    cursor += sizeof(len);
  }
  for (const auto& clause : cnf.clauses) {
    for (int var : clause) {
      const int32_t v = static_cast<int32_t>(var);
      std::memcpy(cursor, &v, sizeof(v));
      cursor += sizeof(v);
    }
  }
  GMC_CHECK(cursor == bytes.data() + total);

  const uint64_t checksum = ChecksumFile(bytes.data(), bytes.size());
  std::memcpy(bytes.data() + offsetof(FileHeader, checksum), &checksum,
              sizeof(checksum));
  return bytes;
}

bool DecodeCircuit(const uint8_t* data, size_t size, LoadedCircuit* out,
                   std::string* error) {
  ParsedImage image;
  if (!ValidateImage(data, size, &image, error)) return false;
  out->circuit = NnfCircuit::FromFlat(image.view);
  out->cnf = DecodeCnfSections(image.header.cnf_num_vars,
                               image.header.num_clauses, image.clause_lengths,
                               image.clause_vars);
  out->order = static_cast<OrderHeuristic>(image.header.order_tag);
  out->cnf_hash = image.header.cnf_hash;
  out->fingerprint = image.header.fingerprint;
  return true;
}

bool SaveCircuit(const NnfCircuit& circuit, const Cnf& cnf,
                 OrderHeuristic order, const std::string& path,
                 std::string* error) {
  if (fault::ShouldFail(fault::Point::kStoreWrite)) {
    return Fail(error, "fault injection: store.write");
  }
  const std::vector<uint8_t> bytes = EncodeCircuit(circuit, cnf, order);

  // Unique temp name per (process, call) so concurrent writers of the same
  // entry never interleave; the rename is atomic, so readers only ever see
  // complete files.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return Fail(error, "open(" + tmp + "): " + std::strerror(errno));
  }
  TransientRetry retry;
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (retry.ShouldRetry(errno)) continue;
      const std::string msg = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return Fail(error, "write(" + tmp + "): " + msg);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    const std::string msg = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Fail(error, "fsync(" + tmp + "): " + msg);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string msg = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Fail(error, "rename(" + tmp + " -> " + path + "): " + msg);
  }
  return true;
}

bool LoadCircuit(const std::string& path, LoadedCircuit* out,
                 std::string* error) {
  if (fault::ShouldFail(fault::Point::kStoreRead)) {
    return Fail(error, "fault injection: store.read");
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Fail(error, "open(" + path + "): " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string msg = std::strerror(errno);
    ::close(fd);
    return Fail(error, "fstat(" + path + "): " + msg);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  TransientRetry retry;
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && retry.ShouldRetry(errno)) continue;
    if (n <= 0) {
      ::close(fd);
      return Fail(error, "read(" + path + "): short read");
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  std::string decode_error;
  if (!DecodeCircuit(bytes.data(), bytes.size(), out, &decode_error)) {
    return Fail(error, path + ": " + decode_error);
  }
  return true;
}

}  // namespace store
}  // namespace gmc
