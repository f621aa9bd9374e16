#include "store/circuit_store.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "store/circuit_format.h"

namespace gmc {
namespace store {

namespace {

std::string HashFileName(uint64_t hash) {
  static const char kHex[] = "0123456789abcdef";
  std::string name(16, '0');
  for (int i = 15; i >= 0; --i) {
    name[i] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return name + kFileExtension;
}

}  // namespace

bool EnsureDirectory(const std::string& path, std::string* error) {
  if (path.empty()) {
    if (error != nullptr) *error = "empty store directory";
    return false;
  }
  // mkdir -p: create each prefix in turn; EEXIST at any level is fine.
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      if (error != nullptr) {
        *error = "mkdir(" + prefix + "): " + std::strerror(errno);
      }
      return false;
    }
  }
  return true;
}

CircuitStore::CircuitStore(std::string directory)
    : directory_(std::move(directory)) {}

std::string CircuitStore::PathFor(const Cnf& cnf) const {
  return directory_ + "/" + HashFileName(cnf.Hash64());
}

StoreLookup CircuitStore::TryLoad(const Cnf& cnf, NnfCircuit* circuit,
                                  OrderHeuristic* order,
                                  std::string* error) const {
  const std::string path = PathFor(cnf);
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (error != nullptr) *error = "no store entry";
    return StoreLookup::kMissing;
  }
  LoadedCircuit loaded;
  if (!LoadCircuit(path, &loaded, error)) {
    return StoreLookup::kRejected;
  }
  // The hash named the file; the CLAUSES decide the hit. A 64-bit
  // collision (or a file hand-renamed into place) lands here and falls
  // back to compilation.
  if (!(CnfClauseEq{}(loaded.cnf, cnf))) {
    if (error != nullptr) {
      *error = path + ": embedded CNF does not match the requested formula";
    }
    return StoreLookup::kMismatch;
  }
  *circuit = std::move(loaded.circuit);
  if (order != nullptr) *order = loaded.order;
  return StoreLookup::kLoaded;
}

bool CircuitStore::Save(const NnfCircuit& circuit, const Cnf& cnf,
                        OrderHeuristic order, std::string* error) const {
  if (!EnsureDirectory(directory_, error)) return false;
  return SaveCircuit(circuit, cnf, order, PathFor(cnf), error);
}

std::vector<std::string> CircuitStore::ListEntries() const {
  std::vector<std::string> paths;
  DIR* dir = ::opendir(directory_.c_str());
  if (dir == nullptr) return paths;
  const size_t ext_len = std::strlen(kFileExtension);
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= ext_len ||
        name.compare(name.size() - ext_len, ext_len, kFileExtension) != 0) {
      continue;
    }
    paths.push_back(directory_ + "/" + name);
  }
  ::closedir(dir);
  return paths;
}

}  // namespace store
}  // namespace gmc
