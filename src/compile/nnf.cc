#include "compile/nnf.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace gmc {

namespace {

NnfKind KindOf(const FlatNode& node) {
  return static_cast<NnfKind>(node.kind);
}

// The hash-consing key: kind and variable, then an AND's child ids or
// any other node's branch words (an AND's a/b only locate its pool slice).
uint64_t HashNode(const FlatNode& node, std::span<const int32_t> child_ids) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t word) { h = (h ^ word) * 1099511628211ull; };
  mix(node.kind);
  mix(static_cast<uint64_t>(node.var) + 1);
  if (KindOf(node) == NnfKind::kAnd) {
    for (int32_t child : child_ids) mix(static_cast<uint64_t>(child));
  } else {
    mix(static_cast<uint64_t>(node.a) + 1);
    mix(static_cast<uint64_t>(node.b) + 1);
  }
  return h;
}

}  // namespace

WeightMatrix::WeightMatrix(int num_vectors, int num_vars)
    : num_vectors_(num_vectors),
      num_vars_(num_vars),
      values_(static_cast<size_t>(num_vectors) * num_vars) {
  GMC_CHECK(num_vectors >= 1 && num_vars >= 0);
}

WeightMatrix WeightMatrix::FromRows(
    const std::vector<std::vector<Rational>>& rows) {
  GMC_CHECK_MSG(!rows.empty(), "WeightMatrix needs at least one row");
  const int num_vars = static_cast<int>(rows[0].size());
  WeightMatrix matrix(static_cast<int>(rows.size()), num_vars);
  for (size_t k = 0; k < rows.size(); ++k) {
    GMC_CHECK_MSG(static_cast<int>(rows[k].size()) == num_vars,
                  "ragged weight rows");
    for (int v = 0; v < num_vars; ++v) {
      matrix.Set(static_cast<int>(k), v, rows[k][v]);
    }
  }
  return matrix;
}

std::vector<Rational> WeightMatrix::Row(int k) const {
  GMC_CHECK(k >= 0 && k < num_vectors_);
  std::vector<Rational> row;
  row.reserve(num_vars_);
  for (int v = 0; v < num_vars_; ++v) row.push_back(at(k, v));
  return row;
}

NnfCircuit::NnfCircuit()
    : nodes_{FlatNode{static_cast<uint32_t>(NnfKind::kFalse)},
             FlatNode{static_cast<uint32_t>(NnfKind::kTrue)}} {}

std::span<const int32_t> NnfCircuit::children(size_t id) const {
  const FlatNode& node = nodes_[id];
  if (KindOf(node) != NnfKind::kAnd) return {};
  return {children_.data() + node.a, static_cast<size_t>(node.b)};
}

int NnfCircuit::Intern(FlatNode node, std::span<const int32_t> child_ids) {
  if (unique_.empty()) {
    // Pruned and FromFlat circuits carry no index: re-derive it from the
    // existing nodes (constants 0/1 stay untabled).
    for (int id = 2; id < static_cast<int>(nodes_.size()); ++id) {
      unique_[HashNode(nodes_[id], children(id))].push_back(id);
    }
  }
  const bool is_and = KindOf(node) == NnfKind::kAnd;
  std::vector<int>& bucket = unique_[HashNode(node, child_ids)];
  for (int id : bucket) {
    const FlatNode& other = nodes_[id];
    if (other.kind != node.kind || other.var != node.var) continue;
    if (is_and ? std::ranges::equal(children(id), child_ids)
               : other.a == node.a && other.b == node.b) {
      return id;
    }
  }
  if (is_and) {
    node.a = static_cast<int32_t>(children_.size());
    node.b = static_cast<int32_t>(child_ids.size());
    children_.insert(children_.end(), child_ids.begin(), child_ids.end());
  }
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  bucket.push_back(id);
  return id;
}

int NnfCircuit::Var(int var) {
  GMC_CHECK(var >= 0);
  num_vars_ = std::max(num_vars_, var + 1);
  return Intern(FlatNode{static_cast<uint32_t>(NnfKind::kVar), var});
}

int NnfCircuit::And(std::vector<int> children) {
  std::vector<int> kept;
  kept.reserve(children.size());
  for (int child : children) {
    GMC_CHECK(child >= 0 && child < static_cast<int>(nodes_.size()));
    if (child == False()) return False();
    if (child == True()) continue;
    kept.push_back(child);
  }
  if (kept.empty()) return True();
  // AND is commutative and idempotent; a canonical child order maximizes
  // sharing in the unique table.
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  if (kept.size() == 1) return kept[0];
  return Intern(FlatNode{static_cast<uint32_t>(NnfKind::kAnd)}, kept);
}

int NnfCircuit::Decision(int var, int high, int low) {
  GMC_CHECK(var >= 0);
  GMC_CHECK(high >= 0 && high < static_cast<int>(nodes_.size()));
  GMC_CHECK(low >= 0 && low < static_cast<int>(nodes_.size()));
  if (high == low) return high;  // the test is irrelevant
  num_vars_ = std::max(num_vars_, var + 1);
  if (high == True() && low == False()) return Var(var);
  return Intern(
      FlatNode{static_cast<uint32_t>(NnfKind::kDecision), var, high, low});
}

void NnfCircuit::SetRoot(int id) {
  GMC_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  root_ = id;
}

NnfCircuit NnfCircuit::FromFlat(const CircuitWalkView& view) {
  NnfCircuit circuit;
  circuit.nodes_.assign(view.nodes, view.nodes + view.num_nodes);
  circuit.children_.assign(view.children, view.children + view.num_children);
  circuit.root_ = view.root;
  circuit.num_vars_ = view.num_vars;
  return circuit;
}

// Every evaluation entry point walks the circuit's own arrays; a loaded
// circuit's arrays are the store file's validated records, which is what
// makes persisted circuits bit-identical to compiled ones (nnf_walk.h).

uint64_t NnfCircuit::Fingerprint() const { return WalkFingerprint(view()); }

Rational NnfCircuit::Evaluate(
    const std::vector<Rational>& probabilities) const {
  return WalkEvaluate(view(), probabilities);
}

std::vector<Rational> NnfCircuit::EvaluateBatch(
    const WeightMatrix& weights, int num_threads,
    const CancelToken* cancel) const {
  return WalkEvaluateBatch(view(), weights, num_threads, cancel);
}

std::vector<Rational> NnfCircuit::EvaluateBatchDyadic(
    const WeightMatrix& weights, int num_threads, DyadicBatchStats* stats,
    const CancelToken* cancel) const {
  return WalkEvaluateBatchDyadic(view(), weights, num_threads, stats, cancel);
}

std::vector<ProbInterval> NnfCircuit::EvaluateBatchInterval(
    const WeightMatrix& weights, int num_threads,
    const CancelToken* cancel) const {
  return WalkEvaluateBatchInterval(view(), weights, num_threads, cancel);
}

NnfCircuit::Stats NnfCircuit::ComputeStats() const {
  Stats stats;
  stats.num_nodes = nodes_.size();
  std::vector<int> depth(nodes_.size(), 0);
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const FlatNode& node = nodes_[id];
    switch (KindOf(node)) {
      case NnfKind::kFalse:
      case NnfKind::kTrue:
        break;
      case NnfKind::kVar:
        ++stats.var_nodes;
        break;
      case NnfKind::kAnd:
        ++stats.and_nodes;
        stats.edges += node.b;
        for (int child : children(id)) {
          depth[id] = std::max(depth[id], depth[child] + 1);
        }
        break;
      case NnfKind::kDecision:
        ++stats.decision_nodes;
        stats.edges += 2;
        depth[id] = std::max(depth[node.a], depth[node.b]) + 1;
        break;
    }
  }
  stats.depth = depth[root_];
  return stats;
}

size_t NnfCircuit::MemoryBytes() const {
  // Element counts, not allocator capacities: the size must be a pure
  // function of the circuit's structure so eviction accounting balances
  // exactly across insert and erase.
  return sizeof(NnfCircuit) + nodes_.size() * sizeof(FlatNode) +
         children_.size() * sizeof(int32_t);
}

std::vector<std::vector<int>> NnfCircuit::Supports() const {
  std::vector<std::vector<int>> support(nodes_.size());
  auto merge_into = [](std::vector<int>& out, const std::vector<int>& in) {
    std::vector<int> merged;
    merged.reserve(out.size() + in.size());
    std::merge(out.begin(), out.end(), in.begin(), in.end(),
               std::back_inserter(merged));
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    out = std::move(merged);
  };
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const FlatNode& node = nodes_[id];
    switch (KindOf(node)) {
      case NnfKind::kFalse:
      case NnfKind::kTrue:
        break;
      case NnfKind::kVar:
        support[id] = {node.var};
        break;
      case NnfKind::kAnd:
        for (int child : children(id)) {
          merge_into(support[id], support[child]);
        }
        break;
      case NnfKind::kDecision:
        merge_into(support[id], support[node.a]);
        merge_into(support[id], support[node.b]);
        merge_into(support[id], {node.var});
        break;
    }
  }
  return support;
}

bool NnfCircuit::CheckDecomposable() const {
  const std::vector<std::vector<int>> support = Supports();
  for (size_t id = 0; id < nodes_.size(); ++id) {
    size_t total = 0;
    std::vector<int> merged;
    for (int child : children(id)) {
      total += support[child].size();
      merged.insert(merged.end(), support[child].begin(),
                    support[child].end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    if (merged.size() != total) return false;  // some variable was shared
  }
  return true;
}

bool NnfCircuit::CheckDeterministic() const {
  const std::vector<std::vector<int>> support = Supports();
  for (const FlatNode& node : nodes_) {
    if (KindOf(node) != NnfKind::kDecision) continue;
    const std::vector<int>& high = support[node.a];
    const std::vector<int>& low = support[node.b];
    if (std::binary_search(high.begin(), high.end(), node.var)) return false;
    if (std::binary_search(low.begin(), low.end(), node.var)) return false;
  }
  return true;
}

std::vector<bool> NnfCircuit::Reachable() const {
  std::vector<bool> reachable(nodes_.size(), false);
  std::vector<int> stack = {root_};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (reachable[id]) continue;
    reachable[id] = true;
    const FlatNode& node = nodes_[id];
    for (int child : children(id)) stack.push_back(child);
    if (KindOf(node) == NnfKind::kDecision) {
      stack.push_back(node.a);
      stack.push_back(node.b);
    }
  }
  return reachable;
}

void NnfCircuit::PruneUnreachable() {
  std::vector<bool> reachable = Reachable();
  reachable[0] = reachable[1] = true;  // constants keep their fixed ids
  std::vector<int32_t> remap(nodes_.size(), -1);
  std::vector<FlatNode> kept;
  std::vector<int32_t> pool;
  kept.reserve(nodes_.size());
  pool.reserve(children_.size());
  // Ascending-id compaction keeps children before parents, so every child
  // is already renumbered when its parent is copied, and the pool keeps
  // node order.
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (!reachable[id]) continue;
    remap[id] = static_cast<int32_t>(kept.size());
    FlatNode node = nodes_[id];
    if (KindOf(node) == NnfKind::kDecision) {
      node.a = remap[node.a];
      node.b = remap[node.b];
    } else if (KindOf(node) == NnfKind::kAnd) {
      node.a = static_cast<int32_t>(pool.size());
      for (int child : children(id)) {
        pool.push_back(remap[child]);
      }
    }
    kept.push_back(node);
  }
  nodes_ = std::move(kept);
  children_ = std::move(pool);
  nodes_.shrink_to_fit();
  children_.shrink_to_fit();
  root_ = remap[root_];
  // The index is build-time state; a finished circuit holds none (a move
  // from an empty map also frees the bucket array, which clear() keeps).
  unique_ = decltype(unique_)();
}

std::string NnfCircuit::ToDot() const {
  std::string out = "digraph nnf {\n  rankdir=BT;\n";
  const std::vector<bool> reachable = Reachable();
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (!reachable[id]) continue;
    const FlatNode& node = nodes_[id];
    const std::string name = "n" + std::to_string(id);
    switch (KindOf(node)) {
      case NnfKind::kFalse:
        out += "  " + name + " [label=\"0\", shape=box];\n";
        break;
      case NnfKind::kTrue:
        out += "  " + name + " [label=\"1\", shape=box];\n";
        break;
      case NnfKind::kVar:
        out += "  " + name + " [label=\"x" + std::to_string(node.var) +
               "\", shape=box];\n";
        break;
      case NnfKind::kAnd:
        out += "  " + name + " [label=\"AND\"];\n";
        for (int child : children(id)) {
          out += "  n" + std::to_string(child) + " -> " + name + ";\n";
        }
        break;
      case NnfKind::kDecision:
        out += "  " + name + " [label=\"x" + std::to_string(node.var) +
               "?\", shape=diamond];\n";
        out += "  n" + std::to_string(node.a) + " -> " + name +
               " [label=\"1\"];\n";
        out += "  n" + std::to_string(node.b) + " -> " + name +
               " [label=\"0\", style=dashed];\n";
        break;
    }
  }
  out += "}\n";
  return out;
}

}  // namespace gmc
