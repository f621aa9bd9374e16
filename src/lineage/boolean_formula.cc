#include "lineage/boolean_formula.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/check.h"

namespace gmc {

bool Cnf::HasEmptyClause() const {
  for (const auto& clause : clauses) {
    if (clause.empty()) return true;
  }
  return false;
}

void Cnf::AddClause(std::vector<int> clause) {
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  for (int v : clause) GMC_CHECK(v >= 0 && v < num_vars);
  clauses.push_back(std::move(clause));
}

void Cnf::RemoveSubsumed() {
  // Sort by length so potential subsumers come first.
  std::sort(clauses.begin(), clauses.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  clauses.erase(std::unique(clauses.begin(), clauses.end()), clauses.end());
  std::vector<std::vector<int>> kept;
  for (const auto& clause : clauses) {
    bool subsumed = false;
    for (const auto& keeper : kept) {
      if (std::includes(clause.begin(), clause.end(), keeper.begin(),
                        keeper.end())) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) kept.push_back(clause);
  }
  clauses = std::move(kept);
  std::sort(clauses.begin(), clauses.end());
}

Cnf Cnf::Condition(int var, bool value) const {
  Cnf out;
  out.num_vars = num_vars;
  for (const auto& clause : clauses) {
    const bool contains =
        std::binary_search(clause.begin(), clause.end(), var);
    if (contains && value) continue;  // clause satisfied
    if (!contains) {
      out.clauses.push_back(clause);
      continue;
    }
    std::vector<int> reduced;
    reduced.reserve(clause.size() - 1);
    for (int v : clause) {
      if (v != var) reduced.push_back(v);
    }
    out.clauses.push_back(std::move(reduced));
  }
  return out;
}

std::vector<int> Cnf::UsedVariables() const {
  std::vector<int> out;
  for (const auto& clause : clauses) {
    out.insert(out.end(), clause.begin(), clause.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> Cnf::ClauseComponents() const {
  const int n = static_cast<int>(clauses.size());
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<int> find_stack;
  auto find = [&parent](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // Union clauses sharing a variable: track the first clause seen per var.
  std::vector<int> first_clause(num_vars, -1);
  for (int i = 0; i < n; ++i) {
    for (int v : clauses[i]) {
      if (first_clause[v] == -1) {
        first_clause[v] = i;
      } else {
        int a = find(first_clause[v]);
        int b = find(i);
        if (a != b) parent[b] = a;
      }
    }
  }
  std::vector<int> component(n, -1);
  int next = 0;
  for (int i = 0; i < n; ++i) {
    int root = find(i);
    if (component[root] == -1) component[root] = next++;
    component[i] = component[root];
  }
  return component;
}

std::vector<Cnf> Cnf::SplitComponents() const {
  std::vector<int> component = ClauseComponents();
  int num_components = 0;
  for (int c : component) num_components = std::max(num_components, c + 1);
  std::vector<Cnf> parts(std::max(num_components, 1));
  for (auto& part : parts) part.num_vars = num_vars;
  for (size_t i = 0; i < clauses.size(); ++i) {
    parts[component[i]].clauses.push_back(clauses[i]);
  }
  return parts;
}

int Cnf::MostOccurringVariable() const {
  std::unordered_map<int, int> counts;
  for (const auto& clause : clauses) {
    for (int v : clause) ++counts[v];
  }
  int best_var = -1, best_count = -1;
  for (const auto& [v, c] : counts) {
    if (c > best_count || (c == best_count && v < best_var)) {
      best_var = v;
      best_count = c;
    }
  }
  return best_var;
}

bool Cnf::IsConnected() const {
  if (clauses.empty()) return true;
  std::vector<int> component = ClauseComponents();
  for (int c : component) {
    if (c != 0) return false;
  }
  return true;
}

bool Cnf::Disconnects(const std::vector<int>& u,
                      const std::vector<int>& v) const {
  std::vector<int> component = ClauseComponents();
  const int n = static_cast<int>(clauses.size());
  // For each component, check whether it touches u and whether it touches v.
  int num_components = 0;
  for (int c : component) num_components = std::max(num_components, c + 1);
  std::vector<bool> touches_u(num_components, false);
  std::vector<bool> touches_v(num_components, false);
  for (int i = 0; i < n; ++i) {
    for (int var : clauses[i]) {
      if (std::find(u.begin(), u.end(), var) != u.end()) {
        touches_u[component[i]] = true;
      }
      if (std::find(v.begin(), v.end(), var) != v.end()) {
        touches_v[component[i]] = true;
      }
    }
  }
  for (int c = 0; c < num_components; ++c) {
    if (touches_u[c] && touches_v[c]) return false;
  }
  return true;
}

uint64_t Cnf::Hash64() const {
  uint64_t h = 14695981039346656037ull;  // FNV offset basis
  auto mix = [&h](uint32_t word) {
    h = (h ^ word) * 1099511628211ull;  // FNV prime
  };
  for (const auto& clause : clauses) {
    for (int v : clause) mix(static_cast<uint32_t>(v));
    mix(0xffffffffu);  // clause separator (never a variable id)
  }
  return h;
}

std::string Cnf::ToString() const {
  if (clauses.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < clauses.size(); ++i) {
    if (i > 0) out += " & ";
    out += "(";
    for (size_t j = 0; j < clauses[i].size(); ++j) {
      if (j > 0) out += "|";
      out += "x" + std::to_string(clauses[i][j]);
    }
    if (clauses[i].empty()) out += "FALSE";
    out += ")";
  }
  return out;
}

}  // namespace gmc
