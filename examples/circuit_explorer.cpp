// Circuit explorer: compile a lineage to d-DNNF, inspect its structure,
// dump it as Graphviz DOT, and run a compile-once / evaluate-many sweep.
//
//   ./circuit_explorer
//
// The DOT for the paper's §1.6 example (three lineage variables, 5/8) is
// printed in full; pipe it into `dot -Tpng` to render. Exits 1 if the
// §1.6 value, the structural audits, or the sweep's agreement with the
// recursive engine fail.

#include <chrono>
#include <cstdio>

#include "compile/compiler.h"
#include "compile/nnf.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "wmc/wmc.h"

int main() {
  using namespace gmc;

  Query h1 = ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  const Vocabulary& v = h1.vocab();

  // --- The tiny §1.6 database: compile and show the whole circuit. -------
  Tid tiny(h1.vocab_ptr(), 1, 1);
  tiny.SetUnaryLeft(v.Find("R"), 0, Rational::Half());
  tiny.SetBinary(v.Find("S"), 0, 0, Rational::Half());
  tiny.SetUnaryRight(v.Find("T"), 0, Rational::Half());
  Lineage tiny_lineage = Ground(h1, tiny);

  Compiler compiler;
  NnfCircuit tiny_circuit = compiler.Compile(tiny_lineage);
  const Rational tiny_pr = tiny_circuit.Evaluate(tiny_lineage.probabilities);
  std::printf("lineage: %s\n", tiny_lineage.cnf.ToString().c_str());
  std::printf("Pr = %s (paper: 5/8)\n\n", tiny_pr.ToString().c_str());
  bool ok = tiny_pr == Rational(5, 8);
  std::printf("--- d-DNNF circuit (Graphviz DOT) ---\n%s\n",
              tiny_circuit.ToDot().c_str());

  // --- A bigger database: structure stats and an evaluate-many sweep. ----
  const int domain = 4;
  Tid big(h1.vocab_ptr(), domain, domain);
  for (int u = 0; u < domain; ++u) {
    big.SetUnaryLeft(v.Find("R"), u, Rational::Half());
    big.SetUnaryRight(v.Find("T"), u, Rational::Half());
    for (int w = 0; w < domain; ++w) {
      big.SetBinary(v.Find("S"), u, w, Rational::Half());
    }
  }
  Lineage lineage = Ground(h1, big);

  auto t0 = std::chrono::steady_clock::now();
  NnfCircuit circuit = compiler.Compile(lineage);
  auto t1 = std::chrono::steady_clock::now();

  NnfCircuit::Stats stats = circuit.ComputeStats();
  std::printf("%dx%d database: %zu lineage variables\n", domain, domain,
              lineage.variables.size());
  std::printf("circuit: %zu nodes (%zu var, %zu AND, %zu decision), "
              "%zu edges, depth %d\n",
              stats.num_nodes, stats.var_nodes, stats.and_nodes,
              stats.decision_nodes, stats.edges, stats.depth);
  const bool decomposable = circuit.CheckDecomposable();
  const bool deterministic = circuit.CheckDeterministic();
  std::printf("decomposable: %s, deterministic: %s\n",
              decomposable ? "yes" : "no", deterministic ? "yes" : "no");
  ok = ok && decomposable && deterministic;

  // Sweep every tuple weight over k/17, k = 1..16 — the interpolation
  // workload. The circuit is compiled once; each point is one linear pass.
  const int points = 16;
  std::vector<Rational> sweep;
  auto t2 = std::chrono::steady_clock::now();
  for (int k = 1; k <= points; ++k) {
    std::vector<Rational> weights(lineage.probabilities.size(),
                                  Rational(k, points + 1));
    const Rational& pr = sweep.emplace_back(circuit.Evaluate(weights));
    if (k == 1 || k == points) {
      std::printf("  Pr at weight %d/%d = %s\n", k, points + 1,
                  pr.ToString().c_str());
    }
  }
  auto t3 = std::chrono::steady_clock::now();

  WmcEngine engine;
  bool agrees = true;
  auto t4 = std::chrono::steady_clock::now();
  for (int k = 1; k <= points; ++k) {
    std::vector<Rational> weights(lineage.probabilities.size(),
                                  Rational(k, points + 1));
    agrees = agrees && engine.Probability(lineage.cnf, weights) == sweep[k - 1];
  }
  auto t5 = std::chrono::steady_clock::now();
  std::printf("sweep agrees with the recursive engine: %s\n",
              agrees ? "yes" : "NO");
  ok = ok && agrees;

  auto us = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
        .count();
  };
  std::printf("\ncompile once:        %8lld us\n",
              static_cast<long long>(us(t0, t1)));
  std::printf("%d circuit passes:   %8lld us\n", points,
              static_cast<long long>(us(t2, t3)));
  std::printf("%d WmcEngine runs:   %8lld us\n", points,
              static_cast<long long>(us(t4, t5)));
  return ok ? 0 : 1;
}
