#include "compile/gmc_options.h"

#include <cstdlib>
#include <cstring>

namespace gmc {

namespace {

// Env parsers for FromEnv: unset or malformed values leave *out untouched,
// so the struct defaults always survive a broken environment.
void EnvU64(const char* name, uint64_t* out) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end != nullptr && *end == '\0') *out = parsed;
}

void EnvBool(const char* name, bool* out) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return;
  if (std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0 ||
      std::strcmp(value, "off") == 0 || std::strcmp(value, "no") == 0) {
    *out = false;
  } else if (std::strcmp(value, "1") == 0 ||
             std::strcmp(value, "true") == 0 ||
             std::strcmp(value, "on") == 0 || std::strcmp(value, "yes") == 0) {
    *out = true;
  }
}

void EnvUnitDouble(const char* name, double* out) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end != nullptr && *end == '\0' && parsed > 0.0 && parsed < 1.0) {
    *out = parsed;
  }
}

}  // namespace

bool CompileBudget::AllowsMoreThan(const CompileBudget& other) const {
  // "More" per axis: unlimited (0) beats any finite cap; otherwise larger.
  auto more = [](uint64_t mine, uint64_t theirs) {
    if (mine == theirs) return false;
    if (mine == 0) return true;   // I am unlimited, they are not
    if (theirs == 0) return false;
    return mine > theirs;
  };
  return more(max_nodes, other.max_nodes) ||
         more(max_calls, other.max_calls) ||
         more(max_millis, other.max_millis);
}

CompileBudget DefaultCompileBudget() {
  // Deterministic (no wall-clock cap): the same instance routes to the
  // same tier on every machine. The gadget corpus compiles in a few
  // thousand nodes; a quarter million is an order of magnitude of
  // headroom before the router declares an instance uncompilable.
  CompileBudget budget;
  budget.max_nodes = 1 << 18;   // 262144 circuit nodes
  budget.max_calls = 1 << 21;   // 2M CompileNode invocations
  budget.max_millis = 0;
  return budget;
}

const char* RoutingModeName(RoutingMode mode) {
  switch (mode) {
    case RoutingMode::kExact:
      return "exact";
    case RoutingMode::kAuto:
      return "auto";
    case RoutingMode::kInterval:
      return "interval";
    case RoutingMode::kSample:
      return "sample";
  }
  return "exact";
}

bool ParseRoutingMode(const char* name, RoutingMode* out) {
  if (name == nullptr) return false;
  for (RoutingMode mode : {RoutingMode::kExact, RoutingMode::kAuto,
                           RoutingMode::kInterval, RoutingMode::kSample}) {
    if (std::strcmp(name, RoutingModeName(mode)) == 0) {
      *out = mode;
      return true;
    }
  }
  return false;
}

GmcOptions GmcOptions::FromEnv() {
  GmcOptions options;
  ParseOrderHeuristic(std::getenv("GMC_ORDER"), &options.order);
  if (const char* store = std::getenv("GMC_STORE")) {
    options.store_directory = store;
  }
  // GMC_THREADS: num_threads stays 0 — "defer to the process default" is
  // the existing contract, and util/parallel resolves that default from
  // GMC_THREADS at use time.
  ParseRoutingMode(std::getenv("GMC_ROUTING"), &options.routing_mode);
  EnvU64("GMC_BUDGET_NODES", &options.compile_budget.max_nodes);
  EnvU64("GMC_BUDGET_CALLS", &options.compile_budget.max_calls);
  EnvU64("GMC_BUDGET_MS", &options.compile_budget.max_millis);
  EnvUnitDouble("GMC_EPSILON", &options.epsilon);
  EnvUnitDouble("GMC_DELTA", &options.delta);
  EnvU64("GMC_MAX_SAMPLES", &options.max_samples);
  EnvU64("GMC_SEED", &options.sample_seed);
  EnvU64("GMC_DEADLINE_MS", &options.deadline_ms);
  EnvU64("GMC_CACHE_BYTES", &options.max_resident_bytes);
  EnvBool("GMC_STORE_SELF_HEAL", &options.store_self_heal);
  return options;
}

}  // namespace gmc
