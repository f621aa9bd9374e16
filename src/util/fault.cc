#include "util/fault.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace gmc {
namespace fault {

namespace {

constexpr int kNumPoints = static_cast<int>(Point::kNumPoints);

// SplitMix64 finalizer — the same mixer the sampler uses for its seeds.
// Full-avalanche, so consecutive crossing indices land anywhere in [0,2^64).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct State {
  // `enabled` is the one hot-path load; everything below it is only read
  // after `enabled` is observed true. Rates are fixed-point in 2^-32 so
  // the fire decision is an integer compare, and are written only under
  // config_mu (with all counters quiescent in practice: Configure happens
  // in test setup / process init, not mid-traffic).
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> threshold[kNumPoints];  // fire iff hash32 < this
  std::atomic<uint64_t> seed{0};
  std::atomic<uint64_t> crossings[kNumPoints];
  std::atomic<uint64_t> injected[kNumPoints];
  std::mutex config_mu;
};

State& GetState() {
  static State* state = new State();  // leaked: points outlive static dtors
  return *state;
}

std::once_flag& EnvOnce() {
  static std::once_flag once;
  return once;
}

bool ConfigureImpl(const std::string& spec, std::string* error);

// First ShouldFail installs GMC_FAULT; an explicit Configure consumes the
// flag instead, so a test's spec is never clobbered by a late env install.
// The env path must call ConfigureImpl, NOT the public Configure: the
// public entry point consumes EnvOnce itself, and re-entering call_once on
// the flag currently being run is a deadlock. A malformed spec leaves every
// point disarmed and says so once on stderr: a run that meant to inject
// faults must not pass without a word.
void MaybeInstallEnvSpec() {
  std::call_once(EnvOnce(), [] {
    const char* env = std::getenv("GMC_FAULT");
    std::string error;
    if (env != nullptr && env[0] != '\0' && !ConfigureImpl(env, &error)) {
      std::fprintf(stderr,
                   "GMC_FAULT=\"%s\" is malformed (%s); every fault point "
                   "is disarmed\n",
                   env, error.c_str());
    }
  });
}

void ZeroCountersLocked(State& s) {
  for (int i = 0; i < kNumPoints; ++i) {
    s.crossings[i].store(0, std::memory_order_relaxed);
    s.injected[i].store(0, std::memory_order_relaxed);
  }
}

bool ParsePoint(const std::string& name, int* out) {
  for (int i = 0; i < kNumPoints; ++i) {
    if (name == PointName(static_cast<Point>(i))) {
      *out = i;
      return true;
    }
  }
  return false;
}

// Strict decimal in [0, 1]: digits, optional fraction. No strtod — its
// locale sensitivity and hex/inf forms have no place in an operator knob.
bool ParseRate(const std::string& text, uint64_t* threshold) {
  if (text.empty()) return false;
  uint64_t integer = 0;
  size_t i = 0;
  for (; i < text.size() && text[i] != '.'; ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    integer = integer * 10 + static_cast<uint64_t>(text[i] - '0');
    if (integer > 1) return false;
  }
  // Fixed-point fraction in 2^-32, accumulated digit by digit.
  uint64_t fraction = 0;  // numerator over `scale`
  uint64_t scale = 1;
  if (i < text.size()) {
    if (text[i] != '.' || i + 1 == text.size()) return false;
    for (++i; i < text.size(); ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      if (scale >= 1000000000ull) continue;  // 9 digits of rate is plenty
      fraction = fraction * 10 + static_cast<uint64_t>(text[i] - '0');
      scale *= 10;
    }
  }
  if (integer == 1 && fraction != 0) return false;
  *threshold = integer == 1 ? (1ull << 32)
                            : ((fraction << 32) + scale - 1) / scale;
  return true;
}

// The spec parser + installer, shared by the public Configure and the
// GMC_FAULT env install (which must bypass the EnvOnce consumption).
bool ConfigureImpl(const std::string& spec, std::string* error) {
  uint64_t thresholds[kNumPoints] = {};
  uint64_t seed = 0;
  size_t start = 0;
  while (start <= spec.size() && !spec.empty()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) *error = "missing '=' in '" + item + "'";
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      seed = 0;
      if (value.empty() || value.size() > 19) {
        if (error != nullptr) *error = "bad seed '" + value + "'";
        return false;
      }
      for (char c : value) {
        if (c < '0' || c > '9') {
          if (error != nullptr) *error = "bad seed '" + value + "'";
          return false;
        }
        seed = seed * 10 + static_cast<uint64_t>(c - '0');
      }
      continue;
    }
    int point = 0;
    if (!ParsePoint(key, &point)) {
      if (error != nullptr) *error = "unknown fault point '" + key + "'";
      return false;
    }
    if (!ParseRate(value, &thresholds[point])) {
      if (error != nullptr) {
        *error = "rate for '" + key + "' must be a decimal in [0, 1]";
      }
      return false;
    }
    if (start > spec.size()) break;
  }

  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.config_mu);
  bool any = false;
  for (int i = 0; i < kNumPoints; ++i) {
    s.threshold[i].store(thresholds[i], std::memory_order_relaxed);
    any = any || thresholds[i] > 0;
  }
  s.seed.store(seed, std::memory_order_relaxed);
  ZeroCountersLocked(s);
  s.enabled.store(any, std::memory_order_release);
  return true;
}

}  // namespace

const char* PointName(Point point) {
  switch (point) {
    case Point::kStoreRead:
      return "store.read";
    case Point::kStoreWrite:
      return "store.write";
    case Point::kCacheInsert:
      return "cache.insert";
    case Point::kSocketWrite:
      return "socket.write";
    case Point::kServeAccept:
      return "serve.accept";
    case Point::kStoreScrub:
      return "store.scrub";
    case Point::kLineageTemplate:
      return "lineage.template";
    case Point::kNumPoints:
      break;
  }
  return "?";
}

bool Configure(const std::string& spec, std::string* error) {
  std::call_once(EnvOnce(), [] {});  // explicit config wins over GMC_FAULT
  return ConfigureImpl(spec, error);
}

bool ShouldFail(Point point) {
  MaybeInstallEnvSpec();
  State& s = GetState();
  if (!s.enabled.load(std::memory_order_relaxed)) return false;
  const int i = static_cast<int>(point);
  const uint64_t n = s.crossings[i].fetch_add(1, std::memory_order_relaxed);
  const uint64_t threshold = s.threshold[i].load(std::memory_order_relaxed);
  if (threshold == 0) return false;
  // Pure function of (seed, point, crossing index): run-to-run and
  // machine-to-machine reproducible for a fixed per-point call sequence.
  const uint64_t h = Mix(s.seed.load(std::memory_order_relaxed) ^
                         (static_cast<uint64_t>(i) << 56) ^ n);
  if ((h >> 32) >= threshold) return false;
  s.injected[i].fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t InjectedCount(Point point) {
  return GetState()
      .injected[static_cast<int>(point)]
      .load(std::memory_order_relaxed);
}

uint64_t CrossingCount(Point point) {
  return GetState()
      .crossings[static_cast<int>(point)]
      .load(std::memory_order_relaxed);
}

void Reset() {
  std::call_once(EnvOnce(), [] {});  // a Reset must stay reset
  State& s = GetState();
  std::lock_guard<std::mutex> lock(s.config_mu);
  for (int i = 0; i < kNumPoints; ++i) {
    s.threshold[i].store(0, std::memory_order_relaxed);
  }
  s.seed.store(0, std::memory_order_relaxed);
  ZeroCountersLocked(s);
  s.enabled.store(false, std::memory_order_release);
}

}  // namespace fault
}  // namespace gmc
