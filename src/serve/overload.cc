#include "serve/overload.h"

#include <algorithm>

namespace gmc {
namespace serve {

namespace {

constexpr double kEwmaScale = 1024.0;  // fixed-point: stored = ms * 1024

int EnterLevel(double signal, const OverloadOptions& o) {
  if (signal >= o.red_enter) return static_cast<int>(Pressure::kRed);
  if (signal >= o.yellow_enter) return static_cast<int>(Pressure::kYellow);
  return static_cast<int>(Pressure::kGreen);
}

int SustainLevel(double signal, const OverloadOptions& o) {
  if (signal >= o.red_exit) return static_cast<int>(Pressure::kRed);
  if (signal >= o.yellow_exit) return static_cast<int>(Pressure::kYellow);
  return static_cast<int>(Pressure::kGreen);
}

}  // namespace

const char* PressureName(Pressure level) {
  switch (level) {
    case Pressure::kGreen:
      return "green";
    case Pressure::kYellow:
      return "yellow";
    case Pressure::kRed:
      return "red";
  }
  return "?";
}

void LoadGovernor::Configure(const OverloadOptions& options) {
  options_ = options;
  // Sanitize rather than reject: these arrive from flags and env, and a
  // governor must never be the thing that refuses to start the server.
  if (options_.capacity == 0) options_.capacity = 1;
  if (options_.wait_budget_ms == 0) options_.wait_budget_ms = 1;
  if (!(options_.ewma_alpha > 0.0) || options_.ewma_alpha > 1.0) {
    options_.ewma_alpha = 0.2;
  }
  // An exit above its enter would make the band un-leavable upward (the
  // level would enter and immediately sustain forever); clamp to the
  // enter so a degenerate config degrades to no hysteresis, not to flap.
  options_.yellow_exit = std::min(options_.yellow_exit, options_.yellow_enter);
  options_.red_exit = std::min(options_.red_exit, options_.red_enter);
  inflight_.store(0, std::memory_order_relaxed);
  ewma_fixed_.store(0, std::memory_order_relaxed);
  work_fixed_.store(0, std::memory_order_relaxed);
  level_.store(static_cast<int>(Pressure::kGreen), std::memory_order_relaxed);
  transitions_.store(0, std::memory_order_relaxed);
}

void LoadGovernor::RecordQueueDepth(uint64_t depth) { Recompute(depth); }

void LoadGovernor::RecordQueueWait(double wait_ms) {
  FoldEwma(ewma_fixed_, wait_ms);
}

void LoadGovernor::RecordWorkCost(double cost_ms) {
  FoldEwma(work_fixed_, cost_ms);
}

void LoadGovernor::FoldEwma(std::atomic<uint64_t>& ewma_fixed,
                            double sample_ms) {
  const double sample = std::max(sample_ms, 0.0) * kEwmaScale;
  uint64_t seen = ewma_fixed.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = static_cast<uint64_t>((1.0 - options_.ewma_alpha) *
                                     static_cast<double>(seen) +
                                 options_.ewma_alpha * sample);
  } while (!ewma_fixed.compare_exchange_weak(seen, next,
                                             std::memory_order_relaxed));
  Recompute(0);
}

void LoadGovernor::Recompute(uint64_t depth) {
  const double occupancy =
      static_cast<double>(depth + inflight_.load(std::memory_order_relaxed)) /
      static_cast<double>(options_.capacity);
  const double wait = wait_ewma_ms() /
                      static_cast<double>(options_.wait_budget_ms);
  const double work = work_ewma_ms() /
                      static_cast<double>(options_.wait_budget_ms);
  const double signal = std::max({occupancy, wait, work});
  // Hysteresis step: rise to any met enter band immediately, fall only
  // once the current band's exit no longer holds. The CAS keeps the
  // transition count honest under concurrent feeds; a lost race just
  // means the other feed's (equally valid) level won.
  int cur = level_.load(std::memory_order_relaxed);
  for (;;) {
    const int next = std::max(EnterLevel(signal, options_),
                              std::min(cur, SustainLevel(signal, options_)));
    if (next == cur) return;
    if (level_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      transitions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

uint64_t LoadGovernor::retry_after_ms() const {
  return options_.base_retry_after_ms
         << level_.load(std::memory_order_relaxed);
}

double LoadGovernor::wait_ewma_ms() const {
  return static_cast<double>(ewma_fixed_.load(std::memory_order_relaxed)) /
         kEwmaScale;
}

double LoadGovernor::work_ewma_ms() const {
  return static_cast<double>(work_fixed_.load(std::memory_order_relaxed)) /
         kEwmaScale;
}

RoutingMode DegradeForPressure(RoutingMode requested, Pressure level) {
  if (requested != RoutingMode::kAuto) return requested;  // never silently
  switch (level) {
    case Pressure::kGreen:
      return RoutingMode::kAuto;
    case Pressure::kYellow:
      return RoutingMode::kInterval;
    case Pressure::kRed:
      return RoutingMode::kSample;
  }
  return requested;
}

}  // namespace serve
}  // namespace gmc
