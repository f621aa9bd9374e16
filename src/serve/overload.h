// Adaptive overload control ("brownout") for the serving tier.
//
// The dichotomy makes real traffic an unpredictable mix: the same wire
// verb can cost a lifted PTIME plan, a compiled circuit pass, or a #P-hard
// blow-up. A fixed admission limit therefore sheds blindly — it cannot
// tell "momentarily busy" from "melting down". This header adds the
// missing signal: a LoadGovernor that folds queue depth, queue-wait EWMA,
// and in-flight work into one normalized load signal and drives a
// hysteresis-banded pressure level
//
//     GREEN  — serve everything at the requested tier
//     YELLOW — auto-routed requests downshift to the certified interval
//              tier (guaranteed enclosures at double-batch speed)
//     RED    — auto-routed requests downshift to the (ε, δ) sampler
//              (bounded latency, certified estimate)
//
// so the server degrades BY TIER under pressure instead of degrading by
// dropping. Two invariants the serve layer builds on:
//
//   * Explicit-mode requests are never silently downgraded — only
//     RoutingMode::kAuto moves (DegradeForPressure is the whole policy,
//     a pure function, unit-tested as a table). Degradation stays
//     observable either way: every OK reply already reports tier=.
//   * Requests that cannot be served at all get a typed
//     "ERR <id> SHED retry_after_ms=<n>" with a backoff hint scaled by
//     the pressure level — never a silent drop.
//
// Hysteresis: each level has an ENTER threshold and a lower EXIT
// threshold on the load signal. The level steps up as soon as an enter
// band is met and steps down only after the signal falls below the band's
// exit threshold, so a signal oscillating around one threshold cannot
// flap the level (and with it the answer tier) request to request.
// Formally, for signal s and current level cur:
//
//     next = max(EnterLevel(s), min(cur, SustainLevel(s)))
//
// where EnterLevel is the highest level whose enter threshold s meets and
// SustainLevel the highest level whose exit threshold s still meets. The
// update is deterministic — a given feed sequence produces the same level
// sequence on every run, which is what the state-machine tests pin.
//
// Thread model: every feed and every read is lock-free (relaxed atomics;
// the EWMA folds via a CAS loop). The dormant cost of consulting level()
// on the hot admission path is one relaxed load — bench_robust gates it
// alongside the fault-point budget.

#ifndef GMC_SERVE_OVERLOAD_H_
#define GMC_SERVE_OVERLOAD_H_

#include <atomic>
#include <cstdint>

#include "compile/gmc_options.h"

namespace gmc {
namespace serve {

enum class Pressure : int { kGreen = 0, kYellow = 1, kRed = 2 };

/// Stable lowercase name: "green" / "yellow" / "red" — the vocabulary of
/// the HEALTH wire verb's pressure field.
const char* PressureName(Pressure level);

/// The governor's knobs. The load signal is normalized:
///
///   signal = max((queue_depth + inflight) / capacity,
///                wait_ewma_ms / wait_budget_ms,
///                work_ewma_ms / wait_budget_ms)
///
/// so "the queue is deep", "requests sit in the queue too long" (the
/// cheap-queue-expensive-work case a depth limit alone misses), and
/// "each request COSTS too much to evaluate" can all raise pressure. The
/// third term exists for the RED-tier blind spot: once auto traffic has
/// been downshifted to the sampler, the serving rounds drain the queue
/// fast enough that depth and wait both collapse — without a per-request work
/// cost feed the signal would drop, the level would flap back to GREEN,
/// and the expensive tier would return. Thresholds are fractions of that
/// signal; exits must be at or below their enters (Configure clamps them
/// there).
struct OverloadOptions {
  /// Queue slots the depth term is normalized against (>= 1; the serve
  /// layer fills this from max_pending when left 0).
  uint64_t capacity = 64;
  /// Queue-wait EWMA that by itself saturates the signal at 1.0.
  uint64_t wait_budget_ms = 250;
  /// EWMA smoothing factor in (0, 1]: ewma' = (1-a)*ewma + a*sample.
  double ewma_alpha = 0.2;
  /// Hysteresis bands, as fractions of the normalized signal.
  double yellow_enter = 0.50;
  double yellow_exit = 0.25;
  double red_enter = 0.90;
  double red_exit = 0.60;
  /// SHED backoff hint at GREEN; YELLOW doubles it, RED quadruples it.
  uint64_t base_retry_after_ms = 25;
};

class LoadGovernor {
 public:
  LoadGovernor() { Configure(OverloadOptions{}); }
  explicit LoadGovernor(const OverloadOptions& options) { Configure(options); }

  /// Installs (sanitized) options and resets the level to GREEN. NOT safe
  /// against concurrent feeds — configure before serving starts.
  void Configure(const OverloadOptions& options);
  const OverloadOptions& options() const { return options_; }

  /// Feed: the queue depth observed at an admission or drain boundary.
  /// Recomputes the pressure level.
  void RecordQueueDepth(uint64_t depth);
  /// Feed: one request's time spent queued, folded into the EWMA at
  /// sub-millisecond resolution. Recomputes the pressure level.
  void RecordQueueWait(double wait_ms);
  /// Feed: the average per-request evaluation cost of one drained batch
  /// (the serve loop feeds batch_ms / batch_size), folded into its own
  /// EWMA and normalized against wait_budget_ms — a request whose WORK
  /// alone eats the whole wait budget saturates the signal even when the
  /// queue stays empty. Recomputes the pressure level.
  void RecordWorkCost(double cost_ms);
  /// In-flight tracking: requests handed to the evaluation session and not
  /// yet answered count toward the depth term (the queue empties the
  /// moment a batch drains it — without this term a huge drained batch
  /// would read as zero load).
  void BeginWork(uint64_t n) {
    inflight_.fetch_add(n, std::memory_order_relaxed);
  }
  void EndWork(uint64_t n) {
    inflight_.fetch_sub(n, std::memory_order_relaxed);
  }

  Pressure level() const {
    return static_cast<Pressure>(level_.load(std::memory_order_relaxed));
  }
  /// The SHED backoff hint at the current level (base << level).
  uint64_t retry_after_ms() const;
  double wait_ewma_ms() const;
  double work_ewma_ms() const;
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  /// Level changes since Configure — the flap counter the hysteresis
  /// tests pin (a banded governor transitions O(load swings), not
  /// O(requests)).
  uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

 private:
  void Recompute(uint64_t depth);
  // Folds one sample (ms, clamped at 0) into a fixed-point EWMA, then
  // recomputes the level.
  void FoldEwma(std::atomic<uint64_t>& ewma_fixed, double sample_ms);

  OverloadOptions options_;
  std::atomic<uint64_t> inflight_{0};
  // EWMAs in micro-milliseconds (ms * 1024) so FoldEwma's CAS runs on
  // integers; precision far below anything the bands can resolve.
  std::atomic<uint64_t> ewma_fixed_{0};       // queue wait
  std::atomic<uint64_t> work_fixed_{0};       // per-request work cost
  std::atomic<int> level_{0};
  std::atomic<uint64_t> transitions_{0};
};

/// The whole degradation policy: only kAuto moves (YELLOW → kInterval,
/// RED → kSample); every explicit mode — and kAuto at GREEN — passes
/// through untouched. Pure function, so the brownout ladder is testable
/// as a table without a server.
RoutingMode DegradeForPressure(RoutingMode requested, Pressure level);

}  // namespace serve
}  // namespace gmc

#endif  // GMC_SERVE_OVERLOAD_H_
