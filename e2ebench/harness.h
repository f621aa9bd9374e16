// The testable core of the end-to-end gmc_serve benchmark: seeded request
// generators for the three traffic mixes, the reply parser, percentile and
// span self-time arithmetic, and the result printer. Everything here is a
// pure function of its inputs; process control, sockets and clocks live in
// main.cc.

#ifndef GMC_E2EBENCH_HARNESS_H_
#define GMC_E2EBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gmc_e2e {

// ------------------------------------------------------------ randomness

/// splitmix64 finalizer over a combined key: every request and pool member
/// is drawn from a stream keyed by (seed, purpose, stream, index), so any
/// request can be regenerated on its own for the answer checks and the
/// traced replay.
uint64_t Mix(uint64_t a, uint64_t b);

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in (0, 1].
  double Open01();

 private:
  uint64_t state_;
};

// ------------------------------------------------------------ instances

/// One explicitly assigned tuple: Name(u) or Name(u,v) = num/den.
struct Assign {
  std::string symbol;
  int u = 0;
  int v = -1;  ///< -1 for unary symbols
  int64_t num = 0;
  int64_t den = 1;
};

/// A TID as the wire sees it: a num_left × num_right domain whose
/// unlisted tuples take `default_p`.
struct Instance {
  int num_left = 0;
  int num_right = 0;
  int64_t default_num = 1;
  int64_t default_den = 1;
  std::vector<Assign> tuples;
};

/// "<num_left> <num_right> <default_p> <tuple>=<p> ..." — the TID tail
/// shared by EVAL and EVAL_APPROX.
std::string TidTail(const Instance& instance);

/// The tuple state of one pool member's pattern.
enum class TupleState : uint8_t { kAbsent, kCertain, kUncertain };

/// The hot traffic's structure pool: GFOMC instances over a 4×4 domain of
/// H1 (symbols R, S, T), each a random pattern of absent, certain and
/// uncertain tuples, drawn with Zipf(1) popularity.
class HotPool {
 public:
  static constexpr int kDomain = 4;
  HotPool(uint64_t seed, int size);

  int size() const { return static_cast<int>(patterns_.size()); }
  /// Member `m` at its GFOMC weights: uncertain tuples at 1/2.
  Instance Gfomc(int m) const;
  /// Member `m` with every uncertain tuple at a fresh dyadic probability
  /// k/2^j, j in 1..4, drawn from `rng`.
  Instance Reweighted(int m, Rng* rng) const;
  /// A Zipf-popular member index.
  int Pick(Rng* rng) const;

 private:
  // Tuple order: R(0..3), T(0..3), S(u,v) row-major.
  std::vector<std::vector<TupleState>> patterns_;
  std::vector<double> cdf_;
};

// ------------------------------------------------------------ workloads

/// The traffic mixes. Each is one closed-loop phase: the client sends its
/// next request when the previous reply arrived.
enum class Workload {
  kHotExact,           ///< EVAL and EVAL_APPROX exact on the H1 pool
  kCertifiedInterval,  ///< EVAL_APPROX interval on C9 3×3
  kCertifiedSampled,   ///< EVAL_APPROX sample on C9 3×3
};
inline constexpr Workload kWorkloads[] = {Workload::kHotExact,
                                          Workload::kCertifiedInterval,
                                          Workload::kCertifiedSampled};
bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload workload);
bool UsesPool(Workload workload);

struct Request {
  std::string id;
  bool approx = false;
  std::string mode;   ///< EVAL_APPROX only: exact / interval / sample
  std::string eps;    ///< EVAL_APPROX only, as a rational
  std::string delta;  ///< EVAL_APPROX only, as a rational
  Instance instance;
  int pool_member = -1;  ///< hot pool member, or -1

  /// The wire line, without the trailing newline.
  std::string Line() const;
};

/// The query text each workload's server answers.
const char* QueryText(Workload workload);

/// The (ε, δ) of every EVAL_APPROX request, as wire rationals.
struct SamplerTarget {
  const char* eps;
  const char* delta;
};
inline constexpr SamplerTarget kCertifiedTarget{"1/10", "1/20"};

/// Request `index` of request stream `stream`: a pure function of its
/// arguments (`pool` is used by the workloads that use it). The timed
/// window, its warm-up and each server launch draw from disjoint streams.
Request MakeRequest(Workload workload, uint64_t seed, int stream,
                    uint64_t index, const HotPool* pool);

// ------------------------------------------------------------ replies

enum class ReplyKind {
  kOkEval,      ///< OK <id> <p> lifted=<0|1>
  kOkExact,     ///< OK <id> EXACT <p> tier=<t>
  kOkInterval,  ///< OK <id> INTERVAL <lo> <hi> tier=interval
  kOkEstimate,  ///< OK <id> ESTIMATE <p> eps= delta= samples= tier=sampled
  kErr,         ///< ERR <id> <KIND> ...
  kHello,
  kStats,
  kHealth,
  kBye,
};

struct Reply {
  ReplyKind kind = ReplyKind::kErr;
  std::string id;
  std::string value;  ///< exact probability text (kOkEval, kOkExact)
  std::string tier;   ///< tier= field of EVAL_APPROX replies
  bool lifted = false;
  double lo = 0, hi = 0;                       ///< kOkInterval
  double estimate = 0, eps = 0, delta = 0;     ///< kOkEstimate
  uint64_t samples = 0;                        ///< kOkEstimate
  std::string err;  ///< kErr: SHED / BUSY / PARSE / INVALID / BUDGET / TIMEOUT
  int64_t retry_after_ms = -1;  ///< SHED and BUSY
  std::map<std::string, std::string> fields;  ///< kStats, kHealth key=value

  bool ok() const {
    return kind == ReplyKind::kOkEval || kind == ReplyKind::kOkExact ||
           kind == ReplyKind::kOkInterval || kind == ReplyKind::kOkEstimate;
  }
};

/// Parses one server line. False on any line that is not one of the shapes
/// src/serve/serve.h documents.
bool ParseReply(std::string_view line, Reply* out);

/// A numeric key=value field of a STATS or HEALTH reply (0 when absent).
double Field(const Reply& reply, const std::string& key);

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (the "R-7" rule numpy uses by default)
/// of unsorted `values`, q in [0, 1]. 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// ------------------------------------------------------------ spans

/// One timed call of the traced replay. Spans of one request share
/// `request`; `parent` is the index of the enclosing span or -1.
struct Span {
  std::string name;
  int parent = -1;
  std::string request;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Requests the call served at once (a coalesced batch); per-request
  /// time is the duration divided by this.
  int width = 1;
};

/// Each span's self time: its duration minus the part of it covered by the
/// union of its children's intervals (clipped to the span).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// ------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// with every value printed with all its digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// JSON string literal with escapes.
std::string JsonString(std::string_view text);

}  // namespace gmc_e2e

#endif  // GMC_E2EBENCH_HARNESS_H_
