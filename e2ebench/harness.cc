#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gmc_e2e {

// ------------------------------------------------------------ randomness

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Open01() {
  return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
}

// ------------------------------------------------------------ instances

namespace {

void AppendProbability(std::string* out, int64_t num, int64_t den) {
  *out += std::to_string(num);
  if (den != 1) {
    *out += '/';
    *out += std::to_string(den);
  }
}

// Dyadic k/2^j with j in 1..4 and k odd: a fresh uncertain weight.
Assign DyadicAssign(std::string symbol, int u, int v, Rng* rng) {
  const int j = 1 + static_cast<int>(rng->Below(4));
  const int64_t den = int64_t{1} << j;
  const int64_t num = 2 * static_cast<int64_t>(rng->Below(den / 2)) + 1;
  return Assign{std::move(symbol), u, v, num, den};
}

constexpr int kHotTuples = 2 * HotPool::kDomain +
                           HotPool::kDomain * HotPool::kDomain;

// The pool tuple at position `t` of a pattern: R(0..3), T(0..3), S row-major.
Assign HotTuple(int t) {
  const int d = HotPool::kDomain;
  if (t < d) return Assign{"R", t, -1, 0, 1};
  if (t < 2 * d) return Assign{"T", t - d, -1, 0, 1};
  const int s = t - 2 * d;
  return Assign{"S", s / d, s % d, 0, 1};
}

}  // namespace

std::string TidTail(const Instance& instance) {
  std::string out = std::to_string(instance.num_left) + " " +
                    std::to_string(instance.num_right) + " ";
  AppendProbability(&out, instance.default_num, instance.default_den);
  for (const Assign& a : instance.tuples) {
    out += ' ';
    out += a.symbol;
    out += '(';
    out += std::to_string(a.u);
    if (a.v >= 0) {
      out += ',';
      out += std::to_string(a.v);
    }
    out += ")=";
    AppendProbability(&out, a.num, a.den);
  }
  return out;
}

HotPool::HotPool(uint64_t seed, int size) {
  // S tuples: 10% absent, 40% certain, 50% uncertain; R and T tuples: 45%
  // certain, 55% uncertain. Only S is ever absent: an absent R(u) next to
  // an absent S(u,v) would falsify a clause and make the lineage constant.
  Rng rng(Mix(seed, 0x706f6f6c));  // "pool"
  patterns_.resize(static_cast<size_t>(size));
  for (auto& pattern : patterns_) {
    pattern.resize(kHotTuples);
    for (int t = 0; t < kHotTuples; ++t) {
      const uint64_t r = rng.Below(100);
      if (t >= 2 * kDomain) {
        pattern[t] = r < 10   ? TupleState::kAbsent
                     : r < 50 ? TupleState::kCertain
                              : TupleState::kUncertain;
      } else {
        pattern[t] = r < 45 ? TupleState::kCertain : TupleState::kUncertain;
      }
    }
  }
  cdf_.resize(patterns_.size());
  double total = 0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

Instance HotPool::Gfomc(int m) const {
  Instance instance{kDomain, kDomain, 1, 1, {}};
  const auto& pattern = patterns_[static_cast<size_t>(m)];
  for (int t = 0; t < kHotTuples; ++t) {
    if (pattern[t] == TupleState::kCertain) continue;
    Assign a = HotTuple(t);
    if (pattern[t] == TupleState::kUncertain) {
      a.num = 1;
      a.den = 2;
    }
    instance.tuples.push_back(std::move(a));
  }
  return instance;
}

Instance HotPool::Reweighted(int m, Rng* rng) const {
  Instance instance{kDomain, kDomain, 1, 1, {}};
  const auto& pattern = patterns_[static_cast<size_t>(m)];
  for (int t = 0; t < kHotTuples; ++t) {
    if (pattern[t] == TupleState::kCertain) continue;
    Assign a = HotTuple(t);
    if (pattern[t] == TupleState::kUncertain) {
      a = DyadicAssign(a.symbol, a.u, a.v, rng);
    }
    instance.tuples.push_back(std::move(a));
  }
  return instance;
}

int HotPool::Pick(Rng* rng) const {
  const double u = rng->Open01();
  const size_t m = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return static_cast<int>(std::min(m, cdf_.size() - 1));
}

// ------------------------------------------------------------ workloads

namespace {

constexpr const char* kWorkloadNames[] = {"hot_exact", "certified_interval",
                                          "certified_sampled"};

// H1 = Type I-I, the shape the paper proves hard; C9 = Type II.
constexpr const char* kH1 = "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))";
constexpr const char* kC9 =
    "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
    "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))";

// The certified workloads' instance: C9 over 3×3 with every tuple
// uncertain at a fresh non-dyadic weight k/7 or k/11.
Instance CertifiedInstance(Rng* rng) {
  constexpr int kSide = 3;
  Instance instance{kSide, kSide, 1, 1, {}};
  for (const char* symbol : {"S1", "S2", "S3", "S4"}) {
    for (int u = 0; u < kSide; ++u) {
      for (int v = 0; v < kSide; ++v) {
        const int64_t den = rng->Below(2) == 0 ? 7 : 11;
        const int64_t num = 1 + static_cast<int64_t>(rng->Below(den - 1));
        instance.tuples.push_back(Assign{symbol, u, v, num, den});
      }
    }
  }
  return instance;
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : kWorkloads) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  return kWorkloadNames[static_cast<int>(workload)];
}

bool UsesPool(Workload workload) { return workload == Workload::kHotExact; }

const char* QueryText(Workload workload) {
  return UsesPool(workload) ? kH1 : kC9;
}

std::string Request::Line() const {
  std::string out = approx ? "EVAL_APPROX " : "EVAL ";
  out += id + " ";
  if (approx) out += mode + " " + eps + " " + delta + " ";
  return out + TidTail(instance);
}

Request MakeRequest(Workload workload, uint64_t seed, int stream,
                    uint64_t index, const HotPool* pool) {
  Rng rng(Mix(Mix(Mix(seed, static_cast<uint64_t>(workload) + 1),
                  static_cast<uint64_t>(stream)),
              index));
  Request r;
  // Ids: <workload letter><stream>-<index>, unique within a run.
  const char letter = "his"[static_cast<int>(workload)];
  r.id = letter + std::to_string(stream) + "-" + std::to_string(index);
  switch (workload) {
    case Workload::kHotExact:
      r.pool_member = pool->Pick(&rng);
      r.instance = pool->Reweighted(r.pool_member, &rng);
      if (rng.Below(2) == 1) {
        r.approx = true;
        r.mode = "exact";
        r.eps = kCertifiedTarget.eps;
        r.delta = kCertifiedTarget.delta;
      }
      break;
    case Workload::kCertifiedInterval:
    case Workload::kCertifiedSampled:
      r.instance = CertifiedInstance(&rng);
      r.approx = true;
      r.mode = workload == Workload::kCertifiedInterval ? "interval" : "sample";
      r.eps = kCertifiedTarget.eps;
      r.delta = kCertifiedTarget.delta;
      break;
  }
  return r;
}

// ------------------------------------------------------------ replies

namespace {

std::vector<std::string_view> Words(std::string_view line) {
  std::vector<std::string_view> words;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const size_t begin = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > begin) words.push_back(line.substr(begin, i - begin));
  }
  return words;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string copy(text);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

bool ParseUint(std::string_view text, uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

// "key=value" with the expected key; the value lands in *value.
bool KeyValue(std::string_view word, std::string_view key,
              std::string_view* value) {
  if (word.size() <= key.size() || word.substr(0, key.size()) != key ||
      word[key.size()] != '=') {
    return false;
  }
  *value = word.substr(key.size() + 1);
  return true;
}

bool IsRationalText(std::string_view text) {
  const size_t slash = text.find('/');
  auto digits = [](std::string_view s) {
    if (s.empty()) return false;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
    }
    return true;
  };
  if (slash == std::string_view::npos) return digits(text);
  return digits(text.substr(0, slash)) && digits(text.substr(slash + 1));
}

bool ParseFields(const std::vector<std::string_view>& words, Reply* out) {
  for (size_t i = 1; i < words.size(); ++i) {
    const size_t eq = words[i].find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    out->fields[std::string(words[i].substr(0, eq))] =
        std::string(words[i].substr(eq + 1));
  }
  return true;
}

}  // namespace

bool ParseReply(std::string_view line, Reply* out) {
  *out = Reply{};
  const std::vector<std::string_view> w = Words(line);
  if (w.empty()) return false;
  std::string_view v;
  if (w[0] == "HELLO") {
    out->kind = ReplyKind::kHello;
    return w.size() == 3 && w[1] == "gmc_serve";
  }
  if (w[0] == "BYE") {
    out->kind = ReplyKind::kBye;
    return w.size() == 1;
  }
  if (w[0] == "STATS" || w[0] == "HEALTH") {
    out->kind = w[0] == "STATS" ? ReplyKind::kStats : ReplyKind::kHealth;
    return ParseFields(w, out);
  }
  if (w.size() < 3) return false;
  out->id = std::string(w[1]);
  if (w[0] == "ERR") {
    out->kind = ReplyKind::kErr;
    out->err = std::string(w[2]);
    static constexpr std::string_view kKinds[] = {
        "SHED", "BUSY", "PARSE", "INVALID", "BUDGET", "TIMEOUT"};
    if (std::find(std::begin(kKinds), std::end(kKinds), w[2]) ==
        std::end(kKinds)) {
      return false;
    }
    if (out->err == "SHED" || out->err == "BUSY") {
      uint64_t retry = 0;
      if (w.size() < 4 || !KeyValue(w[3], "retry_after_ms", &v) ||
          !ParseUint(v, &retry)) {
        return false;
      }
      out->retry_after_ms = static_cast<int64_t>(retry);
    }
    return true;
  }
  if (w[0] != "OK") return false;
  if (w[2] == "EXACT") {
    out->kind = ReplyKind::kOkExact;
    if (w.size() != 5 || !IsRationalText(w[3]) ||
        !KeyValue(w[4], "tier", &v)) {
      return false;
    }
    out->value = std::string(w[3]);
    out->tier = std::string(v);
    return true;
  }
  if (w[2] == "INTERVAL") {
    out->kind = ReplyKind::kOkInterval;
    if (w.size() != 6 || !ParseDouble(w[3], &out->lo) ||
        !ParseDouble(w[4], &out->hi) || !KeyValue(w[5], "tier", &v)) {
      return false;
    }
    out->tier = std::string(v);
    return true;
  }
  if (w[2] == "ESTIMATE") {
    out->kind = ReplyKind::kOkEstimate;
    std::string_view eps, delta, samples, tier;
    if (w.size() != 8 || !ParseDouble(w[3], &out->estimate) ||
        !KeyValue(w[4], "eps", &eps) || !ParseDouble(eps, &out->eps) ||
        !KeyValue(w[5], "delta", &delta) || !ParseDouble(delta, &out->delta) ||
        !KeyValue(w[6], "samples", &samples) ||
        !ParseUint(samples, &out->samples) || !KeyValue(w[7], "tier", &tier)) {
      return false;
    }
    out->tier = std::string(tier);
    return true;
  }
  out->kind = ReplyKind::kOkEval;
  if (w.size() != 4 || !IsRationalText(w[2]) || !KeyValue(w[3], "lifted", &v) ||
      (v != "0" && v != "1")) {
    return false;
  }
  out->value = std::string(w[2]);
  out->lifted = v == "1";
  return true;
}

double Field(const Reply& reply, const std::string& key) {
  const auto it = reply.fields.find(key);
  if (it == reply.fields.end()) return 0;
  double value = 0;
  return ParseDouble(it->second, &value) ? value : 0;
}

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ------------------------------------------------------------ spans

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      const Span& p = spans[static_cast<size_t>(s.parent)];
      const int64_t begin = std::max(s.start_ns, p.start_ns);
      const int64_t end = std::min(s.end_ns, p.end_ns);
      if (end > begin) {
        children[static_cast<size_t>(s.parent)].emplace_back(begin, end);
      }
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_begin = 0, run_end = 0;
    bool open = false;
    for (const auto& [begin, end] : intervals) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

// ------------------------------------------------------------ results

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    // JSON has no NaN or infinity; a metric that could not be measured is 0.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace gmc_e2e
