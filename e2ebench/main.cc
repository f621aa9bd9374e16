// gmc_e2e — the end-to-end gmc_serve benchmark harness.
//
// One run cuts --seconds into segments, and drives each against a freshly
// launched gmc_serve child process (timing its set-up) over AF_UNIX from
// this one process, with one client on one connection. It checks every
// reply's shape and a seeded sample of answers against an in-process
// GfomcSession, checks the workload's STATS invariants, and prints a metric
// table followed by one JSON result line. With --trace 1 the run also polls
// HEALTH, then replays the same seeded requests in-process through the
// public calls of the layers on the request path, records spans, and
// reports per-layer metrics instead of end-to-end ones.
//
// Usage (e2ebench/run.sh builds everything and passes --server/--work/
// --commit; see README.md):
//   gmc_e2e --server PATH --work DIR --workload NAME --seed N --seconds S
//           --trace 0|1 [--commit SHA]

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "approx/karp_luby.h"
#include "compile/circuit_cache.h"
#include "compile/nnf.h"
#include "core/dichotomy.h"
#include "harness.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "store/circuit_store.h"
#include "store/scrub.h"
#include "util/bigint.h"
#include "util/rational.h"
#include "wmc/wmc.h"

#ifndef GMC_E2E_COMPILER
#define GMC_E2E_COMPILER "unknown"
#endif
#ifndef GMC_E2E_BUILD_TYPE
#define GMC_E2E_BUILD_TYPE "unknown"
#endif

namespace gmc_e2e {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ constants

// hot_exact: pool members primed into the store. 1600 random 4×4 patterns
// give ~1500 distinct circuits, enough that the scrub and warm load
// dominate the server's set-up time.
constexpr int kPoolSize = 1600;
// The pool is hot_exact's fixed corpus, the same on every run: --seed
// drives the traffic over it (member choice and weights), so runs on
// different seeds serve the same structures.
constexpr uint64_t kPoolSeed = 1;
// Every workload is a closed loop of one client against a server with
// GMC_THREADS=kServerThreads, on any machine. More clients or server
// threads made the run measure the scheduler: with nproc of each on a
// shared 4-vCPU host, requests queued behind one another (a multimodal
// latency whose p50 jumped between modes), the sampler's fork-join waited
// on its slowest thread, and run-to-run spreads doubled.
constexpr int kServerThreads = 1;
// The timed window is cut into this many segments of equal length, each
// against a freshly launched server; setup_s is the median of the launches.
// The shared host this was tuned on alternates between a fast and a slow
// state every few seconds (the same requests take 1.6 times as long), so a
// run samples the host, and each server's memory placement, all along its
// length, and averages over them.
constexpr int kSegments = 10;
// Requests each launch answers before it counts as ready.
constexpr int kWarmupRequests = 8;
// Before each segment, the ready server gets this share of the segment's
// length of unmeasured traffic from another request stream.
constexpr double kWarmupShare = 0.1;
// Launch k's warm-up requests come from stream kLaunchStream + k; the
// segments continue stream 0 and their warm-ups stream 1.
constexpr int kLaunchStream = 1000;
// certified_sampled: the server's sample cap, two sampler chunks; every C9
// 3×3 target is above it, so every estimate draws exactly this many
// samples.
constexpr uint64_t kCertifiedMaxSamples = 2048;
// hot_exact: the share of requests whose lineage is constant must stay
// below this.
constexpr double kHotTrivialBound = 0.10;
// Traced runs poll HEALTH this often during every odd segment; the even
// segments are the untraced reference for trace.overhead_frac (alternating
// segments keep a drift in the host's speed out of the comparison).
constexpr int64_t kHealthPeriodNs = 100'000'000;
constexpr int kReplyTimeoutMs = 60'000;

// Replies whose answers are recomputed (a seeded sample). Each estimate is
// recomputed by the sampler, ~30 ms at the cap on one thread.
size_t CheckCap(Workload workload) {
  return workload == Workload::kCertifiedSampled ? 100 : 2000;
}

// Requests the traced replay takes from the window.
size_t ReplayBudget(Workload workload) {
  return workload == Workload::kCertifiedSampled ? 8 : 400;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Pins the calling thread, and so every thread and process it starts
/// afterwards, to the highest-numbered CPU it may run on. The measured
/// traffic is a ping-pong in which the client and the server's threads
/// take turns, so one CPU loses no parallelism, and each hand-off becomes a
/// local context switch instead of a cross-CPU wake-up, whose cost on a
/// virtual machine follows the host's load. The destructor restores the
/// calling thread's CPU set.
class CpuPin {
 public:
  CpuPin() {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpu_ = c;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (cpu_ < 0 || ::sched_setaffinity(0, sizeof(one), &one) != 0) cpu_ = -1;
  }
  ~CpuPin() {
    if (cpu_ >= 0) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  int cpu() const { return cpu_; }  ///< -1 when pinning failed

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

std::string Fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

// ------------------------------------------------------------ run setup

struct Config {
  Workload workload = Workload::kHotExact;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string work = ".bench_build/e2e";
  std::string commit = "unknown";
};

// The server's environment beyond the inherited non-GMC variables.
std::vector<std::string> ServerEnv(Workload workload, int threads) {
  std::vector<std::string> env = {"GMC_THREADS=" + std::to_string(threads)};
  if (workload == Workload::kCertifiedSampled) {
    env.push_back("GMC_MAX_SAMPLES=" + std::to_string(kCertifiedMaxSamples));
  }
  return env;
}

// The options the server's session runs with, for the in-process replay
// and the answer checks.
gmc::GmcOptions ServerOptions(Workload workload, int threads) {
  gmc::GmcOptions options;
  options.num_threads = threads;
  if (workload == Workload::kCertifiedSampled) {
    options.max_samples = kCertifiedMaxSamples;
  }
  return options;
}

gmc::Tid BuildTid(const gmc::Query& query, const Instance& instance) {
  gmc::Tid tid(query.vocab_ptr(), instance.num_left, instance.num_right,
               gmc::Rational(instance.default_num, instance.default_den));
  for (const Assign& a : instance.tuples) {
    const gmc::SymbolId symbol = query.vocab().Find(a.symbol);
    const gmc::Rational p(a.num, a.den);
    switch (query.vocab().kind(symbol)) {
      case gmc::SymbolKind::kUnaryLeft:
        tid.SetUnaryLeft(symbol, a.u, p);
        break;
      case gmc::SymbolKind::kUnaryRight:
        tid.SetUnaryRight(symbol, a.u, p);
        break;
      case gmc::SymbolKind::kBinary:
        tid.SetBinary(symbol, a.u, a.v, p);
        break;
    }
  }
  return tid;
}

// The exact value of a finite double in [0, 1] (an interval endpoint).
gmc::Rational ExactDouble(double x) {
  if (x == 0) return gmc::Rational::Zero();
  int exponent = 0;
  const double fraction = std::frexp(x, &exponent);  // x = f·2^e
  const int64_t mantissa = static_cast<int64_t>(std::ldexp(fraction, 53));
  return gmc::Rational::Dyadic(gmc::BigInt(mantissa),
                               static_cast<uint64_t>(53 - exponent));
}

// ------------------------------------------------------------ the server

// Environment for the child: the inherited one minus every GMC_ variable
// (so the caller's knobs cannot leak into a run), plus `extra`.
std::vector<std::string> ChildEnv(const std::vector<std::string>& extra) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GMC_", 4) != 0) env.emplace_back(*e);
  }
  env.insert(env.end(), extra.begin(), extra.end());
  return env;
}

/// One gmc_serve child process. The destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv,
                const std::vector<std::string>& env, const std::string& log) {
    std::vector<char*> args, envp;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    for (const std::string& e : env) {
      envp.push_back(const_cast<char*>(e.c_str()));
    }
    envp.push_back(nullptr);
    const int log_fd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int null_fd = ::open("/dev/null", O_RDONLY);
      if (null_fd >= 0) ::dup2(null_fd, 0);
      if (log_fd >= 0) {
        ::dup2(log_fd, 1);
        ::dup2(log_fd, 2);
      }
      ::execve(args[0], args.data(), envp.data());
      ::_exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
  }
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Alive() {
    if (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == pid_) pid_ = -1;
    return pid_ > 0;
  }
  /// SIGKILL and reap. A graceful stop would re-save every cached circuit
  /// (an fsync each): seconds of work that no metric covers.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  /// User + system CPU seconds so far, from /proc/<pid>/stat.
  double CpuSeconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const size_t paren = text.rfind(')');
    if (paren == std::string::npos) return 0;
    std::istringstream fields(text.substr(paren + 2));
    std::string field;
    double ticks = 0;
    // After the command name: state is field 3, utime 14, stime 15.
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  /// VmHWM, the peak resident set, in MiB.
  double PeakRssMiB() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection: whole-line sends, buffered line reads.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects (retrying while the server binds) and reads the greeting.
  bool Open(const std::string& path, ServerProcess* server,
            std::string* error) {
    const int64_t deadline = NowNs() + int64_t{kReplyTimeoutMs} * 1'000'000;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      *error = "socket path too long: " + path;
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ >= 0 &&
          ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
              0) {
        break;
      }
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
      if (!server->Alive()) {
        *error = "gmc_serve exited before accepting connections";
        return false;
      }
      if (NowNs() > deadline) {
        *error = "timed out connecting to " + path;
        return false;
      }
      ::usleep(200);
    }
    std::string hello;
    Reply reply;
    if (!ReadLine(&hello, kReplyTimeoutMs) || !ParseReply(hello, &reply) ||
        reply.kind != ReplyKind::kHello) {
      *error = "no HELLO greeting (got '" + hello + "')";
      return false;
    }
    return true;
  }

  bool Send(const std::string& line) {
    const std::string out = line + "\n";
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// The next line; false on EOF, error, or `timeout_ms` without one.
  bool ReadLine(std::string* line, int timeout_ms) {
    while (true) {
      const size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line->assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0 || !Fill()) return false;
    }
  }

 private:
  bool Fill() {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// STATS over `conn`, skipping any straggling replies ahead of it.
bool ReadStats(Connection* conn, Reply* stats) {
  if (!conn->Send("STATS")) return false;
  std::string line;
  while (conn->ReadLine(&line, kReplyTimeoutMs)) {
    if (ParseReply(line, stats) && stats->kind == ReplyKind::kStats) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------ the drive

/// One answered request kept for the answer checks.
struct Outcome {
  int stream = 0;
  uint64_t index = 0;
  Reply reply;
};

/// What the client saw.
struct ClientLog {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t unexpected = 0;  ///< malformed, wrong shape, or any ERR
  uint64_t unanswered = 0;  ///< no reply at all
  uint64_t trivial = 0;  ///< requests on a constant-lineage pool member
  uint64_t estimate_samples = 0;
  std::vector<double> ok_latency_ms;
  std::vector<int64_t> ok_recv_ns;
  std::vector<Outcome> sample;  ///< reservoir for the answer checks
  uint64_t sample_seen = 0;
  std::vector<std::string> notes;
};

/// One stretch of closed-loop traffic against one server: a segment of the
/// timed window, or the unmeasured warm-up before it.
struct Segment {
  int64_t start_ns = 0, end_ns = 0, last_ns = 0;
  bool polling = false;      ///< traced run: the client polls HEALTH
  int stream = 0;            ///< the warm-up sends another request stream
  uint64_t first_index = 0;  ///< the stream index the segment starts at
  size_t reservoir_cap = 0;  ///< replies kept for the answer checks
  ClientLog log;
  Reply stats_before, stats_after;
  double server_cpu_s = 0;
  double harness_cpu_s = 0;
  double peak_rss_mib = 0;

  double Seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
  /// Seconds from the start to the last OK reply (at least the segment:
  /// the client finishes the request in flight).
  double WallSeconds() const {
    return static_cast<double>(std::max(last_ns, end_ns) - start_ns) / 1e9;
  }
  /// Latencies of the OK replies received before the segment closed (the
  /// client's replies arrive in order).
  std::vector<double> Latencies() const {
    const auto closed = std::lower_bound(log.ok_recv_ns.begin(),
                                         log.ok_recv_ns.end(), end_ns) -
                        log.ok_recv_ns.begin();
    return std::vector<double>(log.ok_latency_ms.begin(),
                               log.ok_latency_ms.begin() + closed);
  }
};

// A latency quantile per segment, averaged over the segments: a median over
// time would flip between the host's fast and slow states, while the mean
// follows the share of the run spent in each.
double MeanQuantile(const std::vector<Segment>& segments, double q) {
  std::vector<double> per_segment;
  for (const Segment& seg : segments) {
    per_segment.push_back(Quantile(seg.Latencies(), q));
  }
  return Mean(per_segment);
}

// A STATS counter's change over each segment, summed.
double StatsDelta(const std::vector<Segment>& segments, const char* key) {
  double sum = 0;
  for (const Segment& seg : segments) {
    sum += Field(seg.stats_after, key) - Field(seg.stats_before, key);
  }
  return sum;
}

struct Context {
  Context(Config config, gmc::Query q)
      : cfg(std::move(config)), query(std::move(q)) {}

  Config cfg;
  gmc::Query query;
  std::unique_ptr<HotPool> pool;
  std::vector<char> trivial;  ///< per pool member: constant lineage
  std::string pool_store;     ///< primed store (hot_exact), else empty
  std::string socket;
  std::vector<std::string> server_argv;
  std::vector<std::string> server_env;
};

bool ShapeExpected(Workload workload, const Request& request,
                   const Reply& reply) {
  switch (workload) {
    case Workload::kHotExact:
      return request.approx ? reply.kind == ReplyKind::kOkExact &&
                                  reply.tier == "compiled"
                            : reply.kind == ReplyKind::kOkEval && !reply.lifted;
    case Workload::kCertifiedInterval:
      return reply.kind == ReplyKind::kOkInterval && reply.tier == "interval";
    case Workload::kCertifiedSampled:
      return reply.kind == ReplyKind::kOkEstimate && reply.tier == "sampled" &&
             reply.samples == kCertifiedMaxSamples;
  }
  return false;
}

void Note(ClientLog* log, const std::string& note) {
  if (log->notes.size() < 5) log->notes.push_back(note);
}

// The segments' counters, answer-check samples and notes, together.
ClientLog Merged(const std::vector<Segment>& segments) {
  ClientLog total;
  for (const Segment& seg : segments) {
    const ClientLog& log = seg.log;
    total.sent += log.sent;
    total.ok += log.ok;
    total.unexpected += log.unexpected;
    total.unanswered += log.unanswered;
    total.trivial += log.trivial;
    total.estimate_samples += log.estimate_samples;
    total.sample.insert(total.sample.end(), log.sample.begin(),
                        log.sample.end());
    for (const std::string& n : log.notes) Note(&total, n);
  }
  return total;
}

// Books one reply against its request.
void Account(const Context& ctx, int stream, uint64_t index,
             const Request& request, const std::string& line,
             double latency_ms, int64_t recv_ns, Rng* reservoir_rng,
             size_t reservoir_cap, ClientLog* log) {
  Reply reply;
  if (!ParseReply(line, &reply) || reply.id != request.id) {
    ++log->unexpected;
    Note(log, "unparsable or mismatched reply: " + line.substr(0, 120));
    return;
  }
  if (reply.kind == ReplyKind::kErr) {
    ++log->unexpected;
    Note(log, "unexpected error: " + line.substr(0, 120));
    return;
  }
  if (!ShapeExpected(ctx.cfg.workload, request, reply)) {
    ++log->unexpected;
    Note(log, "unexpected reply shape: " + line.substr(0, 120));
    return;
  }
  ++log->ok;
  log->ok_latency_ms.push_back(latency_ms);
  log->ok_recv_ns.push_back(recv_ns);
  if (reply.kind == ReplyKind::kOkEstimate) {
    log->estimate_samples += reply.samples;
  }
  if (request.pool_member >= 0 &&
      ctx.trivial[static_cast<size_t>(request.pool_member)]) {
    ++log->trivial;
  }
  // Reservoir sampling (algorithm R) of the replies the checks recompute.
  ++log->sample_seen;
  if (log->sample.size() < reservoir_cap) {
    log->sample.push_back(Outcome{stream, index, std::move(reply)});
  } else {
    const uint64_t slot = reservoir_rng->Below(log->sample_seen);
    if (slot < reservoir_cap) {
      log->sample[slot] = Outcome{stream, index, std::move(reply)};
    }
  }
}

// Closed loop: the client sends its next request when the previous reply
// arrived, until the segment closes. In a polling segment it also polls
// HEALTH between its requests.
void RunClient(const Context& ctx, const Segment& seg, Connection* conn,
               ClientLog* log) {
  const int stream = seg.stream;
  Rng reservoir_rng(Mix(Mix(Mix(ctx.cfg.seed, 0x636b),  // "ck"
                            static_cast<uint64_t>(stream)),
                        seg.first_index));
  int64_t next_poll = seg.start_ns;
  std::string line;
  for (uint64_t i = seg.first_index; NowNs() < seg.end_ns; ++i) {
    const int64_t now = NowNs();
    if (seg.polling && now >= next_poll) {
      next_poll = now + kHealthPeriodNs;
      Reply health;
      if (!conn->Send("HEALTH") || !conn->ReadLine(&line, kReplyTimeoutMs) ||
          !ParseReply(line, &health) || health.kind != ReplyKind::kHealth) {
        Note(log, "bad HEALTH reply: " + line.substr(0, 120));
      }
    }
    const Request request =
        MakeRequest(ctx.cfg.workload, ctx.cfg.seed, stream, i, ctx.pool.get());
    const std::string out = request.Line();
    const int64_t t0 = NowNs();
    if (!conn->Send(out)) {
      ++log->unanswered;
      Note(log, "send failed");
      return;
    }
    ++log->sent;
    if (!conn->ReadLine(&line, kReplyTimeoutMs)) {
      ++log->unanswered;
      Note(log, "no reply to " + request.id);
      return;
    }
    const int64_t t1 = NowNs();
    Account(ctx, stream, i, request, line, static_cast<double>(t1 - t0) / 1e6,
            t1, &reservoir_rng, seg.reservoir_cap, log);
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

// Drives `server` over `conn` for `seconds`, from request `first_index` of
// `stream`, keeping up to `reservoir_cap` replies for the answer checks.
Segment DriveSegment(const Context& ctx, double seconds, bool polling,
                     int stream, uint64_t first_index, size_t reservoir_cap,
                     Connection* conn, const ServerProcess& server) {
  Segment seg;
  seg.polling = polling;
  seg.stream = stream;
  seg.first_index = first_index;
  seg.reservoir_cap = reservoir_cap;
  ReadStats(conn, &seg.stats_before);
  const double server_cpu0 = server.CpuSeconds();
  const double harness_cpu0 = ProcessCpuSeconds();
  seg.start_ns = NowNs();
  seg.end_ns = seg.start_ns + static_cast<int64_t>(seconds * 1e9);
  ClientLog log;
  RunClient(ctx, seg, conn, &log);
  seg.log = std::move(log);
  seg.server_cpu_s = server.CpuSeconds() - server_cpu0;
  seg.harness_cpu_s = ProcessCpuSeconds() - harness_cpu0;
  if (!seg.log.ok_recv_ns.empty()) seg.last_ns = seg.log.ok_recv_ns.back();
  ReadStats(conn, &seg.stats_after);
  seg.peak_rss_mib = server.PeakRssMiB();
  return seg;
}

// ------------------------------------------------------------ launches

struct Launch {
  std::unique_ptr<ServerProcess> server;
  double setup_s = 0;
  std::string error;
};

// Launches gmc_serve and waits until it is ready for timed traffic: socket
// bound, store (if any) scrubbed and warm-loaded, and kWarmupRequests
// answered.
Launch LaunchServer(const Context& ctx, int index) {
  Launch launch;
  ::unlink(ctx.socket.c_str());
  const int64_t t0 = NowNs();
  launch.server = std::make_unique<ServerProcess>(
      ctx.server_argv, ChildEnv(ctx.server_env),
      ctx.cfg.work + "/gmc_serve.log");
  Connection conn;
  if (!conn.Open(ctx.socket, launch.server.get(), &launch.error)) {
    return launch;
  }
  std::string line;
  for (int i = 0; i < kWarmupRequests; ++i) {
    const Request request =
        MakeRequest(ctx.cfg.workload, ctx.cfg.seed, kLaunchStream + index,
                    static_cast<uint64_t>(i), ctx.pool.get());
    Reply reply;
    if (!conn.Send(request.Line()) || !conn.ReadLine(&line, kReplyTimeoutMs) ||
        !ParseReply(line, &reply) || !reply.ok()) {
      launch.error = "warm-up request failed: " + line.substr(0, 120);
      return launch;
    }
  }
  launch.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return launch;
}

// Compiles every pool member's GFOMC instance into the pool store
// (write-through) and marks the members whose lineage is constant. Not
// part of any metric. Returns the number of circuits stored.
size_t PrimePool(Context* ctx) {
  gmc::GfomcSession session;
  gmc::GmcOptions options = session.options();
  options.num_threads = Nproc();
  session.Configure(options);
  session.set_store_directory(ctx->pool_store, /*write_through=*/true);
  std::vector<gmc::Tid> tids;
  ctx->trivial.assign(static_cast<size_t>(ctx->pool->size()), 0);
  for (int m = 0; m < ctx->pool->size(); ++m) {
    tids.push_back(BuildTid(ctx->query, ctx->pool->Gfomc(m)));
    const gmc::Lineage lineage = gmc::Ground(ctx->query, tids.back());
    ctx->trivial[static_cast<size_t>(m)] =
        lineage.is_false || lineage.cnf.IsTrue();
  }
  session.EvaluateMany(ctx->query, tids);
  return gmc::store::CircuitStore(ctx->pool_store).ListEntries().size();
}

// ------------------------------------------------------------ answer checks

struct CheckTally {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  uint64_t estimates = 0;
  uint64_t violations = 0;        ///< |estimate − exact| > achieved eps
  double allowed_violations = 0;  ///< δN + 5·sqrt(Nδ(1−δ))
  double delta_sum = 0;
  uint64_t outside_unit = 0;  ///< estimates outside [0, 1]
  std::vector<std::string> notes;
};

// Recomputes the window's sampled replies with in-process sessions and
// checks each against its tier's contract: exact replies bit-identical,
// intervals enclosing the exact rational. Estimates are recomputed by the
// sampler, which is deterministic (its seed is a function of the lineage,
// and results do not depend on thread count or batch shape), and must be
// bit-identical too; each is also held to its achieved eps around the
// exact value, with violations counted against delta.
void CheckAnswers(const Context& ctx, const std::vector<Outcome>& sample,
                  gmc::GfomcSession* reference, CheckTally* tally) {
  gmc::GfomcSession sampler;
  constexpr size_t kChunk = 256;
  for (size_t begin = 0; begin < sample.size(); begin += kChunk) {
    const size_t end = std::min(sample.size(), begin + kChunk);
    std::vector<gmc::Tid> tids;
    Request request;
    for (size_t i = begin; i < end; ++i) {
      request = MakeRequest(ctx.cfg.workload, ctx.cfg.seed, sample[i].stream,
                            sample[i].index, ctx.pool.get());
      tids.push_back(BuildTid(ctx.query, request.instance));
    }
    const std::vector<gmc::GfomcResult> exact =
        reference->EvaluateMany(ctx.query, tids);
    // Every request of the workload carries the same (eps, delta).
    std::vector<gmc::GmcAnswer> estimates;
    if (request.mode == "sample") {
      // Estimates do not depend on the thread count: use every core.
      gmc::GmcOptions options = ServerOptions(ctx.cfg.workload, Nproc());
      options.routing_mode = gmc::RoutingMode::kSample;
      options.epsilon = gmc::Rational::FromString(request.eps).ToDouble();
      options.delta = gmc::Rational::FromString(request.delta).ToDouble();
      sampler.Configure(options);
      if (!sampler.EvaluateAnswers(ctx.query, tids, &estimates).ok()) {
        estimates.clear();
      }
    }
    for (size_t i = begin; i < end; ++i) {
      const Reply& reply = sample[i].reply;
      const gmc::Rational& value = exact[i - begin].probability;
      ++tally->checked;
      bool good = true;
      switch (reply.kind) {
        case ReplyKind::kOkEval:
        case ReplyKind::kOkExact:
          good = value.ToString() == reply.value;
          break;
        case ReplyKind::kOkInterval:
          good = ExactDouble(reply.lo) <= value &&
                 value <= ExactDouble(reply.hi);
          break;
        case ReplyKind::kOkEstimate: {
          ++tally->estimates;
          good = i - begin < estimates.size();
          if (good) {
            const gmc::GmcAnswer& mine = estimates[i - begin];
            good = mine.tier == gmc::AnswerTier::kSampled &&
                   mine.estimate == reply.estimate &&
                   mine.epsilon == reply.eps && mine.delta == reply.delta &&
                   mine.samples == reply.samples;
          }
          tally->delta_sum += reply.delta;
          if (std::fabs(reply.estimate - value.ToDouble()) >
              reply.eps * (1 + 1e-12)) {
            ++tally->violations;
          }
          if (reply.estimate < 0 || reply.estimate > 1) ++tally->outside_unit;
          break;
        }
        default:
          good = false;
      }
      if (!good) {
        ++tally->wrong;
        if (tally->notes.size() < 5) {
          tally->notes.push_back("wrong answer for " + reply.id + ": exact " +
                                 value.ToString());
        }
      }
    }
  }
  if (tally->estimates > 0) {
    const double n = static_cast<double>(tally->estimates);
    const double delta = tally->delta_sum / n;
    tally->allowed_violations =
        delta * n + 5 * std::sqrt(n * delta * (1 - delta));
  }
}

// ------------------------------------------------------------ traced replay

/// In-memory span recorder; written out when the run ends.
class Tracer {
 public:
  Tracer() : origin_(NowNs()) {}
  int Begin(const std::string& name, int parent, const std::string& request,
            int width = 1) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.width = width;
    span.start_ns = NowNs() - origin_;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    spans_[static_cast<size_t>(span)].end_ns = NowNs() - origin_;
  }
  /// Runs `body` inside a span and returns its result.
  template <typename F>
  auto Time(const std::string& name, int parent, const std::string& request,
            F&& body, int width = 1) {
    const int span = Begin(name, parent, request, width);
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      End(span);
    } else {
      auto result = body();
      End(span);
      return result;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t Duration(int span) const {
    const Span& s = spans_[static_cast<size_t>(span)];
    return s.end_ns - s.start_ns;
  }

  /// Per-request durations of every span named `name`, in `unit_ns`.
  std::vector<double> Durations(const std::string& name,
                                double unit_ns) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                      std::max(1, s.width) / unit_ns);
      }
    }
    return out;
  }

  /// One JSON object per line: id, parent, name, request, start/end/self
  /// in ns since the replay began, and width.
  void Write(const std::string& path) const {
    std::ofstream out(path);
    const std::vector<int64_t> self = SelfTimes(spans_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"name\": " << JsonString(s.name)
          << ", \"request\": " << JsonString(s.request)
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"self_ns\": " << self[i] << ", \"width\": " << s.width
          << "}\n";
    }
  }

 private:
  int64_t origin_;
  std::vector<Span> spans_;
};

struct ReplayCounts {
  std::vector<double> vars, clauses, nodes, file_bytes;
  uint64_t dyadic_vectors = 0, fixed64_vectors = 0;
  double sample_1t_ns = 0, sample_nt_ns = 0;
  uint64_t scaling_samples = 0;
};

// certified_sampled's sampler target and cap; the replay times the sampler
// with it on every workload's lineages.
gmc::KarpLubyParams SamplerParams(int threads) {
  gmc::KarpLubyParams params;
  params.epsilon = gmc::Rational::FromString(kCertifiedTarget.eps).ToDouble();
  params.delta = gmc::Rational::FromString(kCertifiedTarget.delta).ToDouble();
  params.max_samples = kCertifiedMaxSamples;
  params.num_threads = threads;
  return params;
}

// `width` copies of `row`, moved onto a 2^-10 grid where a weight is not
// dyadic already, so the dyadic walk can be timed on every workload.
gmc::WeightMatrix DyadicColumns(const std::vector<gmc::Rational>& row,
                                int width) {
  gmc::WeightMatrix weights(width, static_cast<int>(row.size()));
  for (size_t v = 0; v < row.size(); ++v) {
    gmc::Rational p = row[v];
    if (!p.denominator().IsOne() && !p.denominator().IsPowerOfTwo()) {
      p = gmc::Rational(
          std::clamp<int64_t>(std::llround(p.ToDouble() * 1024), 1, 1023),
          1024);
    }
    for (int k = 0; k < width; ++k) weights.Set(k, static_cast<int>(v), p);
  }
  return weights;
}

// Replays `items` (in wire order) through the public calls GfomcSession
// makes on the request path, then times the sampler and store layers, one
// span per call.
void Replay(const Context& ctx, const std::vector<Request>& items, int width,
            Tracer* tracer, ReplayCounts* counts) {
  const int threads = kServerThreads;
  const gmc::GmcOptions base = ServerOptions(ctx.cfg.workload, threads);

  // core: the real session, batches shaped like the server's.
  gmc::GfomcSession session;
  session.Configure(base);
  if (UsesPool(ctx.cfg.workload)) session.WarmCircuitsFrom(ctx.pool_store);
  for (size_t begin = 0; begin < items.size();) {
    const Request& head = items[begin];
    // EVAL and sampled requests coalesce; other EVAL_APPROX run singly.
    size_t end = begin + 1;
    if (!head.approx || head.mode == "sample") {
      while (end < items.size() && end - begin < static_cast<size_t>(width) &&
             items[end].approx == head.approx && items[end].mode == head.mode) {
        ++end;
      }
    }
    std::vector<gmc::Tid> tids;
    for (size_t i = begin; i < end; ++i) {
      tids.push_back(BuildTid(ctx.query, items[i].instance));
    }
    const int k = static_cast<int>(end - begin);
    const int root = tracer->Begin("replay.request", -1, head.id, k);
    gmc::GmcOptions opts = base;
    if (head.approx) {
      gmc::ParseRoutingMode(head.mode.c_str(), &opts.routing_mode);
      opts.epsilon = gmc::Rational::FromString(head.eps).ToDouble();
      opts.delta = gmc::Rational::FromString(head.delta).ToDouble();
    }
    tracer->Time("core.configure", root, head.id,
                 [&] { session.Configure(opts); });
    if (head.approx) {
      std::vector<gmc::GmcAnswer> answers;
      tracer->Time(
          "core.evaluate", root, head.id,
          [&] { return session.EvaluateAnswers(ctx.query, tids, &answers); },
          k);
    } else {
      tracer->Time(
          "core.evaluate", root, head.id,
          [&] { return session.EvaluateMany(ctx.query, tids); }, k);
    }
    tracer->Time("core.configure", root, head.id,
                 [&] { session.Configure(base); });
    tracer->End(root);
    begin = end;
  }

  // lineage, compile, wmc, approx: the layer calls one request makes, in
  // the session's order. The cache has no store, so a structure's first
  // GetShared is a compile and every later one a resident lookup.
  gmc::CircuitCache cache;
  cache.Configure(base);
  const gmc::KarpLubyParams sampler = SamplerParams(threads);
  std::set<uint64_t> compiled;
  std::vector<std::pair<gmc::Cnf, std::shared_ptr<const gmc::NnfCircuit>>>
      circuits;
  // The recursive engine and the sampler cost milliseconds per call: a few
  // requests are enough for their medians.
  int recursive_runs = 0, sampler_runs = 0;
  std::vector<gmc::Lineage> lineages;
  lineages.reserve(items.size());
  const gmc::Lineage* scaling_lineage = nullptr;
  for (const Request& item : items) {
    const gmc::Tid tid = BuildTid(ctx.query, item.instance);
    const int root = tracer->Begin("replay.layers", -1, item.id);
    lineages.push_back(tracer->Time("lineage.ground", root, item.id, [&] {
      return gmc::Ground(ctx.query, tid);
    }));
    const gmc::Lineage& lineage = lineages.back();
    counts->vars.push_back(static_cast<double>(lineage.variables.size()));
    counts->clauses.push_back(static_cast<double>(lineage.cnf.clauses.size()));
    if (lineage.is_false || lineage.cnf.IsTrue() ||
        lineage.cnf.HasEmptyClause()) {
      tracer->End(root);
      continue;
    }
    // Every workload's lineage is under the compile gate.
    if (compiled.insert(lineage.cnf.Hash64()).second) {
      auto circuit = tracer->Time("compile.compile", root, item.id, [&] {
        return cache.GetShared(lineage.cnf);
      });
      counts->nodes.push_back(static_cast<double>(circuit->num_nodes()));
      circuits.emplace_back(lineage.cnf, circuit);
    }
    const std::shared_ptr<const gmc::NnfCircuit> circuit =
        tracer->Time("compile.lookup", root, item.id,
                     [&] { return cache.GetShared(lineage.cnf); });
    const gmc::WeightMatrix one =
        gmc::WeightMatrix::FromRows({lineage.probabilities});
    const gmc::WeightMatrix batch = DyadicColumns(lineage.probabilities, width);
    gmc::DyadicBatchStats widths;
    tracer->Time(
        "compile.walk_dyadic", root, item.id,
        [&] { return circuit->EvaluateBatchDyadic(batch, threads, &widths); },
        width);
    counts->dyadic_vectors += static_cast<uint64_t>(width);
    counts->fixed64_vectors += static_cast<uint64_t>(widths.fixed64_vectors);
    tracer->Time("compile.walk_rational", root, item.id,
                 [&] { return circuit->EvaluateBatch(one, threads); });
    tracer->Time("compile.walk_interval", root, item.id, [&] {
      return circuit->EvaluateBatchInterval(one, threads);
    });
    if (recursive_runs < 3) {
      ++recursive_runs;
      gmc::WmcEngine engine;
      tracer->Time("wmc.recursive", root, item.id,
                   [&] { return engine.Probability(lineage); });
    }
    if (sampler_runs < 8 && lineage.cnf.clauses.size() >= 2) {
      ++sampler_runs;
      const auto plan = tracer->Time("approx.plan_build", root, item.id, [&] {
        return gmc::BuildKarpLubyPlan(lineage.cnf, lineage.probabilities);
      });
      tracer->Time("approx.estimate", root, item.id,
                   [&] { return gmc::KarpLubyEstimate(*plan, sampler); });
      if (scaling_lineage == nullptr) scaling_lineage = &lineage;
    }
    tracer->End(root);
  }

  // Sampler cost per sample and its thread scaling: one plan, a fixed 16
  // chunks of samples, on 1 thread and then on nproc threads.
  if (scaling_lineage != nullptr) {
    const auto plan = gmc::BuildKarpLubyPlan(scaling_lineage->cnf,
                                             scaling_lineage->probabilities);
    gmc::KarpLubyParams params = sampler;
    params.epsilon = 1e-3;  // a target far above the cap: the cap runs
    params.max_samples = 16 * gmc::approx_internal::kSamplesPerChunk;
    params.num_threads = 1;
    const int one = tracer->Begin("approx.sample_1t", -1, "scaling");
    counts->scaling_samples = gmc::KarpLubyEstimate(*plan, params).samples;
    tracer->End(one);
    params.num_threads = Nproc();
    const int many = tracer->Begin("approx.sample_nt", -1, "scaling");
    gmc::KarpLubyEstimate(*plan, params);
    tracer->End(many);
    counts->sample_1t_ns = static_cast<double>(tracer->Duration(one));
    counts->sample_nt_ns = static_cast<double>(tracer->Duration(many));
  }

  // store: per-circuit saves on the work directory's filesystem (fsync per
  // file), then a scrub and a warm load of the workload's store (of the
  // saved circuits where the workload has none).
  const std::string save_dir = ctx.cfg.work + "/replay_store";
  const gmc::store::CircuitStore target(save_dir);
  for (size_t i = 0; i < circuits.size() && i < 40; ++i) {
    std::string error;
    tracer->Time("store.save", -1, "store", [&] {
      return target.Save(*circuits[i].second, circuits[i].first,
                         cache.order(), &error);
    });
  }
  for (const std::string& path : target.ListEntries()) {
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) {
      counts->file_bytes.push_back(static_cast<double>(st.st_size));
    }
  }
  const std::string scrubbed =
      ctx.pool_store.empty() ? save_dir : ctx.pool_store;
  tracer->Time("store.scrub", -1, "store",
               [&] { return gmc::store::ScrubStore(scrubbed); });
  gmc::GfomcSession warm;
  tracer->Time("store.warm", -1, "store",
               [&] { return warm.WarmCircuitsFrom(scrubbed); });
}

// ------------------------------------------------------------ reporting

void PrintTable(const std::vector<Metric>& metrics, const char* title) {
  std::printf("%s\n", title);
  std::printf("  %-28s %18s  %-8s %10s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6g  %-8s %10llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : " ") + p;
  return out;
}

// Per-layer metrics of a traced run: STATS deltas and HEALTH polls of the
// wire drive, and span medians of the replay.
std::vector<Metric> LayerMetrics(const std::vector<Segment>& segments,
                                 uint64_t ok, const Tracer& tracer,
                                 const ReplayCounts& counts) {
  auto d = [&](const char* key) { return StatsDelta(segments, key); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto n = [](double v) { return static_cast<uint64_t>(std::max(0.0, v)); };
  std::vector<Metric> out;
  auto add = [&](const char* name, double value, const char* unit,
                 uint64_t samples) {
    out.push_back({name, value, unit, samples});
  };
  auto median = [&](const char* name, const char* span, double unit_ns,
                    const char* unit) {
    const std::vector<double> v = tracer.Durations(span, unit_ns);
    add(name, Quantile(v, 0.5), unit, v.size());
  };
  const std::vector<double> evaluate = tracer.Durations("core.evaluate", 1e3);
  const double queries = d("queries");
  const double hits = d("circuit_hits"), compiles = d("circuit_compiles");
  const double plan_lookups = d("plan_hits") + d("plan_misses");
  // OK replies per second in the untraced and in the polling segments.
  double replies[2] = {0, 0}, seconds[2] = {0, 0};
  for (const Segment& seg : segments) {
    replies[seg.polling] += static_cast<double>(seg.Latencies().size());
    seconds[seg.polling] += seg.Seconds();
  }
  const double untraced = ratio(replies[0], seconds[0]);
  const double traced = ratio(replies[1], seconds[1]);

  add("serve.self_us",
      MeanQuantile(segments, 0.5) * 1e3 - Quantile(evaluate, 0.5), "us", ok);
  add("core.evaluate_us", Quantile(evaluate, 0.5), "us", evaluate.size());
  median("core.configure_us", "core.configure", 1e3, "us");
  add("core.compiled_frac",
      ratio(d("unsafe_compiled") + d("safe_compiled"), queries), "ratio",
      n(queries));
  add("core.interval_frac", ratio(d("anytime_interval"), queries), "ratio",
      n(queries));
  add("core.sampled_frac", ratio(d("anytime_sampled"), queries), "ratio",
      n(queries));
  median("lineage.ground_us", "lineage.ground", 1e3, "us");
  add("lineage.vars_mean", Mean(counts.vars), "count", counts.vars.size());
  add("lineage.clauses_mean", Mean(counts.clauses), "count",
      counts.clauses.size());
  median("compile.lookup_us", "compile.lookup", 1e3, "us");
  median("compile.compile_ms", "compile.compile", 1e6, "ms");
  add("compile.hit_frac", ratio(hits, hits + compiles), "ratio",
      n(hits + compiles));
  add("compile.nodes_mean", Mean(counts.nodes), "count", counts.nodes.size());
  median("compile.walk_dyadic_us", "compile.walk_dyadic", 1e3, "us");
  median("compile.walk_rational_us", "compile.walk_rational", 1e3, "us");
  add("compile.fixed64_frac",
      ratio(static_cast<double>(counts.fixed64_vectors),
            static_cast<double>(counts.dyadic_vectors)),
      "ratio", counts.dyadic_vectors);
  median("compile.walk_interval_us", "compile.walk_interval", 1e3, "us");
  median("wmc.recursive_ms", "wmc.recursive", 1e6, "ms");
  median("approx.plan_build_ms", "approx.plan_build", 1e6, "ms");
  median("approx.estimate_ms", "approx.estimate", 1e6, "ms");
  add("approx.sample_ns",
      ratio(counts.sample_1t_ns, static_cast<double>(counts.scaling_samples)),
      "ns", counts.scaling_samples);
  add("approx.thread_scaling", ratio(counts.sample_1t_ns, counts.sample_nt_ns),
      "ratio", 2);
  add("approx.plan_hit_frac", ratio(d("plan_hits"), plan_lookups), "ratio",
      n(plan_lookups));
  median("store.scrub_ms", "store.scrub", 1e6, "ms");
  median("store.warm_ms", "store.warm", 1e6, "ms");
  median("store.save_ms", "store.save", 1e6, "ms");
  add("store.bytes_per_circuit", Mean(counts.file_bytes), "bytes",
      counts.file_bytes.size());
  add("trace.overhead_frac", untraced > 0 ? 1 - traced / untraced : 0,
      "ratio", n(replies[0] + replies[1]));
  return out;
}

// Span summary: count, median duration and mean self time per span name.
void PrintSpanSummary(const Tracer& tracer, const std::string& path) {
  const std::vector<int64_t> self = SelfTimes(tracer.spans());
  std::map<std::string, std::pair<std::vector<double>, double>> by_name;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    auto& entry = by_name[s.name];
    entry.first.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    entry.second += static_cast<double>(self[i]) / 1e3;
  }
  std::printf("spans %s (%zu spans)\n", path.c_str(), tracer.spans().size());
  std::printf("  %-24s %8s %14s %14s\n", "span", "count", "p50_us",
              "self_mean_us");
  for (const auto& [name, entry] : by_name) {
    std::printf("  %-24s %8zu %14.2f %14.2f\n", name.c_str(),
                entry.first.size(), Quantile(entry.first, 0.5),
                entry.second / static_cast<double>(entry.first.size()));
  }
}

// ------------------------------------------------------------ the run

int Run(const Config& cfg) {
  Context ctx(cfg, gmc::ParseQueryOrDie(QueryText(cfg.workload)));
  std::error_code ec;
  fs::remove_all(cfg.work, ec);
  fs::create_directories(cfg.work, ec);
  if (ec) {
    std::fprintf(stderr, "gmc_e2e: cannot create %s\n", cfg.work.c_str());
    return 2;
  }
  ctx.socket = cfg.work + "/gmc.sock";
  ctx.server_env = ServerEnv(cfg.workload, kServerThreads);
  ctx.server_argv = {cfg.server, "--socket=" + ctx.socket,
                     std::string("--query=") + QueryText(cfg.workload)};

  // Inputs, and the pool store hot_exact warm-starts from.
  size_t pool_circuits = 0;
  double prime_s = 0;
  if (UsesPool(cfg.workload)) {
    ctx.pool = std::make_unique<HotPool>(kPoolSeed, kPoolSize);
    ctx.pool_store = cfg.work + "/pool_store";
    const int64_t t0 = NowNs();
    pool_circuits = PrimePool(&ctx);
    prime_s = static_cast<double>(NowNs() - t0) / 1e9;
    ctx.server_argv.push_back("--store=" + ctx.pool_store);
  }

  // The timed window: kSegments segments, each on a freshly launched server
  // after an unmeasured warm-up. The launches and the segments run on one
  // CPU.
  auto pin = std::make_unique<CpuPin>();
  const int pinned_cpu = pin->cpu();
  const double segment_s = cfg.seconds / kSegments;
  const size_t reservoir_cap =
      (CheckCap(cfg.workload) + kSegments - 1) / kSegments;
  std::vector<double> setups;
  std::vector<Segment> segments;
  uint64_t next_index = 0, next_warm_index = 0;
  for (int k = 0; k < kSegments; ++k) {
    Launch launch = LaunchServer(ctx, k);
    Connection conn;
    if (!launch.error.empty() ||
        !conn.Open(ctx.socket, launch.server.get(), &launch.error)) {
      std::fprintf(stderr, "gmc_e2e: launch %d: %s\n", k,
                   launch.error.c_str());
      return 1;
    }
    setups.push_back(launch.setup_s);
    next_warm_index += DriveSegment(ctx, segment_s * kWarmupShare, false, 1,
                                    next_warm_index, 0, &conn, *launch.server)
                           .log.sent;
    segments.push_back(DriveSegment(ctx, segment_s, cfg.trace && k % 2 == 1,
                                    0, next_index, reservoir_cap, &conn,
                                    *launch.server));
    next_index += segments.back().log.sent;
  }
  pin.reset();
  const ClientLog total = Merged(segments);
  double window_s = 0, wall_s = 0, server_cpu_s = 0, harness_cpu_s = 0;
  double peak_rss = 0, answered = 0;
  for (const Segment& seg : segments) {
    window_s += seg.Seconds();
    wall_s += seg.WallSeconds();
    server_cpu_s += seg.server_cpu_s;
    harness_cpu_s += seg.harness_cpu_s;
    peak_rss = std::max(peak_rss, seg.peak_rss_mib);
    answered += static_cast<double>(seg.Latencies().size());
  }

  // Answer checks, outside the timing.
  gmc::GfomcSession reference;
  {
    gmc::GmcOptions options = reference.options();
    options.num_threads = Nproc();
    reference.Configure(options);
  }
  if (UsesPool(cfg.workload)) reference.WarmCircuitsFrom(ctx.pool_store);
  CheckTally tally;
  CheckAnswers(ctx, total.sample, &reference, &tally);
  const uint64_t failed = total.unexpected + total.unanswered + tally.wrong;
  std::vector<std::string> failures = total.notes;
  for (const std::string& n : tally.notes) failures.push_back(n);
  if (static_cast<double>(tally.violations) > tally.allowed_violations) {
    failures.push_back("sampled estimates outside their eps: " +
                       std::to_string(tally.violations) + " > allowed " +
                       Fixed(tally.allowed_violations, 1));
  }

  // Workload invariants: the run sent the traffic it claims.
  auto invariant = [&](bool holds, const std::string& what) {
    if (!holds) failures.push_back("invariant broken: " + what);
  };
  auto delta = [&](const char* key) { return StatsDelta(segments, key); };
  invariant(total.ok > 0, "the window answered requests");
  const double trivial_share =
      total.ok > 0 ? static_cast<double>(total.trivial) /
                         static_cast<double>(total.ok)
                   : 0;
  switch (cfg.workload) {
    case Workload::kHotExact:
      invariant(std::all_of(segments.begin(), segments.end(),
                            [](const Segment& seg) {
                              return Field(seg.stats_after,
                                           "circuit_compiles") == 0;
                            }),
                "hot_exact compiles nothing after the warm start");
      invariant(trivial_share < kHotTrivialBound,
                "constant-lineage share " + Fixed(trivial_share, 3) + " < " +
                    Fixed(kHotTrivialBound, 2));
      break;
    case Workload::kCertifiedInterval:
      invariant(delta("anytime_interval") == static_cast<double>(total.sent),
                "every request answered at the interval tier");
      break;
    case Workload::kCertifiedSampled:
      invariant(delta("anytime_sampled") == static_cast<double>(total.sent),
                "every request answered by the sampler");
      break;
  }

  // The run stamp.
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              WorkloadName(cfg.workload),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::printf("# stamp nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s "
              "commit=%s\n",
              Nproc(), CpuModel().c_str(), GMC_E2E_COMPILER,
              GMC_E2E_BUILD_TYPE, cfg.commit.c_str());
  std::printf("# stamp clients=1 connections=1 pinned_cpu=%d\n", pinned_cpu);
  std::vector<std::string> flags(ctx.server_argv.begin() + 1,
                                 ctx.server_argv.end());
  flags[1] = "--query='" + std::string(QueryText(cfg.workload)) + "'";
  std::printf("# stamp server_flags=\"%s\" server_env=\"%s\"\n",
              Join(flags).c_str(), Join(ctx.server_env).c_str());
  if (UsesPool(cfg.workload)) {
    std::printf("# stamp store_fs=%s store_flush=\"fsync per file, then "
                "atomic rename\" store_start=primed pool_members=%d "
                "pool_circuits=%zu prime_s=%.2f trivial_share=%.4f\n",
                FilesystemOf(cfg.work).c_str(), kPoolSize, pool_circuits,
                prime_s, trivial_share);
  }
  std::printf("# stamp segments=%d harness_cpu_cores=%.3f "
              "server_cpu_cores=%.3f\n",
              kSegments, harness_cpu_s / window_s, server_cpu_s / window_s);
  std::printf("# checks checked=%llu wrong=%llu estimates=%llu "
              "eps_violations=%llu allowed=%.1f estimates_outside_unit=%llu\n",
              static_cast<unsigned long long>(tally.checked),
              static_cast<unsigned long long>(tally.wrong),
              static_cast<unsigned long long>(tally.estimates),
              static_cast<unsigned long long>(tally.violations),
              tally.allowed_violations,
              static_cast<unsigned long long>(tally.outside_unit));

  // Metrics: the contract's set (end-to-end, or per-layer when traced),
  // then a few more printed in the table only.
  std::vector<Metric> metrics, extra;
  if (cfg.trace) {
    const double batches = delta("batches");
    const double batch_mean =
        batches > 0 ? delta("batched_requests") / batches : 1;
    // The first requests the window sent.
    std::vector<Request> items;
    const uint64_t replayed =
        std::min<uint64_t>(ReplayBudget(cfg.workload), total.sent);
    for (uint64_t i = 0; i < replayed; ++i) {
      items.push_back(MakeRequest(cfg.workload, cfg.seed, 0, i, ctx.pool.get()));
    }
    Tracer tracer;
    ReplayCounts counts;
    Replay(ctx, items, std::max(1, static_cast<int>(std::lround(batch_mean))),
           &tracer, &counts);
    const std::string spans_dir =
        (fs::path(cfg.work).parent_path() / "spans").string();
    fs::create_directories(spans_dir, ec);
    const std::string spans_path = spans_dir + "/" +
                                   WorkloadName(cfg.workload) + "-seed" +
                                   std::to_string(cfg.seed) + ".jsonl";
    tracer.Write(spans_path);
    PrintSpanSummary(tracer, spans_path);
    metrics = LayerMetrics(segments, total.ok, tracer, counts);
  } else {
    metrics.push_back({"setup_s", Quantile(setups, 0.5), "s", setups.size()});
    metrics.push_back(
        {"throughput_rps", answered / window_s, "1/s", total.ok});
    metrics.push_back(
        {"latency_p50_ms", MeanQuantile(segments, 0.5), "ms", total.ok});
    metrics.push_back({"cpu_ms_per_ok",
                       total.ok > 0 ? server_cpu_s * 1e3 /
                                          static_cast<double>(total.ok)
                                    : 0,
                       "ms", total.ok});
    metrics.push_back({"peak_rss_mb", peak_rss, "MiB", segments.size()});
    // Not gated: tails spread more from run to run than the medians.
    extra.push_back(
        {"latency_p90_ms", MeanQuantile(segments, 0.9), "ms", total.ok});
    extra.push_back(
        {"latency_p99_ms", MeanQuantile(segments, 0.99), "ms", total.ok});
  }
  extra.push_back(
      {"failed_frac",
       total.sent > 0 ? static_cast<double>(total.sent - total.ok +
                                            tally.wrong) /
                            static_cast<double>(total.sent)
                      : 0,
       "ratio", total.sent});
  if (cfg.workload == Workload::kCertifiedSampled) {
    extra.push_back({"samples_per_s",
                     static_cast<double>(total.estimate_samples) / wall_s,
                     "1/s", total.ok});
  }

  PrintTable(metrics, cfg.trace ? "per-layer metrics" : "end-to-end metrics");
  PrintTable(extra, "table-only metrics");
  const bool correct = failures.empty() && failed == 0;
  for (const std::string& f : failures) std::printf("! %s\n", f.c_str());
  std::printf("%s\n",
              ResultJson(correct, total.sent, failed, metrics).c_str());
  std::fflush(stdout);
  fs::remove_all(cfg.work, ec);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gmc_e2e --server PATH --workload "
               "hot_exact|certified_interval|certified_sampled --seed N "
               "--seconds S --trace 0|1 [--work DIR] [--commit SHA]\n");
  return 2;
}

}  // namespace
}  // namespace gmc_e2e

int main(int argc, char** argv) {
  using namespace gmc_e2e;
  Config cfg;
  bool have_workload = false;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &cfg.workload)) return Usage();
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--server") {
      cfg.server = value;
    } else if (flag == "--work") {
      cfg.work = value;
    } else if (flag == "--commit") {
      cfg.commit = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || cfg.server.empty() || !(cfg.seconds > 0)) {
    return Usage();
  }
  ::signal(SIGPIPE, SIG_IGN);
  // The in-process sessions (priming, checks, replay) are configured
  // explicitly; the caller's GMC_ knobs must not reach them either.
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GMC_", 4) == 0) {
      knobs.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const std::string& knob : knobs) ::unsetenv(knob.c_str());
  cfg.work += "/" + std::string(WorkloadName(cfg.workload)) + "-" +
              std::to_string(::getpid());
  return Run(cfg);
}
