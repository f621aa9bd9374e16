// gmc_serve's engine: a long-lived serving tier over GfomcSession.
//
// One GmcServer owns one query and one GfomcSession and answers tuple-
// probability evaluations over a Unix-domain stream socket. The design
// goals, in order:
//
//   1. Compile once, serve forever: the session's CircuitCache persists
//      across requests, and with a store directory attached the server
//      warm-starts from disk (WarmCircuitsFrom) and write-throughs every
//      fresh compile — a restarted or replicated server re-serves in
//      milliseconds what first cost a compilation.
//   2. One hop for a lone request, coalescing under concurrent load:
//      requests land in a bounded queue, and one round at a time takes the
//      WHOLE queue and answers it in one grouping pass — requests with the
//      same route (mode, compile budget, eps, delta) share ONE
//      GfomcSession::EvaluateAnswers call, on every tier — so K concurrent
//      requests against the same lineage structure cost one circuit pass
//      over a K-column WeightMatrix instead of K, with answers
//      byte-identical to serial single-request serving. A lone client's
//      request is parsed, evaluated and answered on its reader thread
//      (flat combining, Hendler, Incze, Shavit and Tzafrir, SPAA 2010; see
//      the thread model below).
//   3. Shed, don't stall: past the admission limit a request is refused
//      immediately with a typed SHED error carrying a retry_after_ms
//      backoff hint — the client can retry or fail over; the queue never
//      grows without bound.
//   4. Degrade by tier, not by dropping: a LoadGovernor (serve/overload.h)
//      folds queue depth, queue-wait EWMA, and in-flight work into a
//      hysteresis-banded pressure level (GREEN/YELLOW/RED). Auto-routed
//      EVAL_APPROX requests downshift exact → interval → sample as
//      pressure rises; explicit-mode requests are never silently
//      downgraded (the tier= field in OK replies keeps degradation
//      observable). Per-connection in-flight caps keep one aggressive
//      client from starving the rest.
//   5. Recover, don't limp: with a store attached, Start() runs a scrub
//      pass (store/scrub.h) that quarantines torn/corrupt entries and
//      removes dead writers' temp files before warm-starting, and the
//      session's caches self-heal on every read-path rejection.
//
// Wire protocol (UTF-8 lines, '\n'-terminated, over AF_UNIX SOCK_STREAM):
//
//   server → client on connect:
//     HELLO gmc_serve 1
//   client → server:
//     EVAL <id> [deadline=<ms>] <num_left> <num_right> <default_p>
//          [<tuple>=<p> ...]
//         one evaluation: a TID over a num_left × num_right bipartite
//         domain, unassigned tuples at <default_p>; tuples are
//         R(u), T(v), or S(u,v) with symbol names from the server's
//         query, probabilities are non-negative rationals "a/b" or "a"
//         in [0, 1], each part at most 18 decimal digits. Tokens are
//         separated by ASCII whitespace. <id> is an opaque token echoed
//         in the response.
//         The optional deadline token bounds the request end to end; a
//         request that cannot finish in time answers ERR TIMEOUT instead
//         of stalling the connection (a deadline'd request is never
//         coalesced with others).
//     EVAL_APPROX <id> [deadline=<ms>] <mode> <eps> <delta>
//                 <num_left> <num_right> <default_p> [<tuple>=<p> ...]
//         the checked, three-way-routed evaluation (see
//         docs/ANYTIME.md); EVAL is its mode=exact, unlimited-budget
//         case. <mode> is auto, exact,
//         interval, or sample; <eps> and <delta> are rationals strictly
//         inside (0, 1) with the (ε, δ) semantics of the sampled tier.
//         The TID tail is identical to EVAL's.
//     STATS        one-line server + session counter dump
//     HEALTH       one-line liveness probe, no evaluation cost:
//                    HEALTH pressure=<green|yellow|red> queue=<n>
//                           inflight=<n> connections=<n>
//                           wait_ewma_ms=<x> store=<attached|none>
//                           scrubbed=<n> quarantined=<n>
//                  supervisors poll this instead of paying for an EVAL.
//                  Neither STATS nor HEALTH waits for an evaluation in
//                  flight: both read lock-free counters.
//     QUIT         server answers every request the connection already
//                  sent, then BYE, and closes the connection (so does
//                  EOF, without the BYE)
//   server → client:
//     OK <id> <probability> lifted=<0|1>                      (EVAL)
//         lifted=1 iff the query is safe (PTIME on every instance).
//     OK <id> EXACT <probability> tier=<t>                    (EVAL_APPROX)
//         t ∈ {lifted, compiled}; <probability> is the exact
//         rational, bit-identical to what EVAL would answer.
//     OK <id> INTERVAL <lo> <hi> tier=interval                (EVAL_APPROX)
//         a guaranteed enclosure: lo <= Pr <= hi.
//     OK <id> ESTIMATE <p> eps=<e> delta=<d> samples=<n> tier=sampled
//         |p − Pr| <= e with probability >= 1 − d; e is the certificate
//         actually achieved (it exceeds the requested eps when the
//         sample cap bound — the anytime contract).
//     ERR <id> SHED retry_after_ms=<n> <detail>
//                                admission control refused the request;
//                                <n> is the backoff hint (scaled by the
//                                pressure level) after which a retry is
//                                worth attempting
//     ERR - BUSY retry_after_ms=<n> <detail>
//                                sent as the GREETING (instead of HELLO)
//                                when the server is at max_connections;
//                                the connection is then closed
//     ERR <id> PARSE <detail>    malformed request (nothing evaluated)
//     ERR <id> INVALID <detail>  EVAL_APPROX inputs failed validation,
//                                or the input line itself was rejected
//                                (over-long line, embedded NUL byte)
//     ERR <id> BUDGET <detail>   mode=exact refused an over-budget
//                                instance (no anytime fallback)
//     ERR <id> TIMEOUT <detail>  the request's deadline=<ms> fired before
//                                an answer was produced (nothing is
//                                memoized; retrying without a deadline
//                                may succeed)
//
// Every malformed input yields an ERR line, never a crash or an abort —
// the socket is a process boundary and its bytes are untrusted. A line
// that exceeds the length cap or carries a NUL byte gets one typed
// ERR - INVALID reply and then the connection is closed: the framing
// itself is no longer trustworthy, so no further bytes are parsed.
//
// Thread model: one accept thread, one reader thread per connection, one
// batch loop, and at most one round running at a time. A reader admits
// every complete line of one recv, then, if no round is running, claims
// the round and runs it on its own thread. When that round ends, the
// reader releases it if the queue is empty, or hands it to the batch loop
// (one notify) if requests arrived meanwhile; the batch loop drains the
// queue until it is empty. The batch loop wakes for a hand-off or Stop()
// only. Every claim, release and hand-off happens under the queue mutex,
// so a queued request always has a round that will answer it. Responses
// are written under a per-connection mutex, so OK lines from any round and
// ERR lines from the reader interleave as whole lines. A reader closes its
// connection (QUIT, EOF, idle timeout, rejected input) only once every
// request it admitted is answered. Start()/Stop() bracket the lifetime;
// Stop() waits out a running round, drains the queue on the batch loop,
// then closes the readers, flushes the write-through store, and joins
// every thread (also run by the destructor).

#ifndef GMC_SERVE_SERVE_H_
#define GMC_SERVE_SERVE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <chrono>

#include "core/dichotomy.h"
#include "logic/query.h"
#include "prob/tid.h"
#include "serve/overload.h"
#include "util/rational.h"
#include "util/relaxed_counter.h"

namespace gmc {
namespace serve {

struct GmcServerOptions {
  /// Filesystem path of the listening socket (unlinked and rebound on
  /// Start, unlinked again on Stop). Must fit sockaddr_un (~100 bytes).
  std::string socket_path;
  /// Admission limit: EVALs arriving while this many are already queued
  /// are shed with a typed error instead of enqueued.
  size_t max_pending = 64;
  /// Largest accepted per-request domain side — a line of text must not
  /// be able to demand an arbitrarily large grounding.
  int max_domain = 256;
  /// Worker bound for the session's batch passes (GmcOptions::num_threads
  /// semantics; 0 = process default).
  int num_threads = 0;
  /// Optional circuit store: attached read-through + write-through on
  /// Start, warm-started from (if warm_start) and flushed to on Stop.
  std::string store_directory;
  bool warm_start = true;
  /// Per-connection read idle timeout in milliseconds (0 = never): a
  /// connection that sends no bytes for this long is closed, so an
  /// abandoned client cannot hold a reader thread forever. Poll-based —
  /// the reader blocks in poll(2), never in a bare recv.
  uint64_t read_idle_ms = 0;
  /// Per-reply write timeout in milliseconds (0 = block forever): a peer
  /// that stops draining its socket gets this long before the remainder
  /// of the reply is dropped — exactly the dead-peer behaviour — so one
  /// stalled client can never wedge a round for everyone else.
  uint64_t write_timeout_ms = 5000;
  /// listen(2) backlog for the accepting socket (the --backlog flag).
  int listen_backlog = 64;
  /// Connection cap (0 = unlimited): a client accepted past it receives a
  /// typed "ERR - BUSY retry_after_ms=<n> ..." greeting instead of HELLO
  /// and is closed — reader threads stay bounded no matter how many
  /// clients pile on. The GMC_MAX_CONNECTIONS env default and
  /// --max-connections flag plumb through tools/gmc_serve.
  size_t max_connections = 0;
  /// Cross-client fairness cap (0 = unlimited): one connection may have
  /// at most this many admitted-but-unanswered requests; past it, its
  /// requests shed with retry_after_ms while other clients' traffic still
  /// flows — one pipelining client cannot fill the whole queue.
  uint64_t max_inflight_per_connection = 0;
  /// Brownout governor knobs (serve/overload.h). A zero capacity is
  /// filled from max_pending at Start.
  OverloadOptions overload;
};

class GmcServer {
 public:
  /// Serving-layer counters (the session's evaluation counters live in
  /// session_stats()), updated in place by the serving threads; stats()
  /// copies them without a lock. max_batch is the largest single coalesced
  /// round — >1 proves concurrent requests shared one batch pass.
  struct Stats {
    RelaxedCounter connections;
    RelaxedCounter requests;   ///< well-formed EVALs admitted to the queue
    RelaxedCounter approx_requests;  ///< the EVAL_APPROX share of `requests`
    RelaxedCounter responses;  ///< OK lines written
    RelaxedCounter shed;       ///< EVALs refused by admission control
    RelaxedCounter parse_errors;
    RelaxedCounter eval_errors;  ///< ERR INVALID + ERR BUDGET lines written
    RelaxedCounter batches;  ///< rounds executed, inline or on the batch loop
    RelaxedCounter batched_requests;  ///< EVALs those rounds served
    RelaxedCounter max_batch;
    RelaxedCounter timeouts;          ///< ERR TIMEOUT lines written
    RelaxedCounter idle_disconnects;  ///< connections closed by read_idle_ms
    RelaxedCounter oversize_lines;    ///< lines rejected (length cap / NUL)
    RelaxedCounter accept_retries;    ///< transient accept failures retried
    RelaxedCounter busy_rejected;     ///< connections refused at the cap
    RelaxedCounter degraded;  ///< auto requests downshifted by pressure
    RelaxedCounter health_requests;  ///< HEALTH lines answered
    RelaxedCounter scrubbed;       ///< store entries the startup scrub scanned
    RelaxedCounter quarantined;    ///< entries the startup scrub quarantined
    RelaxedCounter scrub_orphans;  ///< dead-writer temp files it removed
    /// EVAL_APPROX coalescing, every tier: groups holding EVAL_APPROX
    /// requests (one EvaluateAnswers call each), and the most such requests
    /// one group held — >1 proves concurrent requests shared a call.
    RelaxedCounter approx_batches;
    RelaxedCounter max_approx_batch;
  };

  /// The whole serving stack's counters: the serving layer's, the
  /// session's (evaluation, tier, cache, store, template), and the
  /// process-wide fault tally. Each field is an independent relaxed read,
  /// so the snapshot is not a transaction: counters bumped together may be
  /// seen one ahead of the other. Taking it holds no lock, so STATS never
  /// waits behind an evaluation. serve_test pins the docs/SERVING.md key
  /// table to ToLine().
  struct StatsSnapshot {
    Stats server;
    GfomcSession::Stats session;
    /// Fault-injection crossings that fired process-wide (all points
    /// summed; zero unless GMC_FAULT is active) — lets an operator see at
    /// a glance whether observed errors are injected or organic.
    uint64_t faults_injected = 0;
    /// The STATS wire line: "STATS" then one "key=value" per counter,
    /// single space separated — the one list of wire names and their
    /// order.
    std::string ToLine() const;
  };
  StatsSnapshot snapshot() const;

  GmcServer(Query query, GmcServerOptions options);
  ~GmcServer();  // runs Stop()

  GmcServer(const GmcServer&) = delete;
  GmcServer& operator=(const GmcServer&) = delete;

  /// Binds, listens, warm-starts, and spawns the serving threads. False
  /// with *error on socket failure (nothing left running).
  bool Start(std::string* error);

  /// Graceful shutdown: stops accepting, answers every queued request,
  /// unblocks readers, flushes the store, joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& socket_path() const { return options_.socket_path; }

  Stats stats() const { return stats_; }
  GfomcSession::Stats session_stats() const { return session_.stats(); }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    /// Admitted-but-unanswered requests from this connection (the
    /// max_inflight_per_connection fairness cap); incremented under the
    /// queue lock at admission, decremented as each reply is written.
    std::atomic<uint64_t> inflight{0};
    /// The closing reader waits on `drained` (with write_mu) until
    /// inflight reaches 0; `closing` tells the round that answers the last
    /// request to notify it, so no other reply pays for a notify.
    std::atomic<bool> closing{false};
    std::condition_variable drained;
    /// Set by ReaderLoop on exit — the reap signal: AcceptLoop joins the
    /// reader thread and drops the connection entry between accepts, so
    /// neither vector grows with connection churn.
    std::atomic<bool> done{false};
  };
  /// One reader thread and the connection it serves, reaped together.
  struct Reader {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };
  struct PendingEval {
    std::string id;
    Tid tid;
    std::shared_ptr<Connection> conn;
    // EVAL_APPROX extras; `approx` false means the legacy exact EVAL verb.
    // RunBatch resolves `mode` to the effective route (EVAL: kExact) and
    // fills `budget` (EVAL: unlimited; EVAL_APPROX: the session's).
    bool approx = false;
    RoutingMode mode = RoutingMode::kAuto;
    double epsilon = 0.05;
    double delta = 0.01;
    // End-to-end deadline for this one request (0 = none); see the
    // deadline=<ms> wire token. A deadline'd request is a group of one,
    // never coalesced with others.
    uint64_t deadline_ms = 0;
    CompileBudget budget{};
    // Admission time: the governor folds (drain − enqueued) into its
    // queue-wait EWMA, the signal that catches cheap-queue-expensive-work
    // overload a depth limit alone misses.
    std::chrono::steady_clock::time_point enqueued{};
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  // Drains the queue for a hand-off, and once more at Stop().
  void BatchLoop();
  // The reader's claim: runs the queue as one round on the calling thread
  // when no round is running, then releases the round or hands it to
  // BatchLoop.
  void RunRoundIfIdle();
  // Joins reader threads whose connection is done and drops their entries
  // (threads_mu_ must NOT be held). Called between accepts and in Stop.
  void ReapFinishedReaders();
  // `line` is a view into the reader's buffer, valid for this call only.
  // Admits an EVAL to the queue without running it; *quit is set by QUIT.
  // True when it admitted a request while no round was running: the
  // reader must then claim the round (RunRoundIfIdle).
  bool HandleLine(const std::shared_ptr<Connection>& conn,
                  std::string_view line, bool* quit);
  void RunBatch(std::vector<PendingEval> batch);
  // The one reply writer: whole-line send under the connection's write
  // mutex, bounded by options_.write_timeout_ms, instrumented with the
  // socket.write fault point.
  void SendLine(const std::shared_ptr<Connection>& conn,
                const std::string& text);
  std::string StatsLine() const;
  std::string HealthLine();

  Query query_;
  // Whether query_ is safe: the lifted= flag of every EVAL reply.
  const bool query_safe_;
  GmcServerOptions options_;
  GfomcSession session_;
  // The session's compile budget, which EVAL_APPROX requests take. Start
  // configures the session, and nothing reconfigures it while it serves.
  CompileBudget compile_budget_;
  LoadGovernor governor_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;

  std::mutex queue_mu_;
  // Wakes BatchLoop for a hand-off or Stop(), never for an admission.
  std::condition_variable queue_cv_;
  std::vector<PendingEval> pending_;
  // Some thread runs a round: a reader inline, or BatchLoop.
  bool round_running_ = false;
  // The running round passed to BatchLoop, which drains the queue.
  bool handed_off_ = false;

  std::mutex threads_mu_;
  std::thread accept_thread_;
  std::thread batch_thread_;
  std::vector<Reader> readers_;
  // Live (accepted, not yet reaped) connections — the max_connections
  // check and the HEALTH line read this instead of walking readers_.
  std::atomic<size_t> active_connections_{0};

  Stats stats_;
};

namespace internal {
/// The request line's words: views into `line`, split on the C-locale
/// whitespace set (space, \t, \n, \v, \f, \r). Bytes >= 0x80 are word
/// bytes.
std::vector<std::string_view> SplitWords(std::string_view line);
/// The wire's probability token, "a" or "a/b": each part 1 to 18 ASCII
/// digits, b nonzero, a <= b. Both parts are parsed in 64-bit integers
/// (10^18 < 2^63, so there is no overflow path) and reduced by their gcd,
/// so the result is the canonical Rational of the value ("4/8" gives 1/2).
/// False, with *out untouched, on anything else.
bool ParseProbability(std::string_view token, Rational* out);
/// Digit-only small non-negative integer ("0".."999999999"): no sign, no
/// whitespace, no suffix, at most nine digits, so no overflow path exists.
/// Parses the wire's domain sizes, constant ids and deadlines, and
/// gmc_serve's numeric flags.
bool ParseSmallInt(std::string_view token, int* out);
/// The shared TID tail of EVAL and EVAL_APPROX:
/// words[first..] = <num_left> <num_right> <default_p> [<tuple>=<p> ...],
/// with symbol names from `query` and domain sides at most max_domain.
/// nullopt with *detail set on malformed input (nothing is evaluated).
std::optional<Tid> ParseTidTail(const Query& query,
                                const std::vector<std::string_view>& words,
                                size_t first, int max_domain,
                                std::string* detail);
/// A reply's double: 17 significant digits in printf's %g form, which
/// round-trip every double but are not always the shortest decimal that
/// does (0.1 prints as 0.10000000000000001). The wire carries doubles for
/// the approximate tiers; exact tiers stay rational.
std::string FormatDouble(double value);
}  // namespace internal

}  // namespace serve
}  // namespace gmc

#endif  // GMC_SERVE_SERVE_H_
