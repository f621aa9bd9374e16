#include "serve/serve.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "store/scrub.h"
#include "util/fault.h"

namespace gmc {
namespace serve {

namespace {

// A hostile client must not be able to buffer unbounded bytes server-side;
// one line (one request) comfortably fits well below this.
constexpr size_t kMaxLineBytes = 1 << 20;

// The C-locale whitespace set: space, \t, \n, \v, \f and \r.
bool IsWireSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// A run of 1 to max_digits ASCII digits, nothing else. With max_digits
// <= 19 the value fits in 64 bits, so there is no overflow path.
bool ParseDigits(std::string_view text, size_t max_digits, uint64_t* out) {
  if (text.empty() || text.size() > max_digits) return false;
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

namespace internal {

std::vector<std::string_view> SplitWords(std::string_view line) {
  std::vector<std::string_view> words;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsWireSpace(line[i])) ++i;
    const size_t begin = i;
    while (i < line.size() && !IsWireSpace(line[i])) ++i;
    if (i > begin) words.push_back(line.substr(begin, i - begin));
  }
  return words;
}

bool ParseProbability(std::string_view token, Rational* out) {
  const size_t slash = token.find('/');
  uint64_t num = 0;
  uint64_t den = 1;
  if (!ParseDigits(token.substr(0, slash), 18, &num) ||
      (slash != std::string_view::npos &&
       !ParseDigits(token.substr(slash + 1), 18, &den)) ||
      den == 0 || num > den) {
    return false;
  }
  if (num == 0) return (*out = Rational::Zero(), true);
  const uint64_t g = std::gcd(num, den);
  *out = Rational::FromReducedParts(BigInt(static_cast<int64_t>(num / g)),
                                    BigInt(static_cast<int64_t>(den / g)));
  return true;
}

bool ParseSmallInt(std::string_view token, int* out) {
  uint64_t value = 0;
  if (!ParseDigits(token, 9, &value)) return false;
  *out = static_cast<int>(value);
  return true;
}

std::optional<Tid> ParseTidTail(const Query& query,
                                const std::vector<std::string_view>& words,
                                size_t first, int max_domain,
                                std::string* detail) {
  if (words.size() < first + 3) {
    return (*detail = "want: <num_left> <num_right> <default_p> ...",
            std::nullopt);
  }
  int num_left = 0;
  int num_right = 0;
  if (!ParseSmallInt(words[first], &num_left) ||
      !ParseSmallInt(words[first + 1], &num_right) ||
      num_left > max_domain || num_right > max_domain) {
    return (*detail = "domain sides must be integers in [0, " +
                      std::to_string(max_domain) + "]",
            std::nullopt);
  }
  Rational default_p = Rational::One();
  if (!ParseProbability(words[first + 2], &default_p)) {
    return (*detail = "default probability must be a rational in [0, 1]",
            std::nullopt);
  }

  Tid tid(query.vocab_ptr(), num_left, num_right, std::move(default_p));
  tid.Reserve(words.size() - (first + 3));
  const Vocabulary& vocab = query.vocab();
  for (size_t w = first + 3; w < words.size(); ++w) {
    // Tuple assignment: Name(u)=p or Name(u,v)=p.
    const std::string_view token = words[w];
    const size_t lparen = token.find('(');
    const size_t rparen = token.find(')', lparen == std::string_view::npos
                                              ? std::string_view::npos
                                              : lparen + 1);
    if (lparen == std::string_view::npos ||
        rparen == std::string_view::npos || rparen + 1 >= token.size() ||
        token[rparen + 1] != '=') {
      return (*detail = "bad tuple assignment '" + std::string(token) + "'",
              std::nullopt);
    }
    const std::string_view args = token.substr(lparen + 1, rparen - lparen - 1);
    Rational p = Rational::Zero();
    if (!ParseProbability(token.substr(rparen + 2), &p)) {
      return (*detail = "bad probability in '" + std::string(token) + "'",
              std::nullopt);
    }
    // The vocabulary's few names are scanned in place: no std::string per
    // tuple, as a Vocabulary::Find would take.
    const std::string_view name = token.substr(0, lparen);
    SymbolId symbol = vocab.size() - 1;
    while (symbol >= 0 && vocab.name(symbol) != name) --symbol;
    if (symbol < 0) {
      *detail = "unknown symbol '";
      detail->append(name).append("'");
      return std::nullopt;
    }
    const size_t comma = args.find(',');
    int u = 0;
    int v = 0;
    const bool unary = comma == std::string_view::npos;
    if (unary ? !ParseSmallInt(args, &u)
              : (!ParseSmallInt(args.substr(0, comma), &u) ||
                 !ParseSmallInt(args.substr(comma + 1), &v))) {
      return (*detail = "bad constants in '" + std::string(token) + "'",
              std::nullopt);
    }
    // Range-check BEFORE touching the Tid: its setters abort on bad keys,
    // and untrusted bytes must never reach an abort.
    switch (vocab.kind(symbol)) {
      case SymbolKind::kUnaryLeft:
        if (!unary || u >= num_left) {
          return (*detail = "'" + std::string(token) +
                            "': want one left constant < " +
                            std::to_string(num_left),
                  std::nullopt);
        }
        tid.SetUnaryLeft(symbol, u, p);
        break;
      case SymbolKind::kUnaryRight:
        if (!unary || u >= num_right) {
          return (*detail = "'" + std::string(token) +
                            "': want one right constant < " +
                            std::to_string(num_right),
                  std::nullopt);
        }
        tid.SetUnaryRight(symbol, u, p);
        break;
      case SymbolKind::kBinary:
        if (unary || u >= num_left || v >= num_right) {
          return (*detail = "'" + std::string(token) +
                            "': want constants < " +
                            std::to_string(num_left) + "," +
                            std::to_string(num_right),
                  std::nullopt);
        }
        tid.SetBinary(symbol, u, v, p);
        break;
    }
  }
  return tid;
}

}  // namespace internal

GmcServer::GmcServer(Query query, GmcServerOptions options)
    : query_(std::move(query)),
      query_safe_(IsSafe(query_)),
      options_(std::move(options)) {}

GmcServer::~GmcServer() { Stop(); }

bool GmcServer::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "server already running";
    return false;
  }

  // Every send below passes MSG_NOSIGNAL, but that only covers send(2):
  // any other descriptor write to a vanished peer (now or in future code)
  // would still raise SIGPIPE and kill the process. A server must treat a
  // disconnecting client as an error code, never as a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) {
      *error = "socket path empty or too long for sockaddr_un";
    }
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("socket: ") + std::strerror(errno);
    }
    return false;
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, std::max(1, options_.listen_backlog)) != 0) {
    if (error != nullptr) {
      *error = "bind/listen(" + options_.socket_path +
               "): " + std::strerror(errno);
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  GmcOptions session_options = session_.options();
  session_options.num_threads = options_.num_threads;
  if (!options_.store_directory.empty()) {
    // Recovery BEFORE attach/warm: quarantine torn or corrupt entries and
    // sweep dead writers' temp files, so the warm start below only ever
    // sees a healthy directory (and its counters stay organic).
    const store::ScrubReport scrub =
        store::ScrubStore(options_.store_directory);
    stats_.scrubbed += scrub.scanned;
    stats_.quarantined += scrub.quarantined;
    stats_.scrub_orphans += scrub.orphan_tmps_removed;
    session_options.store_directory = options_.store_directory;
    session_options.store_write_through = true;
  }
  session_.Configure(session_options);
  compile_budget_ = session_options.compile_budget;
  if (!options_.store_directory.empty() && options_.warm_start) {
    session_.WarmCircuitsFrom(options_.store_directory);
  }

  // The governor's capacity defaults to the admission limit: "the queue
  // is half full" is the natural meaning of signal 0.5 here.
  OverloadOptions overload = options_.overload;
  if (overload.capacity == 0) {
    overload.capacity = options_.max_pending > 0 ? options_.max_pending : 1;
  }
  governor_.Configure(overload);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&GmcServer::AcceptLoop, this);
  batch_thread_ = std::thread(&GmcServer::BatchLoop, this);
  return true;
}

void GmcServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // Under queue_mu_: HandleLine's admission check and BatchLoop's wait
    // read it there, so neither can miss it.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_.store(true, std::memory_order_release);
  }

  // Unblock accept() (on Linux a SHUT_RDWR on the listening socket wakes
  // it with EINVAL), then drain the batch loop, then the per-connection
  // readers. The batch loop waits out a round running on a reader, drains
  // what is queued, and goes before the readers because answering a
  // queued request needs its connection open. Readers that outlive it
  // enqueue nothing: HandleLine sheds under queue_mu_ once stopping_ is
  // set, so no request can land after the loop's last empty swap.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_cv_.notify_all();
  if (batch_thread_.joinable()) batch_thread_.join();  // drains the queue
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (const Reader& reader : readers_) {
      std::lock_guard<std::mutex> write_lock(reader.conn->write_mu);
      if (reader.conn->fd >= 0) ::shutdown(reader.conn->fd, SHUT_RDWR);
    }
    for (Reader& reader : readers_) {
      if (reader.thread.joinable()) reader.thread.join();
    }
    readers_.clear();
  }

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());

  // Belt-and-braces flush: write-through already persisted every compile,
  // but a final SaveCircuitsTo also covers circuits that entered the
  // caches by other roads (e.g. a WarmFrom from a different directory).
  if (!options_.store_directory.empty()) {
    session_.SaveCircuitsTo(options_.store_directory);
  }
}

void GmcServer::ReapFinishedReaders() {
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (size_t i = 0; i < readers_.size();) {
    if (!readers_[i].conn->done.load(std::memory_order_acquire)) {
      ++i;
      continue;
    }
    // done is set as ReaderLoop's last act, so this join returns almost
    // immediately — it only waits out the thread's epilogue.
    if (readers_[i].thread.joinable()) readers_[i].thread.join();
    readers_[i] = std::move(readers_.back());
    readers_.pop_back();
  }
}

void GmcServer::AcceptLoop() {
  // Transient-failure backoff: EMFILE/ENFILE (fd exhaustion — very much a
  // condition a loaded server hits and must outlive), ECONNABORTED (the
  // peer gave up while queued), EAGAIN, ENOMEM/ENOBUFS. The old loop
  // exited on ANY of these, silently killing accept forever while the
  // rest of the server looked healthy. Now: bounded exponential backoff
  // and retry; the only exit is shutdown.
  uint64_t backoff_ms = 1;
  constexpr uint64_t kMaxBackoffMs = 100;
  auto backoff = [&] {
    ++stats_.accept_retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, kMaxBackoffMs);
  };
  while (!stopping_.load(std::memory_order_acquire)) {
    // Reap between accepts: connection churn must not grow readers_
    // without bound while the server runs (Stop used to be the only
    // cleanup point).
    ReapFinishedReaders();
    // Fault point: a transient accept failure. Fired BEFORE the real
    // accept so an injected failure never consumes (and drops) an actual
    // client connection — it aliases ECONNABORTED exactly.
    if (fault::ShouldFail(fault::Point::kServeAccept)) {
      backoff();
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      // Transient or unknown: either way, dying here would be strictly
      // worse than retrying (the listening socket itself only goes bad at
      // shutdown, which the check above catches — including after Stop's
      // SHUT_RDWR makes accept fail with EINVAL).
      backoff();
      continue;
    }
    backoff_ms = 1;  // a successful accept resets the backoff ladder
    const size_t active =
        active_connections_.load(std::memory_order_relaxed);
    if (options_.max_connections > 0 &&
        active >= options_.max_connections) {
      // Greeting-then-close: the one line this client gets is a typed
      // BUSY with a backoff hint, never a silent RST or an unbounded
      // reader thread.
      ++stats_.busy_rejected;
      const std::string busy =
          "ERR - BUSY retry_after_ms=" +
          std::to_string(governor_.retry_after_ms()) +
          " server at connection limit (" +
          std::to_string(options_.max_connections) + ")\n";
      (void)!::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    ++stats_.connections;
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> write_lock(conn->write_mu);
      const std::string hello = "HELLO gmc_serve 1\n";
      (void)!::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL);
    }
    std::lock_guard<std::mutex> lock(threads_mu_);
    Reader reader;
    reader.conn = conn;
    reader.thread = std::thread(&GmcServer::ReaderLoop, this, conn);
    readers_.push_back(std::move(reader));
  }
}

void GmcServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  // Bytes of `buffer` already searched for '\n': each received byte is
  // scanned once, however many recvs a long line takes to arrive.
  size_t scanned = 0;
  char chunk[4096];
  bool close_connection = false;
  // Set by a QUIT line: BYE is then the connection's last line.
  bool quit = false;
  // A rejected input stream (over-long line, NUL byte) gets ONE typed
  // error before the close: the framing itself is untrustworthy from that
  // byte on, so nothing after it is parsed.
  auto reject_input = [&](const std::string& detail) {
    ++stats_.oversize_lines;
    SendLine(conn, "ERR - INVALID " + detail);
    close_connection = true;
  };
  while (!close_connection) {
    // Block in poll, never in a bare recv: read_idle_ms bounds how long
    // an abandoned client may hold this thread. Stop()'s shutdown() makes
    // the descriptor readable (EOF), so the poll wakes for it too.
    if (options_.read_idle_ms > 0) {
      pollfd pfd{};
      pfd.fd = conn->fd;
      pfd.events = POLLIN;
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(options_.read_idle_ms));
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) {  // idle past the bound
        ++stats_.idle_disconnects;
        break;
      }
      if (ready < 0) break;
    }
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or Stop()'s shutdown
    if (std::memchr(chunk, '\0', static_cast<size_t>(n)) != nullptr) {
      reject_input("NUL byte in input");
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    // Each complete line is handled as a view into `buffer`; the consumed
    // prefix is erased once, after the last view is gone. A CRLF line's
    // '\r' needs no strip: the tokenizer treats it as whitespace.
    size_t line_start = 0;
    bool claim = false;
    while (!close_connection) {
      const size_t pos = buffer.find('\n', scanned);
      if (pos == std::string::npos) {
        scanned = buffer.size();
        break;
      }
      scanned = pos + 1;
      const std::string_view line(buffer.data() + line_start,
                                  pos - line_start);
      line_start = pos + 1;
      if (line.size() > kMaxLineBytes) {
        reject_input("line exceeds " + std::to_string(kMaxLineBytes) +
                     " bytes");
        break;
      }
      claim |= HandleLine(conn, line, &quit);
      close_connection = quit;
    }
    buffer.erase(0, line_start);
    scanned -= line_start;
    // An unterminated partial line past the cap is hostile too — reject
    // it now instead of buffering toward an unbounded allocation.
    if (!close_connection && buffer.size() > kMaxLineBytes) {
      reject_input("line exceeds " + std::to_string(kMaxLineBytes) +
                   " bytes");
    }
    // Only after every line of this recv is admitted, so a pipelined
    // burst stays one round. What was admitted while a round ran is that
    // round's to drain.
    if (claim) RunRoundIfIdle();
  }
  // Answer everything this connection admitted before the BYE and the
  // close: the round that writes the last reply notifies (RunBatch).
  {
    std::unique_lock<std::mutex> write_lock(conn->write_mu);
    conn->closing.store(true);
    conn->drained.wait(write_lock, [&] { return conn->inflight.load() == 0; });
  }
  if (quit) SendLine(conn, "BYE");
  // The reader is the only closer; writers take write_mu and check fd, so
  // the descriptor can never be reused under a concurrent send.
  {
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    if (conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  // Last act: mark reapable. The release pairs with ReapFinishedReaders'
  // acquire, so the reaper joins a thread that is provably past its fd
  // teardown.
  conn->done.store(true, std::memory_order_release);
}

void GmcServer::SendLine(const std::shared_ptr<Connection>& conn,
                         const std::string& text) {
  std::lock_guard<std::mutex> write_lock(conn->write_mu);
  if (conn->fd < 0) return;  // client already gone
  // Fault point: the peer vanished mid-send. The reply is simply lost —
  // identical to a real dead socket — and the caller's counters still
  // tick, exactly as they would for an undetected half-open peer.
  if (fault::ShouldFail(fault::Point::kSocketWrite)) return;
  const std::string out = text + "\n";
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(conn->fd, out.data() + off, out.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full: give the peer write_timeout_ms to drain, then
      // treat it as dead and drop the remainder — one stalled client must
      // never wedge a round for everyone else.
      pollfd pfd{};
      pfd.fd = conn->fd;
      pfd.events = POLLOUT;
      const int timeout = options_.write_timeout_ms == 0
                              ? -1
                              : static_cast<int>(options_.write_timeout_ms);
      const int ready = ::poll(&pfd, 1, timeout);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return;  // timed out or failed: peer is dead to us
      continue;
    }
    return;  // hard send error: peer gone
  }
}

bool GmcServer::HandleLine(const std::shared_ptr<Connection>& conn,
                           std::string_view line, bool* quit) {
  const std::vector<std::string_view> words = internal::SplitWords(line);
  if (words.empty()) return false;

  auto reply = [&](const std::string& text) { SendLine(conn, text); };

  if (words[0] == "QUIT") {
    *quit = true;  // ReaderLoop answers BYE after the connection's OKs
    return false;
  }
  if (words[0] == "STATS") {
    reply(StatsLine());
    return false;
  }
  if (words[0] == "HEALTH") {
    ++stats_.health_requests;
    reply(HealthLine());
    return false;
  }
  const bool approx = words[0] == "EVAL_APPROX";
  if (words[0] != "EVAL" && !approx) {
    ++stats_.parse_errors;
    reply("ERR - PARSE unknown command '" + std::string(words[0]) + "'");
    return false;
  }

  const std::string id(words.size() > 1 ? words[1] : "-");
  auto parse_error = [&](const std::string& detail) {
    ++stats_.parse_errors;
    reply("ERR " + id + " PARSE " + detail);
  };

  PendingEval eval{id, Tid(query_.vocab_ptr(), 0, 0), conn};
  size_t first = 2;  // index of <num_left> in `words`
  // Optional end-to-end deadline, directly after <id> on both verbs.
  if (words.size() > first && words[first].starts_with("deadline=")) {
    int deadline_ms = 0;
    if (!internal::ParseSmallInt(words[first].substr(9), &deadline_ms)) {
      parse_error("deadline must be a non-negative integer (milliseconds)");
      return false;
    }
    eval.deadline_ms = static_cast<uint64_t>(deadline_ms);
    ++first;
  }
  if (approx) {
    eval.approx = true;
    if (words.size() < first + 6) {
      parse_error(
          "want: EVAL_APPROX <id> [deadline=<ms>] <mode> <eps> <delta> "
          "<num_left> <num_right> <default_p> ...");
      return false;
    }
    if (!ParseRoutingMode(std::string(words[first]).c_str(), &eval.mode)) {
      parse_error("mode must be auto, exact, interval, or sample");
      return false;
    }
    // eps and delta ride the same non-aborting rational parser as the
    // probabilities, then must land strictly inside (0, 1).
    Rational eps = Rational::Zero();
    Rational delta = Rational::Zero();
    if (!internal::ParseProbability(words[first + 1], &eps) ||
        !internal::ParseProbability(words[first + 2], &delta) ||
        eps.IsZero() || delta.IsZero() || eps.IsOne() || delta.IsOne()) {
      parse_error("eps and delta must be rationals strictly in (0, 1)");
      return false;
    }
    eval.epsilon = eps.ToDouble();
    eval.delta = delta.ToDouble();
    first += 3;
  } else if (words.size() < first + 3) {
    parse_error(
        "want: EVAL <id> [deadline=<ms>] <num_left> <num_right> "
        "<default_p> ...");
    return false;
  }

  std::string detail;
  std::optional<Tid> tid = internal::ParseTidTail(query_, words, first,
                                                  options_.max_domain, &detail);
  if (!tid.has_value()) {
    parse_error(detail);
    return false;
  }
  eval.tid = std::move(*tid);

  // Admission control: bounded queue, shed (typed, immediate, with a
  // pressure-scaled backoff hint) past the limit. The check and the push
  // are one critical section, so the bound holds exactly under concurrent
  // readers. Every SHED reply carries retry_after_ms — a shed client
  // knows WHEN a retry is worth attempting, not just that it lost.
  auto shed = [&](const std::string& detail) {
    ++stats_.shed;
    reply("ERR " + id + " SHED retry_after_ms=" +
          std::to_string(governor_.retry_after_ms()) + " " + detail);
  };
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      shed("shutting down");
      return false;
    }
    if (pending_.size() >= options_.max_pending) {
      governor_.RecordQueueDepth(pending_.size());
      shed("queue full (limit " + std::to_string(options_.max_pending) +
           ")");
      return false;
    }
    // Cross-client fairness: one connection pipelining requests may hold
    // at most max_inflight_per_connection queue+work slots; past that ITS
    // traffic sheds while other clients' still flows.
    if (options_.max_inflight_per_connection > 0 &&
        conn->inflight.load(std::memory_order_relaxed) >=
            options_.max_inflight_per_connection) {
      shed("per-connection limit (" +
           std::to_string(options_.max_inflight_per_connection) + ")");
      return false;
    }
    ++stats_.requests;
    if (approx) {
      ++stats_.approx_requests;
    }
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    eval.enqueued = std::chrono::steady_clock::now();
    pending_.push_back(std::move(eval));
    governor_.RecordQueueDepth(pending_.size());
    // No notify: the running round's owner drains this, or the reader
    // claims the round once its recv's lines are admitted.
    return !round_running_;
  }
}

void GmcServer::RunRoundIfIdle() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (round_running_ || pending_.empty()) return;
  round_running_ = true;
  std::vector<PendingEval> batch;
  batch.swap(pending_);
  lock.unlock();
  RunBatch(std::move(batch));
  lock.lock();
  // Depth sample at round end: pressure decays promptly once the queue
  // drains instead of waiting for the next admission to refresh it.
  governor_.RecordQueueDepth(pending_.size());
  if (!pending_.empty()) {
    // Requests arrived during the round: BatchLoop drains them, and this
    // thread goes back to its socket.
    handed_off_ = true;
  } else {
    round_running_ = false;
    // Stop()'s drain waits for the round to end; otherwise nobody waits.
    if (!stopping_.load(std::memory_order_acquire)) return;
  }
  lock.unlock();
  queue_cv_.notify_one();
}

void GmcServer::BatchLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  while (true) {
    queue_cv_.wait(lock, [&] {
      return handed_off_ ||
             (stopping_.load(std::memory_order_acquire) && !round_running_);
    });
    // A hand-off passes the running round here; at Stop() the round is
    // taken once no reader runs one.
    round_running_ = true;
    handed_off_ = false;
    while (!pending_.empty()) {
      std::vector<PendingEval> batch;
      batch.swap(pending_);
      lock.unlock();
      RunBatch(std::move(batch));
      lock.lock();
      governor_.RecordQueueDepth(pending_.size());
    }
    round_running_ = false;
    if (stopping_.load(std::memory_order_acquire)) return;
  }
}

namespace internal {

std::string FormatDouble(double value) {
  // 17 significant digits in %g form: 24 characters at most, as in
  // "-2.2250738585072014e-308".
  char text[32];
  const std::to_chars_result end = std::to_chars(
      text, text + sizeof(text), value, std::chars_format::general, 17);
  return std::string(text, end.ptr);
}

}  // namespace internal

namespace {

// The EVAL reply shape. lifted=1 means the query is safe: the lifted
// tier's PTIME guarantee covers every instance of a safe query, whichever
// exact route (plan or circuit) served this one.
std::string FormatEval(const std::string& id, const GmcAnswer& answer,
                       bool safe) {
  return "OK " + id + " " + answer.exact.ToString() +
         " lifted=" + (safe ? "1" : "0");
}

// The EVAL_APPROX reply shape, by answering tier.
std::string FormatApprox(const std::string& id, const GmcAnswer& answer) {
  switch (answer.tier) {
    case AnswerTier::kCertifiedInterval:
      return "OK " + id + " INTERVAL " +
             internal::FormatDouble(answer.interval.lo) + " " +
             internal::FormatDouble(answer.interval.hi) + " tier=interval";
    case AnswerTier::kSampled:
      return "OK " + id + " ESTIMATE " +
             internal::FormatDouble(answer.estimate) +
             " eps=" + internal::FormatDouble(answer.epsilon) +
             " delta=" + internal::FormatDouble(answer.delta) +
             " samples=" + std::to_string(answer.samples) + " tier=sampled";
    default:
      return "OK " + id + " EXACT " + answer.exact.ToString() +
             " tier=" + AnswerTierName(answer.tier);
  }
}

}  // namespace

void GmcServer::RunBatch(std::vector<PendingEval> batch) {
  ++stats_.batches;
  stats_.batched_requests += batch.size();
  stats_.max_batch.RaiseTo(batch.size());

  // Feed the governor: each request's time-in-queue updates the wait EWMA,
  // and the whole batch counts as in-flight work until the batch ends.
  // Both signals feed the SAME pressure level the admission path consults,
  // so a slow evaluator raises pressure even when the queue looks short.
  const auto now = std::chrono::steady_clock::now();
  for (const PendingEval& eval : batch) {
    const double waited_ms =
        std::chrono::duration<double, std::milli>(now - eval.enqueued)
            .count();
    governor_.RecordQueueWait(waited_ms);
  }
  governor_.BeginWork(batch.size());
  const auto work_started = std::chrono::steady_clock::now();

  // Resolve each request once to its route. EVAL is the legacy exact
  // contract: kExact with an unlimited compile budget. EVAL_APPROX takes
  // the session's configured budget and its own mode — downshifted under
  // pressure when it is auto (brownout: exact → interval → sample). An
  // EXPLICIT mode is a contract and passes through untouched — the server
  // may shed it, never silently weaken it; DegradeForPressure enforces
  // exactly that.
  const Pressure level = governor_.level();
  for (PendingEval& eval : batch) {
    if (!eval.approx) {
      eval.mode = RoutingMode::kExact;
      eval.budget = CompileBudget{};
      continue;
    }
    const RoutingMode effective = DegradeForPressure(eval.mode, level);
    if (effective != eval.mode) {
      ++stats_.degraded;
    }
    eval.mode = effective;
    eval.budget = compile_budget_;
  }

  // One grouping pass: requests with the same route share ONE session
  // call, so every tier coalesces — same-structure instances in a group
  // cost one batched circuit pass (a K-column WeightMatrix instead of K
  // walks), and a group's sampled instances count as one sampler batch.
  // Statuses are per instance, so an over-budget request fails alone. A
  // deadline'd request is a group of one: one deadline must bound ONE
  // request, never a whole round.
  auto same_route = [](const PendingEval& a, const PendingEval& b) {
    return a.deadline_ms == 0 && b.deadline_ms == 0 && a.mode == b.mode &&
           a.budget == b.budget && a.epsilon == b.epsilon &&
           a.delta == b.delta;
  };
  std::vector<char> grouped(batch.size(), 0);
  for (size_t g = 0; g < batch.size(); ++g) {
    if (grouped[g]) continue;
    std::vector<size_t> members = {g};
    for (size_t h = g + 1; h < batch.size(); ++h) {
      if (!grouped[h] && same_route(batch[g], batch[h])) {
        members.push_back(h);
        grouped[h] = 1;
      }
    }
    GmcOptions request;
    request.routing_mode = batch[g].mode;
    request.compile_budget = batch[g].budget;
    request.epsilon = batch[g].epsilon;
    request.delta = batch[g].delta;
    request.deadline_ms = batch[g].deadline_ms;
    std::vector<Tid> tids;
    tids.reserve(members.size());
    for (const size_t i : members) tids.push_back(std::move(batch[i].tid));
    std::vector<GmcAnswer> answers;
    const std::vector<GmcStatus> statuses =
        session_.EvaluateAnswers(query_, tids, request, &answers);

    uint64_t approx_members = 0;
    for (size_t m = 0; m < members.size(); ++m) {
      const PendingEval& eval = batch[members[m]];
      approx_members += eval.approx ? 1 : 0;
      const GmcStatus& status = statuses[m];
      std::string text;
      if (!status.ok()) {
        const char* kind = "INVALID";
        if (status.code == GmcStatusCode::kBudgetExhausted) kind = "BUDGET";
        if (status.code == GmcStatusCode::kDeadlineExceeded) {
          kind = "TIMEOUT";
          ++stats_.timeouts;
        }
        text = "ERR " + eval.id + " " + kind + " " + status.message;
      } else if (eval.approx) {
        text = FormatApprox(eval.id, answers[m]);
      } else {
        text = FormatEval(eval.id, answers[m], query_safe_);
      }
      SendLine(eval.conn, text);
      ++(status.ok() ? stats_.responses : stats_.eval_errors);
      // Sequentially consistent with the closing reader's store and load
      // (ReaderLoop): the last reply either sees `closing` and notifies,
      // or the reader sees inflight at 0 and never waits.
      Connection& conn = *eval.conn;
      if (conn.inflight.fetch_sub(1) == 1 && conn.closing.load()) {
        std::lock_guard<std::mutex> write_lock(conn.write_mu);
        conn.drained.notify_all();
      }
    }
    if (approx_members > 0) {
      ++stats_.approx_batches;
      stats_.max_approx_batch.RaiseTo(approx_members);
    }
  }

  // Feed the governor the batch's per-request evaluation cost: under a
  // RED-tier downshift the sampler drains the queue fast enough that the
  // depth and wait signals collapse; without this feed the level would
  // flap back to GREEN and the expensive tier would return (the work term
  // in serve/overload.h).
  const double batch_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - work_started)
                              .count();
  governor_.RecordWorkCost(batch_ms / static_cast<double>(batch.size()));

  governor_.EndWork(batch.size());
  // The caller samples the queue depth under the lock it takes next.
}

GmcServer::StatsSnapshot GmcServer::snapshot() const {
  StatsSnapshot snap;
  snap.server = stats_;
  snap.session = session_.stats();
  for (int p = 0; p < static_cast<int>(fault::Point::kNumPoints); ++p) {
    snap.faults_injected +=
        fault::InjectedCount(static_cast<fault::Point>(p));
  }
  return snap;
}

std::string GmcServer::StatsSnapshot::ToLine() const {
  std::ostringstream out;
  out << "STATS connections=" << server.connections
      << " requests=" << server.requests
      << " approx_requests=" << server.approx_requests
      << " responses=" << server.responses << " shed=" << server.shed
      << " parse_errors=" << server.parse_errors
      << " eval_errors=" << server.eval_errors
      << " batches=" << server.batches
      << " batched_requests=" << server.batched_requests
      << " max_batch=" << server.max_batch
      << " timeouts=" << server.timeouts
      << " idle_disconnects=" << server.idle_disconnects
      << " oversize_lines=" << server.oversize_lines
      << " accept_retries=" << server.accept_retries
      << " busy_rejected=" << server.busy_rejected
      << " degraded=" << server.degraded
      << " health_requests=" << server.health_requests
      << " scrubbed=" << server.scrubbed
      << " quarantined=" << server.quarantined
      << " scrub_orphans=" << server.scrub_orphans
      << " approx_batches=" << server.approx_batches
      << " max_approx_batch=" << server.max_approx_batch
      << " queries=" << session.queries
      << " safe_lifted=" << session.safe_lifted
      << " safe_compiled=" << session.safe_compiled
      << " unsafe_compiled=" << session.unsafe_compiled
      << " anytime_interval=" << session.anytime_interval
      << " anytime_sampled=" << session.anytime_sampled
      << " budget_exhausted=" << session.budget_exhausted
      << " invalid_requests=" << session.invalid_requests
      << " circuit_compiles=" << session.cache.compiles
      << " circuit_hits=" << session.cache.hits
      << " store_hits=" << session.cache.store_hits
      << " store_misses=" << session.cache.store_misses
      << " store_rejected=" << session.cache.store_rejected
      << " store_quarantined=" << session.cache.store_quarantined
      << " deadline_exceeded=" << session.deadline_exceeded
      << " evictions=" << session.cache.evictions
      << " resident_bytes=" << session.cache.resident_bytes
      << " sampler_batches=" << session.sampler_batches
      << " template_hits=" << session.template_hits
      << " template_misses=" << session.template_misses
      << " faults_injected=" << faults_injected;
  return out.str();
}

std::string GmcServer::StatsLine() const { return snapshot().ToLine(); }

std::string GmcServer::HealthLine() {
  // One machine-parseable line a load balancer or operator can poll
  // cheaply: no mutex on the hot counters, one short queue_mu_ hold for
  // the depth (the only non-atomic input).
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = pending_.size();
  }
  std::ostringstream out;
  out << "HEALTH pressure=" << PressureName(governor_.level())
      << " queue=" << depth << " inflight=" << governor_.inflight()
      << " connections="
      << active_connections_.load(std::memory_order_relaxed)
      << " wait_ewma_ms=" << std::setprecision(4)
      << governor_.wait_ewma_ms()
      << " store=" << (options_.store_directory.empty() ? "none" : "attached")
      << " scrubbed=" << stats_.scrubbed << " quarantined="
      << stats_.quarantined + session_.stats().cache.store_quarantined;
  return out.str();
}

}  // namespace serve
}  // namespace gmc
