// End-to-end tests of the serving tier: a real GmcServer on a real Unix
// socket, talked to through the wire protocol (see serve.h). Pins
// (a) exact probabilities — socket answers are bit-identical to an
// in-process GfomcSession on the same TID; (b) coalescing — concurrent
// requests share one batched EvaluateMany round (max_batch > 1);
// (c) admission control — past max_pending, requests are shed with a
// typed error, never queued or stalled; (d) hostile input — malformed
// lines yield ERR and leave the connection serviceable (the parser
// fronts aborting APIs, so "no crash" is a real property); (e) store
// warm-starts — a restarted server re-serves from disk without
// recompiling; (f) the wire parse — a golden script pins every reply
// byte, and the tokenizer and number parsers are held to the
// istringstream / Rational::FromString parser they replaced.

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dichotomy.h"
#include "fault_guard.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "serve/serve.h"
#include "store/circuit_store.h"
#include "store/scrub.h"
#include "wmc/brute_force.h"

namespace gmc {
namespace serve {
namespace {

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

std::string TestSocketPath(const std::string& name) {
  return "/tmp/gmc_serve_test_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

// A blocking line-oriented client; the HELLO banner is consumed by
// Connect so tests start at a clean request/response boundary. Reads are
// bounded by SO_RCVTIMEO so a server bug fails the test instead of
// stalling it into the ctest timeout.
class LineClient {
 public:
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    return ReadLine() == "HELLO gmc_serve 1";
  }

  bool SendLine(const std::string& line) { return SendRaw(line + "\n"); }

  // Exactly these bytes, with no terminator added.
  bool SendRaw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // The next '\n'-terminated line, or "" on EOF/timeout.
  std::string ReadLine() {
    size_t pos;
    while ((pos = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer_.substr(0, pos);
    buffer_.erase(0, pos + 1);
    return line;
  }

  std::string Roundtrip(const std::string& line) {
    if (!SendLine(line)) return "";
    return ReadLine();
  }

  // Half-close: the server reads EOF, and replies still arrive.
  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

  // Whether a reply byte is already here, without waiting for one.
  bool HasInput() const {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    return !buffer_.empty() || ::poll(&pfd, 1, 0) > 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

// Scratch store directory per test, removed with its .gmcc contents.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/gmc_serve_store_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    store_dir_ = tmpl;
  }
  void TearDown() override {
    for (const std::string& path :
         store::CircuitStore(store_dir_).ListEntries()) {
      ::unlink(path.c_str());
    }
    // The startup scrub or self-healing reads may have quarantined files.
    const std::string qdir = store_dir_ + "/" + store::kQuarantineDirName;
    for (const std::string& path : store::CircuitStore(qdir).ListEntries()) {
      ::unlink(path.c_str());
      ::unlink((path + ".reason").c_str());
    }
    ::rmdir(qdir.c_str());
    ::rmdir(store_dir_.c_str());
  }

  std::string store_dir_;
};

TEST_F(ServeTest, ExactProbabilitiesOverTheWire) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("exact");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // The same two TIDs, evaluated in-process — the ground truth the wire
  // answers must match to the bit (ToString is canonical).
  Query query = H1();
  GfomcSession reference;
  Tid uniform(query.vocab_ptr(), 2, 2, Rational::Half());
  Tid skewed(query.vocab_ptr(), 2, 2, Rational::Half());
  skewed.SetUnaryLeft(query.vocab().Find("R"), 0, Rational(1, 4));
  skewed.SetBinary(query.vocab().Find("S"), 0, 1, Rational(3, 8));
  skewed.SetUnaryRight(query.vocab().Find("T"), 1, Rational::Zero());
  const std::string want_uniform =
      reference.Evaluate(query, uniform).probability.ToString();
  const std::string want_skewed =
      reference.Evaluate(query, skewed).probability.ToString();

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  EXPECT_EQ(client.Roundtrip("EVAL q1 2 2 1/2"),
            "OK q1 " + want_uniform + " lifted=0");
  EXPECT_EQ(client.Roundtrip("EVAL q2 2 2 1/2 R(0)=1/4 S(0,1)=3/8 T(1)=0"),
            "OK q2 " + want_skewed + " lifted=0");
  // Same structure, same weights: the second answer came from the cache,
  // but the bytes on the wire are identical.
  EXPECT_EQ(client.Roundtrip("EVAL q3 2 2 1/2"),
            "OK q3 " + want_uniform + " lifted=0");
  EXPECT_EQ(client.Roundtrip("QUIT"), "BYE");

  server.Stop();
  const GmcServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.parse_errors, 0u);
}

TEST_F(ServeTest, ConcurrentRequestsCoalesceIntoBatches) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("coalesce");
  options.max_pending = 256;
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Warm the cache so batch rounds are fast and the queue actually backs
  // up behind an in-flight round.
  {
    LineClient warm;
    ASSERT_TRUE(warm.Connect(server.socket_path()));
    ASSERT_NE(warm.Roundtrip("EVAL warm 3 3 1/2"), "");
  }

  // Blast concurrent rounds until one coalesced batch served >1 request.
  // Each client varies its default probability so the requests are
  // genuinely distinct work, not byte-identical lines. A lone request runs
  // at once on the reader that admitted it, so requests coalesce when they
  // arrive while a round runs: a sampled request (about 1.1e5 draws) holds
  // one on its reader while the clients below connect and send.
  constexpr int kClients = 12;
  for (int round = 0; round < 20 && server.stats().max_batch < 2; ++round) {
    LineClient busy;
    ASSERT_TRUE(busy.Connect(server.socket_path()));
    const uint64_t rounds_before = server.stats().batches;
    ASSERT_TRUE(busy.SendLine("EVAL_APPROX busy sample 1/20 1/100 3 3 1/3"));
    while (server.stats().batches == rounds_before) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::vector<std::thread> workers;
    std::vector<int> ok(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        LineClient client;
        if (!client.Connect(server.socket_path())) return;
        const std::string p = std::to_string(c + 1) + "/16";
        const std::string response =
            client.Roundtrip("EVAL r" + std::to_string(c) + " 3 3 " + p);
        ok[c] = response.rfind("OK r" + std::to_string(c) + " ", 0) == 0;
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(busy.ReadLine().rfind("OK busy ESTIMATE ", 0), 0u);
    for (int c = 0; c < kClients; ++c) EXPECT_EQ(ok[c], 1) << "client " << c;
  }

  const GmcServer::Stats stats = server.stats();
  EXPECT_GE(stats.max_batch, 2u)
      << "no coalesced batch after 20 rounds of " << kClients
      << " concurrent clients";
  // Coalescing bookkeeping is consistent: every admitted request was
  // served by some batch.
  EXPECT_EQ(stats.batched_requests, stats.requests);
  EXPECT_LT(stats.batches, stats.requests);  // at least one round shared
}

TEST_F(ServeTest, AdmissionControlShedsPastTheLimit) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("shed");
  options.max_pending = 0;  // every EVAL exceeds the limit — deterministic
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  const std::string response = client.Roundtrip("EVAL q1 2 2 1/2");
  // The SHED reply carries a retry_after_ms backoff hint whose value
  // scales with pressure — assert the shape, not the number.
  EXPECT_EQ(response.rfind("ERR q1 SHED retry_after_ms=", 0), 0u)
      << response;
  EXPECT_NE(response.find(" queue full (limit 0)"), std::string::npos)
      << response;
  // Shedding is immediate and non-fatal: the connection still serves.
  EXPECT_EQ(client.Roundtrip("QUIT"), "BYE");

  const GmcServer::Stats stats = server.stats();
  EXPECT_GE(stats.shed, 1u);
  EXPECT_EQ(stats.requests, 0u);  // nothing was admitted
}

TEST_F(ServeTest, MalformedInputYieldsErrNotACrash) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("parse");
  options.max_domain = 8;
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Query query = H1();
  GfomcSession reference;
  Tid uniform(query.vocab_ptr(), 2, 2, Rational::Half());
  const std::string want =
      reference.Evaluate(query, uniform).probability.ToString();

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  const std::vector<std::string> hostile = {
      "FROBNICATE",                          // unknown command
      "EVAL",                                // truncated
      "EVAL q 2 2",                          // missing default probability
      "EVAL q -3 2 1/2",                     // negative domain
      "EVAL q 2 2 3/2",                      // probability > 1
      "EVAL q 2 2 1/0",                      // zero denominator
      "EVAL q 2 2 0x10",                     // non-digit bytes
      "EVAL q 999999999999999 2 1/2",        // oversized int
      "EVAL q 9 9 1/2",                      // domain past max_domain
      "EVAL q 2 2 1/2 Q(0)=1/2",             // unknown symbol
      "EVAL q 2 2 1/2 R(0,1)=1/2",           // wrong arity
      "EVAL q 2 2 1/2 S(5,0)=1/2",           // constant out of range
      "EVAL q 2 2 1/2 R(0)1/2",              // missing '='
      "EVAL q 2 2 1/2 R(0)=",                // empty probability
  };
  for (const std::string& line : hostile) {
    const std::string response = client.Roundtrip(line);
    EXPECT_EQ(response.rfind("ERR ", 0), 0u) << line << " -> " << response;
    EXPECT_NE(response.find("PARSE"), std::string::npos) << line;
  }
  // The connection survived all of it and still evaluates exactly.
  EXPECT_EQ(client.Roundtrip("EVAL ok 2 2 1/2"),
            "OK ok " + want + " lifted=0");

  const GmcServer::Stats stats = server.stats();
  EXPECT_EQ(stats.parse_errors, hostile.size());
  EXPECT_EQ(stats.requests, 1u);
}

// The reader frames lines across recv boundaries: a request that arrives
// one byte per send, or with its "\r\n" split over two sends, or glued to
// the start of the next one, answers byte-identically to one whole send.
TEST_F(ServeTest, RequestsSplitAcrossSendsAnswerLikeWholeOnes) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("split");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  const std::string request =
      "EVAL_APPROX r1 interval 1/10 1/20 2 2 1/3 R(0)=1/7 S(1,1)=2/5";
  const std::string whole = client.Roundtrip(request);
  ASSERT_EQ(whole.rfind("OK r1 INTERVAL ", 0), 0u) << whole;

  for (const char c : request + "\n") {
    ASSERT_TRUE(client.SendRaw(std::string(1, c)));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(client.ReadLine(), whole);

  ASSERT_TRUE(client.SendRaw(request + "\r"));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(client.SendRaw("\n"));
  EXPECT_EQ(client.ReadLine(), whole);

  // Two whole lines and the head of a third in one send, its tail later.
  const size_t half = request.size() / 2;
  ASSERT_TRUE(client.SendRaw(request + "\r\n" + request + "\n" +
                             request.substr(0, half)));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(client.SendRaw(request.substr(half) + "\r\n"));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(client.ReadLine(), whole) << i;
}

TEST_F(ServeTest, StatsLineReportsServerAndSessionCounters) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("stats");
  options.store_directory = store_dir_;
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  ASSERT_NE(client.Roundtrip("EVAL q1 2 2 1/2"), "");
  // Counters are monitoring snapshots: the round's responses++ lands
  // just after the OK bytes, so poll until the line settles.
  std::string stats_line = client.Roundtrip("STATS");
  for (int i = 0; i < 100 && stats_line.find("responses=1") ==
                                 std::string::npos;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats_line = client.Roundtrip("STATS");
  }
  EXPECT_EQ(stats_line.rfind("STATS ", 0), 0u) << stats_line;
  for (const char* field :
       {"connections=", "requests=1", "responses=1", "shed=0", "batches=",
        "max_batch=", "queries=1", "circuit_compiles=", "store_misses="}) {
    EXPECT_NE(stats_line.find(field), std::string::npos)
        << "missing " << field << " in: " << stats_line;
  }
}

TEST_F(ServeTest, StatsAndHealthNeverWaitForAnEvaluation) {
  // Exact evaluation of an unsafe query is #P-hard, so one EVAL may hold
  // the session for a long time: H1 10x12 at 1/2 compiles for ~300 ms on
  // a Release build, longer under the sanitizers. The monitoring verbs
  // must answer meanwhile.
  GmcServerOptions options;
  options.socket_path = TestSocketPath("nowait");
  options.num_threads = 1;
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient evaluator;
  LineClient monitor;
  ASSERT_TRUE(evaluator.Connect(server.socket_path()));
  ASSERT_TRUE(monitor.Connect(server.socket_path()));
  ASSERT_TRUE(evaluator.SendLine("EVAL big 10 12 1/2"));
  // The round counts before its evaluation starts.
  while (server.stats().batches == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const std::string health = monitor.Roundtrip("HEALTH");
  const std::string stats = monitor.Roundtrip("STATS");
  EXPECT_FALSE(evaluator.HasInput())
      << "the EVAL finished before the monitor was answered";
  EXPECT_EQ(health.rfind("HEALTH pressure=", 0), 0u) << health;
  EXPECT_EQ(stats.rfind("STATS ", 0), 0u) << stats;
  EXPECT_NE(stats.find(" responses=0 "), std::string::npos) << stats;

  // Sanitizer builds compile for several seconds; outwait the client's
  // 10 s receive timeout a few times over.
  std::string answer;
  for (int i = 0; i < 6 && answer.empty(); ++i) answer = evaluator.ReadLine();
  EXPECT_EQ(answer.rfind("OK big ", 0), 0u) << answer;
}

TEST_F(ServeTest, RestartWarmStartsFromTheStore) {
  const std::string socket_path = TestSocketPath("warm");
  Query query = H1();
  GfomcSession reference;
  Tid uniform(query.vocab_ptr(), 3, 3, Rational::Half());
  const std::string want =
      reference.Evaluate(query, uniform).probability.ToString();

  // First server: compiles cold, write-through persists the circuit, and
  // Stop() flushes the store besides.
  {
    GmcServerOptions options;
    options.socket_path = socket_path;
    options.store_directory = store_dir_;
    GmcServer server(H1(), options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    LineClient client;
    ASSERT_TRUE(client.Connect(socket_path));
    EXPECT_EQ(client.Roundtrip("EVAL cold 3 3 1/2"),
              "OK cold " + want + " lifted=0");
    server.Stop();
    EXPECT_GT(server.session_stats().cache.compiles, 0u);
  }
  ASSERT_FALSE(store::CircuitStore(store_dir_).ListEntries().empty());

  // Second server, same store, warm-start disabled so the READ-THROUGH
  // path is what serves: the first request must hit the store, compile
  // nothing, and answer the same bytes.
  {
    GmcServerOptions options;
    options.socket_path = socket_path;
    options.store_directory = store_dir_;
    options.warm_start = false;
    GmcServer server(H1(), options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    LineClient client;
    ASSERT_TRUE(client.Connect(socket_path));
    EXPECT_EQ(client.Roundtrip("EVAL warm 3 3 1/2"),
              "OK warm " + want + " lifted=0");
    server.Stop();
    const GfomcSession::Stats session = server.session_stats();
    EXPECT_GE(session.cache.store_hits, 1u);
    EXPECT_EQ(session.cache.compiles, 0u);
  }

  // Third server: the default warm_start=true bulk-loads the directory on
  // Start, so serving is a pure in-memory hit (no store probe at all).
  {
    GmcServerOptions options;
    options.socket_path = socket_path;
    options.store_directory = store_dir_;
    GmcServer server(H1(), options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    LineClient client;
    ASSERT_TRUE(client.Connect(socket_path));
    EXPECT_EQ(client.Roundtrip("EVAL hot 3 3 1/2"),
              "OK hot " + want + " lifted=0");
    server.Stop();
    const GfomcSession::Stats session = server.session_stats();
    EXPECT_EQ(session.cache.compiles, 0u);
    EXPECT_GE(session.cache.hits, 1u);
  }
}

TEST_F(ServeTest, StopAnswersQueuedRequestsBeforeExiting) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("drain");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  ASSERT_TRUE(client.SendLine("EVAL d1 2 2 1/2"));
  // Stop() answers every queued request before it closes a connection,
  // so the answer arrives even when shutdown races the request. (It may
  // also have been answered before Stop began — both orders must deliver
  // the OK line.) The request counts once it is queued, so Stop starts
  // with it queued or answered, never still unread in the socket.
  while (server.stats().requests == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::thread stopper([&] { server.Stop(); });
  const std::string response = client.ReadLine();
  stopper.join();
  EXPECT_EQ(response.rfind("OK d1 ", 0), 0u) << response;
  EXPECT_FALSE(server.running());
}

// A closing connection answers what it already sent: `EVAL ...\nQUIT\n`
// in one write, as `printf ... | nc -U` sends it, reads the OK, then BYE,
// then EOF.
TEST_F(ServeTest, PipelinedQuitAnswersEveryRequestBeforeBye) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("pipequit");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const Query query = H1();
  const std::string want =
      GfomcSession()
          .Evaluate(query, Tid(query.vocab_ptr(), 2, 2, Rational::Half()))
          .probability.ToString();
  constexpr int kConnections = 50;
  for (int c = 0; c < kConnections; ++c) {
    LineClient client;
    ASSERT_TRUE(client.Connect(server.socket_path()));
    const std::string id = "p" + std::to_string(c);
    ASSERT_TRUE(client.SendRaw("EVAL " + id + " 2 2 1/2\nQUIT\n"));
    EXPECT_EQ(client.ReadLine(), "OK " + id + " " + want + " lifted=0")
        << "connection " << c;
    EXPECT_EQ(client.ReadLine(), "BYE") << "connection " << c;
    EXPECT_EQ(client.ReadLine(), "") << "BYE must be the last line";
  }
  server.Stop();
  EXPECT_EQ(server.stats().responses, static_cast<uint64_t>(kConnections));
}

// The same for a client that half-closes after its request: the OK
// arrives, then EOF.
TEST_F(ServeTest, HalfCloseAnswersTheRequestThenCloses) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("halfclose");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const Query query = H1();
  const std::string want =
      GfomcSession()
          .Evaluate(query, Tid(query.vocab_ptr(), 2, 2, Rational::Half()))
          .probability.ToString();
  constexpr int kConnections = 50;
  for (int c = 0; c < kConnections; ++c) {
    LineClient client;
    ASSERT_TRUE(client.Connect(server.socket_path()));
    const std::string id = "h" + std::to_string(c);
    ASSERT_TRUE(client.SendLine("EVAL " + id + " 2 2 1/2"));
    client.CloseWrite();
    EXPECT_EQ(client.ReadLine(), "OK " + id + " " + want + " lifted=0")
        << "connection " << c;
    EXPECT_EQ(client.ReadLine(), "") << "connection " << c;
  }
}

// The closing reader waits for a round it does not run: B's request
// queues behind A's cold compile (H1 6x6), and B's QUIT arrives in the
// same write. B's reader must wait until that round's owner answers it,
// then say BYE.
TEST_F(ServeTest, QuitWaitsForARequestQueuedBehindAnotherRound) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("quitwait");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const Query query = H1();
  const std::string want =
      GfomcSession()
          .Evaluate(query, Tid(query.vocab_ptr(), 2, 2, Rational::Half()))
          .probability.ToString();
  LineClient a;
  LineClient b;
  ASSERT_TRUE(a.Connect(server.socket_path()));
  ASSERT_TRUE(b.Connect(server.socket_path()));
  ASSERT_TRUE(a.SendLine("EVAL a 6 6 1/2"));
  // The round counts before its evaluation starts.
  while (server.stats().batches == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(b.SendRaw("EVAL b 2 2 1/2\nQUIT\n"));
  EXPECT_EQ(b.ReadLine(), "OK b " + want + " lifted=0");
  EXPECT_EQ(b.ReadLine(), "BYE");
  EXPECT_EQ(b.ReadLine(), "");
  // Sanitizer builds compile for longer than the client's 10 s timeout.
  std::string answer;
  for (int i = 0; i < 6 && answer.empty(); ++i) answer = a.ReadLine();
  EXPECT_EQ(answer.rfind("OK a ", 0), 0u) << answer;
}

TEST_F(ServeTest, ApproxWireAnswersEveryTier) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("approx");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));

  // The exact rational over the legacy verb, as the reference.
  const std::string legacy = client.Roundtrip("EVAL e1 2 2 1/2");
  ASSERT_EQ(legacy.rfind("OK e1 ", 0), 0u) << legacy;
  const std::string exact_p = legacy.substr(6, legacy.find(' ', 6) - 6);

  // mode=auto on a compact instance: the exact circuit tier, bit-identical
  // to the legacy answer.
  const std::string autoed =
      client.Roundtrip("EVAL_APPROX a1 auto 1/20 1/100 2 2 1/2");
  EXPECT_EQ(autoed, "OK a1 EXACT " + exact_p + " tier=compiled") << autoed;

  // mode=interval: a certified enclosure, lo <= hi within [0, 1].
  const std::string interval =
      client.Roundtrip("EVAL_APPROX a2 interval 1/20 1/100 2 2 1/2");
  ASSERT_EQ(interval.rfind("OK a2 INTERVAL ", 0), 0u) << interval;
  std::istringstream in(interval.substr(15));
  double lo = -1.0;
  double hi = -1.0;
  ASSERT_TRUE(static_cast<bool>(in >> lo >> hi)) << interval;
  EXPECT_LE(0.0, lo);
  EXPECT_LE(lo, hi);
  EXPECT_LE(hi, 1.0);
  EXPECT_NE(interval.find("tier=interval"), std::string::npos);

  // mode=sample: the (ε, δ) certificate rides the reply.
  const std::string sampled =
      client.Roundtrip("EVAL_APPROX a3 sample 1/10 1/100 2 2 1/2");
  ASSERT_EQ(sampled.rfind("OK a3 ESTIMATE ", 0), 0u) << sampled;
  for (const char* field : {"eps=", "delta=", "samples=", "tier=sampled"}) {
    EXPECT_NE(sampled.find(field), std::string::npos)
        << "missing " << field << " in: " << sampled;
  }

  // Malformed approx requests are parse errors, never evaluations.
  EXPECT_EQ(client.Roundtrip("EVAL_APPROX b1 frobnicate 1/20 1/100 2 2 1/2")
                .rfind("ERR b1 PARSE ", 0),
            0u);
  EXPECT_EQ(client.Roundtrip("EVAL_APPROX b2 auto 1 1/100 2 2 1/2")
                .rfind("ERR b2 PARSE ", 0),
            0u);
  EXPECT_EQ(client.Roundtrip("EVAL_APPROX b3 auto 1/20 1/100")
                .rfind("ERR b3 PARSE ", 0),
            0u);
}

TEST_F(ServeTest, TinyEpsilonRunsToTheSampleCap) {
  // ε = 1e-9 asks for ~10^20 samples, past 2^64: the target saturates,
  // the cap binds, and the reply certifies the epsilon the cap buys. A
  // target cast to 0 would draw nothing and divide by zero, killing the
  // server.
  ::setenv("GMC_MAX_SAMPLES", "4096", 1);
  GmcServerOptions options;
  options.socket_path = TestSocketPath("tinyeps");
  GmcServer server(H1(), options);
  ::unsetenv("GMC_MAX_SAMPLES");
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  const std::string sampled =
      client.Roundtrip("EVAL_APPROX b sample 1/1000000000 1/100 2 2 1/2");
  EXPECT_EQ(sampled.rfind("OK b ESTIMATE ", 0), 0u) << sampled;
  EXPECT_NE(sampled.find(" samples=4096 tier=sampled"), std::string::npos)
      << sampled;
  EXPECT_EQ(client.Roundtrip("STATS").rfind("STATS ", 0), 0u);
}

TEST_F(ServeTest, EvalLiftedFlagIsTheQuerysSafetyOnEveryRoute) {
  // lifted=1 says the query is safe, whichever exact route answered — the
  // compiled GFOMC path ({0, 1/2, 1} weights) or the lifted plan (general
  // weights) — with or without a deadline.
  const Query safe = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  GmcServerOptions options;
  options.socket_path = TestSocketPath("lifted");
  GmcServer server(safe, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  for (const Rational& p : {Rational::Half(), Rational(1, 3)}) {
    const std::string tail = "2 2 " + p.ToString();
    const std::string want =
        BruteForceQueryProbability(safe, Tid(safe.vocab_ptr(), 2, 2, p))
            .ToString();
    EXPECT_EQ(client.Roundtrip("EVAL a " + tail), "OK a " + want + " lifted=1");
    EXPECT_EQ(client.Roundtrip("EVAL b deadline=60000 " + tail),
              "OK b " + want + " lifted=1");
  }
}

TEST_F(ServeTest, ExactAndIntervalRequestsCoalesceByteIdentically) {
  // Every tier coalesces: concurrent EVAL_APPROX exact and interval
  // requests of one round share one session call per mode — one batched
  // circuit pass per structure — and answer the bytes each gets alone.
  GmcServerOptions options;
  options.socket_path = TestSocketPath("tiers");
  options.max_pending = 256;
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 8;
  auto line = [](int c) {
    return "EVAL_APPROX t" + std::to_string(c) +
           (c % 2 == 0 ? " exact" : " interval") + " 1/20 1/100 3 3 " +
           std::to_string(c + 1) + "/16";
  };
  // The references: one request at a time, each alone in its round.
  std::vector<std::string> alone(kClients);
  {
    LineClient client;
    ASSERT_TRUE(client.Connect(server.socket_path()));
    for (int c = 0; c < kClients; ++c) {
      alone[c] = client.Roundtrip(line(c));
      ASSERT_EQ(alone[c].rfind("OK t" + std::to_string(c) + " ", 0), 0u)
          << alone[c];
    }
  }

  for (int round = 0; round < 20 && server.stats().max_approx_batch < 2;
       ++round) {
    // A sampled request (about 1.1e5 draws) keeps the worker busy while
    // the clients below connect and send, so their requests queue up and
    // share the next round however fast that round runs.
    LineClient busy;
    ASSERT_TRUE(busy.Connect(server.socket_path()));
    ASSERT_TRUE(busy.SendLine("EVAL_APPROX busy sample 1/20 1/100 3 3 1/3"));
    std::vector<std::thread> workers;
    std::vector<std::string> got(kClients);
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        LineClient client;
        if (client.Connect(server.socket_path())) {
          got[c] = client.Roundtrip(line(c));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(busy.ReadLine().rfind("OK busy ESTIMATE ", 0), 0u);
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(got[c], alone[c]) << "client " << c << " round " << round;
    }
  }
  EXPECT_GE(server.stats().max_approx_batch, 2u)
      << "no coalesced exact/interval group after 20 rounds of " << kClients
      << " concurrent clients";
}

TEST_F(ServeTest, OverBudgetInstanceDegradesOverTheWire) {
  // The serving-tier half of the headline contract: with a tiny compile
  // budget (via the GMC_BUDGET_CALLS environment default), an unsafe
  // instance still gets a certified (ε, δ) answer through the socket in
  // auto mode — and a typed BUDGET refusal in exact mode.
  ::setenv("GMC_BUDGET_CALLS", "2", 1);
  GmcServerOptions options;
  options.socket_path = TestSocketPath("budget");
  GmcServer server(H1(), options);
  ::unsetenv("GMC_BUDGET_CALLS");
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  const std::string sampled =
      client.Roundtrip("EVAL_APPROX o1 auto 1/10 1/100 3 3 1/2");
  EXPECT_EQ(sampled.rfind("OK o1 ESTIMATE ", 0), 0u) << sampled;
  EXPECT_NE(sampled.find("tier=sampled"), std::string::npos) << sampled;

  const std::string refused =
      client.Roundtrip("EVAL_APPROX o2 exact 1/10 1/100 3 3 1/2");
  EXPECT_EQ(refused.rfind("ERR o2 BUDGET ", 0), 0u) << refused;

  // The anytime counters surface in STATS (snapshot-driven, so the keys
  // here are exactly the docs/SERVING.md vocabulary).
  // Counter updates land just after the reply bytes, so poll until the
  // last-written counter (the ERR's eval_errors) settles.
  std::string stats_line = client.Roundtrip("STATS");
  for (int i = 0; i < 100 && stats_line.find("eval_errors=1") ==
                                 std::string::npos;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats_line = client.Roundtrip("STATS");
  }
  for (const char* field :
       {"approx_requests=2", "anytime_sampled=1", "anytime_interval=0",
        "budget_exhausted=", "invalid_requests=0", "eval_errors=1"}) {
    EXPECT_NE(stats_line.find(field), std::string::npos)
        << "missing " << field << " in: " << stats_line;
  }
}

TEST_F(ServeTest, OverBudgetRequestFailsAloneInsideItsGroup) {
  // Per-instance statuses: an over-budget mode=exact request coalesced with
  // a compilable neighbour gets its own ERR BUDGET, and the neighbour still
  // gets its exact answer. The budget is tiny (GMC_BUDGET_CALLS, as in
  // OverBudgetInstanceDegradesOverTheWire); the neighbour's structure is
  // cached first, and lookups ignore the budget. A dropped cache insert
  // would send the neighbour back to the tiny budget, so this test holds a
  // FaultGuard.
  FaultGuard guard;
  ::setenv("GMC_BUDGET_CALLS", "2", 1);
  GmcServerOptions options;
  options.socket_path = TestSocketPath("budgetgroup");
  GmcServer server(H1(), options);
  ::unsetenv("GMC_BUDGET_CALLS");
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const Query query = H1();
  const std::string want =
      BruteForceQueryProbability(query,
                                 Tid(query.vocab_ptr(), 2, 2, Rational::Half()))
          .ToString();
  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  ASSERT_EQ(client.Roundtrip("EVAL w 2 2 1/2"), "OK w " + want + " lifted=0");
  // Both requests ride one write, sent while a sampled request from
  // another routing group runs to the 2^20-sample cap (its round count
  // moved). That round runs on this connection's reader, which reads the
  // pair in one recv once the round ends, admits both lines, and only then
  // runs its next round, so the round takes them together.
  const uint64_t rounds_before = server.stats().batches;
  ASSERT_TRUE(client.SendLine("EVAL_APPROX slow sample 1/1000 1/100 6 6 1/2"));
  while (server.stats().batches == rounds_before) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(client.SendLine(
      "EVAL_APPROX big exact 1/10 1/100 3 3 1/2\n"
      "EVAL_APPROX ok exact 1/10 1/100 2 2 1/2"));
  const std::string sampled = client.ReadLine();
  EXPECT_EQ(sampled.rfind("OK slow ESTIMATE ", 0), 0u) << sampled;
  std::string answered = client.ReadLine();
  std::string refused = client.ReadLine();
  if (answered.rfind("ERR ", 0) == 0) std::swap(answered, refused);
  EXPECT_EQ(answered, "OK ok EXACT " + want + " tier=compiled");
  EXPECT_EQ(refused.rfind("ERR big BUDGET ", 0), 0u) << refused;
  // A group is counted after its replies are sent; Stop waits out every
  // round, so the count below is final.
  server.Stop();
  EXPECT_GE(server.stats().max_approx_batch, 2u)
      << "the two requests never shared a round";
}

TEST_F(ServeTest, SampledRequestsCoalesceByteIdentically) {
  // N concurrent same-structure EVAL_APPROX sample requests must (a) land
  // in ONE coalescing group (max_approx_batch >= 2), (b) count fewer
  // sampler batches than sampled answers, and (c) answer bytes IDENTICAL
  // to a serial in-process session on the same TID — coalescing must not
  // move a bit.
  GmcServerOptions options;
  options.socket_path = TestSocketPath("samplegroup");
  options.max_pending = 256;
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // The in-process reference: the same defaults the server's session
  // starts from (FromEnv; the test env sets no GMC_* knobs), mode=sample
  // at the wire request's (ε, δ). The reply payload is formatted exactly
  // as serve.cc does — setprecision(17) doubles.
  Query query = H1();
  GfomcSession reference;
  GmcOptions ropts = reference.options();
  ropts.routing_mode = RoutingMode::kSample;
  ropts.epsilon = 0.1;   // the wire's 1/10
  ropts.delta = 0.01;    // the wire's 1/100
  reference.Configure(ropts);
  Tid uniform(query.vocab_ptr(), 2, 2, Rational::Half());
  GmcAnswer answer;
  ASSERT_TRUE(reference.EvaluateAnswer(query, uniform, &answer).ok());
  ASSERT_EQ(answer.tier, AnswerTier::kSampled);
  std::ostringstream payload;
  payload << std::setprecision(17) << "ESTIMATE " << answer.estimate
          << " eps=" << answer.epsilon << " delta=" << answer.delta
          << " samples=" << answer.samples << " tier=sampled";
  const std::string want = payload.str();

  constexpr int kClients = 8;
  for (int round = 0;
       round < 20 && server.stats().max_approx_batch < 2; ++round) {
    std::vector<std::thread> workers;
    std::vector<std::string> got(kClients);
    for (int c = 0; c < kClients; ++c) {
      workers.emplace_back([&, c] {
        LineClient client;
        if (!client.Connect(server.socket_path())) return;
        got[c] = client.Roundtrip("EVAL_APPROX s" + std::to_string(c) +
                                  " sample 1/10 1/100 2 2 1/2");
      });
    }
    for (std::thread& w : workers) w.join();
    for (int c = 0; c < kClients; ++c) {
      // Byte-identical to the serial reference, whatever the grouping.
      EXPECT_EQ(got[c], "OK s" + std::to_string(c) + " " + want)
          << "client " << c << " round " << round;
    }
  }

  server.Stop();
  const GmcServer::StatsSnapshot snap = server.snapshot();
  EXPECT_GE(snap.server.max_approx_batch, 2u)
      << "no coalesced sampler group after 20 rounds of " << kClients
      << " concurrent clients";
  EXPECT_GE(snap.server.approx_batches, 1u);
  EXPECT_GE(snap.session.anytime_sampled, static_cast<uint64_t>(kClients));
  // Coalescing visibly beats per-request sampling: fewer sampler batches
  // than sampled answers.
  EXPECT_LT(snap.session.sampler_batches, snap.session.anytime_sampled);
  // The new keys ride the STATS line (the docs/SERVING.md vocabulary).
  const std::string line = snap.ToLine();
  for (const char* field :
       {"approx_batches=", "max_approx_batch=", "sampler_batches="}) {
    EXPECT_NE(line.find(field), std::string::npos)
        << "missing " << field << " in: " << line;
  }
}

// The concurrent-serving stress: closed-loop clients mixing every verb and
// tier over four TIDs. A request's kind k picks the verb k % 4 and the TID
// tail k / 4.
constexpr int kStressKinds = 16;

std::string StressLine(int kind, const std::string& id, bool deadline) {
  static const char* const kVerbs[] = {
      "EVAL", "EVAL_APPROX", "EVAL_APPROX", "EVAL_APPROX"};
  static const char* const kModes[] = {
      "", " exact 1/10 1/100", " interval 1/10 1/20", " sample 1/4 1/20"};
  static const char* const kTails[] = {
      " 2 2 1/2", " 2 2 1/3 R(0)=1/7 S(1,1)=2/5",
      " 3 3 1/4 S(0,2)=0 T(1)=1/2", " 3 3 3/8"};
  return std::string(kVerbs[kind % 4]) + " " + id +
         (deadline ? " deadline=60000" : "") + kModes[kind % 4] +
         kTails[kind / 4];
}

// Each kind's reply after "OK <id> ", from one client sending one request
// at a time to a fresh server: every round holds one request.
std::vector<std::string> StressReference() {
  GmcServerOptions options;
  options.socket_path = TestSocketPath("stressref");
  GmcServer server(H1(), options);
  std::string error;
  if (!server.Start(&error)) return {};
  LineClient client;
  if (!client.Connect(server.socket_path())) return {};
  std::vector<std::string> payloads;
  for (int kind = 0; kind < kStressKinds; ++kind) {
    const std::string reply = client.Roundtrip(StressLine(kind, "ref", false));
    if (reply.rfind("OK ref ", 0) != 0) return {};
    payloads.push_back(reply.substr(7));
  }
  return payloads;
}

// One stress client's closed loop: up to `quota` requests, one of them
// with a deadline, each reply checked against its kind's reference. It
// stops at the first reply that is not OK (Stop() sheds or closes).
struct StressClient {
  int answered = 0;
  int shed = 0;
  bool connected = false;
  std::vector<std::string> wrong;  // replies that matched no rule

  void Run(const std::string& socket_path, int c, int quota,
           const std::vector<std::string>& payloads) {
    LineClient client;
    connected = client.Connect(socket_path);
    if (!connected) return;
    std::mt19937 rng(static_cast<uint32_t>(c) + 1);
    const int deadline_at = static_cast<int>(rng() % quota);
    for (int i = 0; i < quota; ++i) {
      const int kind = static_cast<int>(rng() % kStressKinds);
      const std::string id = "c" + std::to_string(c) + "." + std::to_string(i);
      const std::string reply =
          client.Roundtrip(StressLine(kind, id, i == deadline_at));
      if (reply == "OK " + id + " " + payloads[kind]) {
        ++answered;
        continue;
      }
      if (reply.rfind("ERR " + id + " SHED ", 0) == 0) {
        ++shed;
      } else if (!reply.empty()) {
        wrong.push_back(reply);
      }
      return;
    }
  }
};

TEST_F(ServeTest, ConcurrentClientsGetTheOneClientReplies) {
  const std::vector<std::string> payloads = StressReference();
  ASSERT_EQ(payloads.size(), static_cast<size_t>(kStressKinds));

  GmcServerOptions options;
  options.socket_path = TestSocketPath("stress");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  constexpr int kClients = 8;
  constexpr int kQuota = 200;
  std::vector<StressClient> clients(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      clients[c].Run(server.socket_path(), c, kQuota, payloads);
    });
  }
  for (std::thread& w : workers) w.join();
  server.Stop();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(clients[c].connected) << "client " << c;
    EXPECT_EQ(clients[c].answered, kQuota) << "client " << c;
    EXPECT_TRUE(clients[c].wrong.empty())
        << "client " << c << ": " << clients[c].wrong.front();
  }
  const GmcServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients * kQuota));
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_EQ(stats.batched_requests, stats.requests);
}

TEST_F(ServeTest, StopMidStreamAnswersEveryAdmittedRequestOnce) {
  const std::vector<std::string> payloads = StressReference();
  ASSERT_EQ(payloads.size(), static_cast<size_t>(kStressKinds));

  GmcServerOptions options;
  options.socket_path = TestSocketPath("stressstop");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  constexpr int kClients = 8;
  constexpr int kQuota = 200;
  std::vector<StressClient> clients(kClients);
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&, c] {
      clients[c].Run(server.socket_path(), c, kQuota, payloads);
    });
  }
  // Stop once about a quarter of the traffic is answered, while every
  // client still has a request in flight or about to be.
  while (server.stats().responses < kClients * kQuota / 4) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  server.Stop();
  for (std::thread& w : workers) w.join();

  // Each client stops at its first reply that is not OK, so every OK it
  // counted was its own request's one reply. A request the server read
  // after Stop began sheds; one it never read gets EOF. Neither was
  // admitted.
  uint64_t answered = 0;
  uint64_t shed = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(clients[c].connected) << "client " << c;
    EXPECT_TRUE(clients[c].wrong.empty())
        << "client " << c << ": " << clients[c].wrong.front();
    answered += static_cast<uint64_t>(clients[c].answered);
    shed += static_cast<uint64_t>(clients[c].shed);
  }
  EXPECT_LT(answered, static_cast<uint64_t>(kClients * kQuota))
      << "Stop() came after the last request";
  const GmcServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, answered);
  EXPECT_EQ(stats.responses, answered);
  EXPECT_EQ(stats.batched_requests, stats.requests);
  // A SHED reply can be lost to the close that follows it; never gained.
  EXPECT_LE(shed, stats.shed);
}

// docs/SERVING.md calls its STATS key table the wire contract; this pins
// it: one backticked key per row, in ToLine's order, nothing missing.
TEST(ServeDocsTest, StatsKeyTableMatchesTheWireLine) {
  std::ifstream doc(std::string(GMC_SOURCE_DIR) + "/docs/SERVING.md");
  ASSERT_TRUE(doc.is_open());
  std::vector<std::string> documented;
  bool in_section = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0 || line.rfind("### ", 0) == 0) {
      in_section = line == "### `STATS` keys";
    } else if (in_section && line.rfind("| `", 0) == 0) {
      const size_t end = line.find('`', 3);
      ASSERT_NE(end, std::string::npos) << line;
      EXPECT_EQ(line.compare(end, 3, "` |"), 0) << "one key per row: " << line;
      documented.push_back(line.substr(3, end - 3));
    }
  }

  GmcServerOptions options;
  options.socket_path = TestSocketPath("docs");
  const GmcServer server(H1(), options);
  std::istringstream wire(server.snapshot().ToLine());
  std::string token;
  ASSERT_TRUE(wire >> token);
  EXPECT_EQ(token, "STATS");
  std::vector<std::string> keys;
  while (wire >> token) keys.push_back(token.substr(0, token.find('=')));
  EXPECT_EQ(documented, keys);
}

TEST(ServeInternalTest, ParseProbabilityRejectsHostileTokens) {
  Rational out = Rational::Zero();
  EXPECT_TRUE(internal::ParseProbability("1/2", &out));
  EXPECT_EQ(out, Rational::Half());
  EXPECT_TRUE(internal::ParseProbability("0", &out));
  EXPECT_TRUE(internal::ParseProbability("1", &out));
  EXPECT_TRUE(internal::ParseProbability("3/8", &out));
  EXPECT_TRUE(internal::ParseProbability("4/8", &out));  // non-canonical ok
  for (const char* bad :
       {"", "/", "1/", "/2", "-1/2", "3/2", "1/0", "0x1", "1.5", "1e3",
        " 1/2", "1/2/3", "9999999999999999999/1", "1/9999999999999999999"}) {
    EXPECT_FALSE(internal::ParseProbability(bad, &out)) << bad;
  }
}

// The wire's integer tokens and gmc_serve's numeric flags share this
// parser: digits only, at most nine of them.
TEST(ServeInternalTest, ParseSmallIntRejectsSignsSuffixesAndOverflow) {
  int out = -1;
  for (const auto& [token, value] :
       {std::pair<const char*, int>{"0", 0}, {"64", 64},
        {"999999999", 999999999}}) {
    EXPECT_TRUE(internal::ParseSmallInt(token, &out)) << token;
    EXPECT_EQ(out, value);
  }
  out = 7;
  for (const char* bad :
       {"", "-1", "+3", "abc", "5s", " 7", "1000000000"}) {
    EXPECT_FALSE(internal::ParseSmallInt(bad, &out)) << bad;
  }
  EXPECT_EQ(out, 7);  // untouched on failure
}

// The server's parser before tokens became views and weights 64-bit
// integers, kept verbatim as the reference the differential tests below
// hold the current one to.
namespace reference {

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) words.push_back(std::move(word));
  return words;
}

bool ParseProbability(const std::string& token, Rational* out) {
  const size_t slash = token.find('/');
  std::string num = token.substr(0, slash);
  std::string den =
      slash == std::string::npos ? "1" : token.substr(slash + 1);
  if (!AllDigits(num) || !AllDigits(den) || num.size() > 18 ||
      den.size() > 18) {
    return false;
  }
  Rational denominator = Rational::FromString(den);
  if (denominator.IsZero()) return false;
  Rational value = Rational::FromString(num) / denominator;
  if (value > Rational::One()) return false;
  return (*out = std::move(value), true);
}

bool ParseSmallInt(const std::string& token, int* out) {
  if (!AllDigits(token) || token.size() > 9) return false;
  *out = std::stoi(token);
  return true;
}

std::string FormatDouble(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace reference

// A random digit run of 0 to max_len digits, often with leading zeros.
std::string RandomDigits(std::mt19937_64& rng, size_t max_len) {
  const size_t len = rng() % (max_len + 1);
  const size_t zeros = rng() % 4 == 0 ? rng() % (len + 1) : 0;
  std::string out(zeros, '0');
  while (out.size() < len) out += static_cast<char>('0' + rng() % 10);
  return out;
}

// Digit runs around the 18-digit cap, alone or as "a/b", with junk bytes
// spliced in at random: signs, dots, exponents, hex, spaces, slashes, NUL
// and bytes >= 0x80.
std::string RandomProbabilityToken(std::mt19937_64& rng) {
  static const char kJunk[] = {'/', '-', '+', '.', 'e', 'x', ' ', '\t',
                               '\0', '\x80', '\xff', 'a'};
  std::string token;
  switch (rng() % 6) {
    case 0:
      return rng() % 2 == 0 ? "0/0" : "0";
    case 1: {  // 18-digit / 18-digit, either order of magnitude
      std::string a(18, '0');
      std::string b(18, '0');
      for (char& c : a) c = static_cast<char>('0' + rng() % 10);
      for (char& c : b) c = static_cast<char>('0' + rng() % 10);
      if (rng() % 2 == 0) a[0] = '0';
      return a + "/" + b;
    }
    case 2:
      token = RandomDigits(rng, 20);
      break;
    default:
      token = RandomDigits(rng, 20) + "/" + RandomDigits(rng, 20);
      break;
  }
  if (rng() % 4 == 0) {
    const size_t at = rng() % (token.size() + 1);
    token.insert(at, 1, kJunk[rng() % sizeof(kJunk)]);
  }
  return token;
}

TEST(ServeInternalTest, ParseProbabilityMatchesTheFromStringParser) {
  std::mt19937_64 rng(20260);
  size_t accepted = 0;
  constexpr size_t kTokens = 1000000;
  for (size_t i = 0; i < kTokens; ++i) {
    const std::string token = RandomProbabilityToken(rng);
    Rational want = Rational(7, 9);
    Rational got = Rational(7, 9);
    const bool want_ok = reference::ParseProbability(token, &want);
    const bool got_ok = internal::ParseProbability(token, &got);
    ASSERT_EQ(got_ok, want_ok) << "'" << token << "'";
    ASSERT_EQ(got, want) << "'" << token << "'";
    accepted += got_ok ? 1 : 0;
  }
  // Both verdicts are well represented.
  EXPECT_GT(accepted, kTokens / 5);
  EXPECT_LT(accepted, kTokens * 4 / 5);
}

TEST(ServeInternalTest, ParseSmallIntMatchesTheStoiParser) {
  std::mt19937_64 rng(20261);
  for (int i = 0; i < 200000; ++i) {
    std::string token = RandomDigits(rng, 11);
    if (rng() % 5 == 0) {
      token.insert(rng() % (token.size() + 1), 1, "-+ x\x80"[rng() % 5]);
    }
    int want = -7;
    int got = -7;
    const bool want_ok = reference::ParseSmallInt(token, &want);
    ASSERT_EQ(internal::ParseSmallInt(token, &got), want_ok) << token;
    ASSERT_EQ(got, want) << token;
  }
}

TEST(ServeInternalTest, SplitWordsMatchesIstringstream) {
  static const char kSpace[] = {' ', '\t', '\n', '\v', '\f', '\r'};
  std::mt19937_64 rng(20262);
  for (int i = 0; i < 20000; ++i) {
    std::string line;
    const int words = static_cast<int>(rng() % 8);
    for (int w = 0; w <= words; ++w) {
      const size_t gap = rng() % 4;  // leading and trailing runs too
      for (size_t g = 0; g < gap; ++g) line += kSpace[rng() % 6];
      if (w == words) break;
      const size_t len = 1 + rng() % 6;
      for (size_t c = 0; c < len; ++c) {
        char byte = static_cast<char>(rng() % 256);
        while (std::memchr(kSpace, byte, sizeof(kSpace)) != nullptr) {
          byte = static_cast<char>(rng() % 256);
        }
        line += byte;
      }
    }
    const std::vector<std::string> want = reference::SplitWords(line);
    const std::vector<std::string_view> got = internal::SplitWords(line);
    ASSERT_EQ(std::vector<std::string>(got.begin(), got.end()), want)
        << "line " << i;
  }
}

// A random BigInt of up to four 62-bit chunks: one or several limbs.
BigInt RandomMagnitude(std::mt19937_64& rng) {
  BigInt out(static_cast<int64_t>(rng() >> 2));
  for (uint64_t chunks = rng() % 4; chunks > 0; --chunks) {
    out = out.ShiftLeft(62) + BigInt(static_cast<int64_t>(rng() >> 2));
  }
  return out;
}

TEST(ServeInternalTest, FormatDoubleMatchesTheStreamForm) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      0.5,
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      3.8125190954874456e-05,  // a golden reply's interval endpoint
      1e-4,                    // the edges of %g's fixed form
      9.9999999999999991e-05,
      1e16,
      1e17,
      std::nextafter(1.0, 0.0),
      std::nextafter(0.0, 1.0),  // 5e-324, the least subnormal
      std::ldexp(1.0, -1070),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  std::mt19937_64 rng(20264);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = unit(rng);
    values.push_back(x);
    values.push_back(std::ldexp(x, -1070));  // subnormal
    values.push_back(std::ldexp(x, -(1 + static_cast<int>(rng() % 1000))));
  }
  for (const double x : values) {
    ASSERT_EQ(internal::FormatDouble(x), reference::FormatDouble(x))
        << std::hexfloat << x;
  }
}

TEST(RationalIsProbabilityTest, MatchesTheCrossMultipliedCheck) {
  std::mt19937_64 rng(20263);
  const BigInt one(1);
  for (int i = 0; i < 50000; ++i) {
    BigInt den = RandomMagnitude(rng) + one;
    BigInt num;
    switch (rng() % 6) {
      case 0: num = BigInt(0); break;
      case 1: num = den; break;                  // exactly one
      case 2: num = den - one; break;            // just below one
      case 3: num = den + one; break;            // just above one
      default: num = RandomMagnitude(rng); break;
    }
    if (rng() % 4 == 0) num = -num;
    const Rational r(num, den);
    EXPECT_EQ(r.IsProbability(), r.sign() >= 0 && r <= Rational::One())
        << r.ToString();
  }
  EXPECT_TRUE(Rational::Zero().IsProbability());
  EXPECT_TRUE(Rational::One().IsProbability());
  EXPECT_FALSE(Rational(-1, 2).IsProbability());
  EXPECT_FALSE(Rational(3, 2).IsProbability());
}

// Every reply byte of a fixed script, recorded from the server whose
// parser split lines with istringstream and built each weight with
// Rational::FromString: exact, interval and sampled answers, weights at
// the 18-digit cap and in non-canonical form, every whitespace byte as a
// separator, and every PARSE detail shape. A change to any byte of a reply
// or an error detail fails here.
struct GoldenExchange {
  std::string request;
  std::string reply;
};

void ExpectGoldenReplies(const char* query_text, const std::string& name,
                         const std::vector<GoldenExchange>& script) {
  GmcServerOptions options;
  options.socket_path = TestSocketPath(name);
  GmcServer server(ParseQueryOrDie(query_text), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  for (const GoldenExchange& exchange : script) {
    EXPECT_EQ(client.Roundtrip(exchange.request), exchange.reply)
        << exchange.request;
  }
}

TEST(ServeGoldenTest, H1RepliesAreByteIdentical) {
  ExpectGoldenReplies(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))", "golden_h1",
      {
          {"EVAL g1 2 2 1/2", "OK g1 47/256 lifted=0"},
          {"EVAL g2 2 2 0", "OK g2 0 lifted=0"},
          {"EVAL g3 2 2 1", "OK g3 1 lifted=0"},
          {"EVAL\tg4 2  2\t\t1/2   R(0)=4/8 S(0,1)=1/3   T(1)=2/7",
           "OK g4 53/448 lifted=0"},
          {" \tEVAL\vg5\f3 2 1/2 R(2)=0/5 S(2,1)=1/1\r",
           "OK g5 47/512 lifted=0"},
          {"EVAL g6 2 2 1/2 R(0)=123456789012345678/999999999999999999 "
           "S(1,1)=000000000000000001/000000000000000003 T(0)=00",
           "OK g6 120256058445358939/1777777777777777776 lifted=0"},
          {"EVAL g7 deadline=600000 2 2 1", "OK g7 1 lifted=0"},
          {"EVAL_APPROX g8 exact 1/10 1/20 2 2 1/2 S(0,0)=3/8",
           "OK g8 EXACT 167/1024 tier=compiled"},
          {"EVAL_APPROX g9 exact 1/10 1/20 2 2 0 R(1)=1",
           "OK g9 EXACT 0 tier=compiled"},
          {"EVAL_APPROX g10 interval 1/10 1/20 2 2 1/3 R(1)=1/7 "
           "S(1,0)=999999999999999998/999999999999999999",
           "OK g10 INTERVAL 0.067215363511659659 0.067215363511659965 "
           "tier=interval"},
          {"EVAL_APPROX g11 interval 1/10 1/20 3 3 1/2 R(0)=1 T(2)=5/11",
           "OK g11 INTERVAL 0.057373046874999882 0.057373046875000132 "
           "tier=interval"},
          {"EVAL_APPROX g12 sample 1/2 1/2 2 2 1/2 T(0)=1/11",
           "OK g12 ESTIMATE 0.047150610583446405 eps=0.5 delta=0.5 "
           "samples=134 tier=sampled"},
          {"EVAL_APPROX  g13  sample  1/4\t1/3 3 3 1/2 S(0,0)=0 S(1,1)=1 "
           "R(2)=1/3",
           "OK g13 ESTIMATE 0.067037754114230394 eps=0.25 "
           "delta=0.33333333333333331 samples=1033 tier=sampled"},
          {"EVAL p1 2 2 1/2 R(0)1/2",
           "ERR p1 PARSE bad tuple assignment 'R(0)1/2'"},
          {"EVAL p2 2 2 1/2 S(0,1",
           "ERR p2 PARSE bad tuple assignment 'S(0,1'"},
          {"EVAL p3 2 2 1/2 Q(0)=1/2", "ERR p3 PARSE unknown symbol 'Q'"},
          {"EVAL p4 2 2 1/2 S\xc3\xa9(0)=1/2",
           "ERR p4 PARSE unknown symbol 'S\xc3\xa9'"},
          {"EVAL p5 2 2 1/2 S(5,0)=1/2",
           "ERR p5 PARSE 'S(5,0)=1/2': want constants < 2,2"},
          {"EVAL p6 2 2 1/2 R(2)=1/2",
           "ERR p6 PARSE 'R(2)=1/2': want one left constant < 2"},
          {"EVAL p7 2 2 1/2 T(0,1)=1/2",
           "ERR p7 PARSE 'T(0,1)=1/2': want one right constant < 2"},
          {"EVAL p8 2 2 1/2 R(x)=1/2",
           "ERR p8 PARSE bad constants in 'R(x)=1/2'"},
          {"EVAL p9 2 2 1234567890123456789/9999999999999999999",
           "ERR p9 PARSE default probability must be a rational in [0, 1]"},
          {"EVAL p10 2 2 1/2 R(0)=1/1234567890123456789",
           "ERR p10 PARSE bad probability in 'R(0)=1/1234567890123456789'"},
          {"EVAL p11 2 2 1/0",
           "ERR p11 PARSE default probability must be a rational in [0, 1]"},
          {"EVAL p12 2 2 1/2 S(0,0)=3/2",
           "ERR p12 PARSE bad probability in 'S(0,0)=3/2'"},
          {"EVAL p13 2 2 1/2 S(0,0)=-1/2",
           "ERR p13 PARSE bad probability in 'S(0,0)=-1/2'"},
          {"EVAL p14 300 2 1/2",
           "ERR p14 PARSE domain sides must be integers in [0, 256]"},
          {"EVAL p15 2 2",
           "ERR p15 PARSE want: EVAL <id> [deadline=<ms>] <num_left> "
           "<num_right> <default_p> ..."},
          {"EVAL p16 deadline=soon 2 2 1/2",
           "ERR p16 PARSE deadline must be a non-negative integer "
           "(milliseconds)"},
          {"EVAL_APPROX p17 frobnicate 1/10 1/20 2 2 1/2",
           "ERR p17 PARSE mode must be auto, exact, interval, or sample"},
          {"EVAL_APPROX p18 exact 1 1/20 2 2 1/2",
           "ERR p18 PARSE eps and delta must be rationals strictly in (0, 1)"},
          {"EVAL_APPROX p19 exact 1/10",
           "ERR p19 PARSE want: EVAL_APPROX <id> [deadline=<ms>] <mode> "
           "<eps> <delta> <num_left> <num_right> <default_p> ..."},
          {"EVAL",
           "ERR - PARSE want: EVAL <id> [deadline=<ms>] <num_left> "
           "<num_right> <default_p> ..."},
          {"FROBNICATE x", "ERR - PARSE unknown command 'FROBNICATE'"},
      });
}

TEST(ServeGoldenTest, C9RepliesAreByteIdentical) {
  ExpectGoldenReplies(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))",
      "golden_c9",
      {
          {"EVAL c1 2 2 1/2", "OK c1 873/32768 lifted=0"},
          {"EVAL c2 3 3 0 S1(0,0)=1/2 S2(2,2)=1", "OK c2 0 lifted=0"},
          {"EVAL c3 2 2 1 S2(1,0)=3/7 S4(0,1)=5/11", "OK c3 1 lifted=0"},
          {"EVAL_APPROX c4 exact 1/10 1/20 2 2 1/2 S3(1,1)=4/8",
           "OK c4 EXACT 873/32768 tier=compiled"},
          {"EVAL_APPROX c5 interval 1/10 1/20 3 3 1/2 S1(0,0)=3/7 S2(1,2)=2/11 "
           "S3(2,2)=1/7 S4(0,1)=6/11",
           "OK c5 INTERVAL 3.8125190954874456e-05 3.8125190954874958e-05 "
           "tier=interval"},
          {"EVAL_APPROX c6 interval 1/10 1/20 2 2 "
           "999999999999999998/999999999999999999 S1(0,1)=1/3",
           "OK c6 INTERVAL 0.99999999999999689 1 tier=interval"},
          {"EVAL_APPROX c7 sample 1/2 1/2 2 2 1/2 S1(0,1)=1/7",
           "OK c7 ESTIMATE 0.085692835692835687 eps=0.5 delta=0.5 "
           "samples=333 tier=sampled"},
          {"EVAL_APPROX\tc8\tsample\t1/3\t1/4\t3\t3\t1/2\tS4(2,2)=0",
           "OK c8 ESTIMATE 0 eps=0.33333333333333331 "
           "delta=0.25 samples=3032 tier=sampled"},
          {"EVAL p1 2 2 1/2 S1(0,0)=1/2=",
           "ERR p1 PARSE bad probability in 'S1(0,0)=1/2='"},
          {"EVAL p2 2 2 1/2 S5(0,0)=1/2", "ERR p2 PARSE unknown symbol 'S5'"},
          {"EVAL p3 2 2 1/2 S1(0,2)=1/2",
           "ERR p3 PARSE 'S1(0,2)=1/2': want constants < 2,2"},
          {"EVAL p4 2 2 1/2 S1(0)=1/2",
           "ERR p4 PARSE 'S1(0)=1/2': want constants < 2,2"},
          {"EVAL p5 2 2 1/2 S1(0,0)=1/1234567890123456789",
           "ERR p5 PARSE bad probability in 'S1(0,0)=1/1234567890123456789'"},
          {"EVAL p6 2 2 1/0",
           "ERR p6 PARSE default probability must be a rational in [0, 1]"},
          {"EVAL p7 2 2 3/2",
           "ERR p7 PARSE default probability must be a rational in [0, 1]"},
          {"EVAL p8 2 2 1/2 S1(0,0)=1/2 S2(1,1)=4/3",
           "ERR p8 PARSE bad probability in 'S2(1,1)=4/3'"},
      });
}

}  // namespace
}  // namespace serve
}  // namespace gmc
