// The serving tier under N concurrent closed-loop clients: an in-process
// GmcServer with one worker thread on a Unix socket, and N client threads
// that each send EVAL, wait for its reply, and send the next. Then the
// session call one served request makes on a resident support pattern
// (BM_SessionPatternHit, below).
//
// Every request is H1 over a 3x3 domain with all 15 tuples at fresh k/16
// weights (k in 1..15, so the support pattern never changes): one resident
// circuit answers them all, and the time is the serving tier's plus a
// short dyadic walk. A lone client shows the per-request hop; more clients
// show whether requests that arrive during a round still coalesce
// (max_batch > 1).
//
// Counters: replies_per_s (all clients together), p50_us and p99_us (one
// request's round trip as its client sees it), max_batch (the largest
// round the server ran) and mean_batch (requests per round, warm-up
// included). Every reply is checked against an in-process
// GfomcSession; a wrong or non-OK reply fails the run (SkipWithError).
// Ungated: a shared host moves these numbers run to run, so compare two
// builds by alternating runs on one machine.

#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compile/circuit_cache.h"
#include "core/dichotomy.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "serve/serve.h"
#include "util/rational.h"

namespace {

// Requests each client sends per benchmark iteration.
constexpr int kRequestsPerClient = 200;
// Distinct weight vectors, each with its reference answer.
constexpr int kWeightVectors = 256;

// A blocking line client: one request, one reply, 10 s receive timeout.
class Client {
 public:
  ~Client() {
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

  // The reply line, or "" on a send failure, EOF or timeout.
  std::string Roundtrip(const std::string& line) {
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      off += static_cast<size_t>(n);
    }
    return ReadLine();
  }

 private:
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

  int fd_ = -1;
  std::string buffer_;
};

// The TID tails ("3 3 1/2 R(0)=k/16 ...") and their exact answers.
struct Workload {
  std::vector<std::string> tails;
  std::vector<std::string> answers;
};

Workload MakeWorkload(const gmc::Query& query) {
  Workload workload;
  gmc::GfomcSession reference;
  std::mt19937_64 rng(1);
  const gmc::SymbolId r = query.vocab().Find("R");
  const gmc::SymbolId s = query.vocab().Find("S");
  const gmc::SymbolId t = query.vocab().Find("T");
  for (int j = 0; j < kWeightVectors; ++j) {
    gmc::Tid tid(query.vocab_ptr(), 3, 3, gmc::Rational::Half());
    std::string tail = "3 3 1/2";
    auto weight = [&](const std::string& tuple) {
      const int k = 1 + static_cast<int>(rng() % 15);
      tail += " " + tuple + "=" + std::to_string(k) + "/16";
      return gmc::Rational(k, 16);
    };
    for (int u = 0; u < 3; ++u) {
      tid.SetUnaryLeft(r, u, weight("R(" + std::to_string(u) + ")"));
    }
    for (int u = 0; u < 3; ++u) {
      for (int v = 0; v < 3; ++v) {
        tid.SetBinary(s, u, v,
                      weight("S(" + std::to_string(u) + "," +
                             std::to_string(v) + ")"));
      }
    }
    for (int v = 0; v < 3; ++v) {
      tid.SetUnaryRight(t, v, weight("T(" + std::to_string(v) + ")"));
    }
    workload.tails.push_back(std::move(tail));
    workload.answers.push_back(
        reference.Evaluate(query, tid).probability.ToString());
  }
  return workload;
}

// The value at quantile q of `values` (reordered in place).
double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const size_t k = std::min(values.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(
                                                        values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

void BM_ServeClosedLoop(benchmark::State& state) {
  const int num_clients = static_cast<int>(state.range(0));
  const gmc::Query query =
      gmc::ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  const Workload workload = MakeWorkload(query);

  gmc::serve::GmcServerOptions options;
  options.socket_path =
      "/tmp/gmc_bench_serve_" + std::to_string(::getpid()) + ".sock";
  options.num_threads = 1;
  options.max_pending = 256;
  gmc::serve::GmcServer server(query, options);
  std::string error;
  if (!server.Start(&error)) {
    state.SkipWithError(("server did not start: " + error).c_str());
    return;
  }
  std::vector<Client> clients(static_cast<size_t>(num_clients));
  for (Client& client : clients) {
    // The first request compiles the circuit; the timed ones find it.
    if (!client.Connect(server.socket_path()) ||
        client.Roundtrip("EVAL warm " + workload.tails[0] + "\n") !=
            "OK warm " + workload.answers[0] + " lifted=0") {
      state.SkipWithError("client could not connect and warm up");
      return;
    }
  }

  std::vector<std::vector<double>> latencies_us(clients.size());
  std::vector<std::string> wrong(clients.size());
  uint64_t sequence = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients.size(); ++c) {
      workers.emplace_back([&, c, first = sequence] {
        for (int i = 0; i < kRequestsPerClient && wrong[c].empty(); ++i) {
          const uint64_t n = first + static_cast<uint64_t>(i);
          const size_t j = (n * 7 + c * 31) % kWeightVectors;
          const std::string id =
              "c" + std::to_string(c) + "." + std::to_string(n);
          const auto sent = std::chrono::steady_clock::now();
          const std::string reply =
              clients[c].Roundtrip("EVAL " + id + " " + workload.tails[j] +
                                   "\n");
          latencies_us[c].push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - sent)
                  .count());
          if (reply != "OK " + id + " " + workload.answers[j] + " lifted=0") {
            wrong[c] = "request " + id + " answered '" + reply + "'";
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    sequence += kRequestsPerClient;
    for (const std::string& message : wrong) {
      if (!message.empty()) {
        state.SkipWithError(message.c_str());
        return;
      }
    }
  }

  std::vector<double> all;
  for (const std::vector<double>& each : latencies_us) {
    all.insert(all.end(), each.begin(), each.end());
  }
  state.counters["replies_per_s"] = benchmark::Counter(
      static_cast<double>(all.size()), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = Quantile(all, 0.50);
  state.counters["p99_us"] = Quantile(all, 0.99);
  server.Stop();
  const gmc::serve::GmcServer::Stats stats = server.stats();
  state.counters["max_batch"] = static_cast<double>(stats.max_batch);
  state.counters["mean_batch"] = static_cast<double>(stats.batched_requests) /
                                 static_cast<double>(stats.batches);
}
BENCHMARK(BM_ServeClosedLoop)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// One GfomcSession::EvaluateAnswers call per iteration, one instance of a
// resident support pattern at fresh weights: the path a repeated request
// takes once its grounding template is bound to its circuit. Config 0: H1
// over 4×4, exact, every fifth tuple certain and the rest at k/16 (the
// dyadic walk). Config 1: C9 over 3×3, interval, every tuple at k/7 or
// k/11. Every answer is checked against Ground, GetShared and
// EvaluatePinned / EvaluateBatchInterval on a separate cache; a mismatch
// fails the run (SkipWithError). Ungated, like the closed loop above.
void BM_SessionPatternHit(benchmark::State& state) {
  const bool interval = state.range(0) == 1;
  const gmc::Query query = gmc::ParseQueryOrDie(
      interval ? "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | "
                 "S3(x,y)) & Ay (Ax (S3(x,y)) | Ax (S4(x,y)))"
               : "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  const int side = interval ? 3 : 4;
  const gmc::Vocabulary& vocab = query.vocab();
  std::mt19937_64 rng(29);
  std::vector<std::vector<gmc::Tid>> calls;  // one instance each
  std::vector<gmc::Rational> exact;
  std::vector<gmc::ProbInterval> enclosures;
  gmc::CircuitCache reference;
  for (int j = 0; j < kWeightVectors; ++j) {
    gmc::Tid tid(query.vocab_ptr(), side, side, gmc::Rational::One());
    int t = 0;
    for (const gmc::SymbolId s : query.Symbols()) {
      const bool binary = vocab.IsBinary(s);
      const bool left = vocab.kind(s) == gmc::SymbolKind::kUnaryLeft;
      for (int u = 0; u < side; ++u) {
        for (int v = 0; v < (binary ? side : 1); ++v, ++t) {
          if (!interval && t % 5 == 0) continue;  // certain: the default
          const int64_t den = interval ? (rng() % 2 == 0 ? 7 : 11) : 16;
          const int64_t num = 1 + static_cast<int64_t>(rng() % (den - 1));
          tid.Set(binary ? gmc::TupleKey{s, u, v}
                  : left ? gmc::TupleKey{s, u, -1}
                         : gmc::TupleKey{s, -1, u},
                  gmc::Rational(num, den));
        }
      }
    }
    const gmc::Lineage lineage = gmc::Ground(query, tid);
    const std::shared_ptr<const gmc::NnfCircuit> circuit =
        reference.GetShared(lineage.cnf);
    const gmc::WeightMatrix one =
        gmc::WeightMatrix::FromRows({lineage.probabilities});
    if (interval) {
      enclosures.push_back(circuit->EvaluateBatchInterval(one, 1)[0]);
    } else {
      exact.push_back(reference.EvaluatePinned(*circuit, one)[0]);
    }
    calls.push_back({std::move(tid)});
  }

  gmc::GfomcSession session;
  gmc::GmcOptions request = session.options();
  request.num_threads = 1;
  session.Configure(request);
  request.routing_mode =
      interval ? gmc::RoutingMode::kInterval : gmc::RoutingMode::kExact;
  std::vector<gmc::GmcAnswer> answers;
  // The first sight grounds, compiles and binds the template.
  session.EvaluateAnswers(query, calls[0], request, &answers);
  size_t j = 0;
  for (auto _ : state) {
    const std::vector<gmc::GmcStatus> statuses =
        session.EvaluateAnswers(query, calls[j], request, &answers);
    const bool same =
        statuses[0].ok() &&
        (interval ? answers[0].interval.lo == enclosures[j].lo &&
                        answers[0].interval.hi == enclosures[j].hi
                  : answers[0].exact == exact[j]);
    if (!same) {
      state.SkipWithError(("instance " + std::to_string(j) +
                           " answered unlike the reference pass")
                              .c_str());
      return;
    }
    j = (j + 1) % calls.size();
  }
  const gmc::GfomcSession::Stats stats = session.stats();
  state.counters["compiles"] = static_cast<double>(stats.cache.compiles);
  state.counters["template_misses"] =
      static_cast<double>(stats.template_misses);
}
BENCHMARK(BM_SessionPatternHit)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
