// gmc_serve — a long-lived GFOMC evaluation server.
//
// Wraps serve::GmcServer (see src/serve/serve.h for the wire protocol)
// around one query: compile-once / evaluate-many across PROCESSES, with
// optional circuit persistence so restarts and replicas warm-start from
// disk instead of recompiling.
//
// Usage:
//   gmc_serve --socket=/tmp/gmc.sock --query='Ax Ay (R(x) | S(x,y))'
//             [--store=DIR] [--threads=N] [--max-pending=N] [--no-warm]
//             [--read-idle-ms=N] [--write-timeout-ms=N] [--backlog=N]
//             [--max-connections=N] [--max-inflight-per-conn=N]
//
// Numeric values are plain decimal digits, at most nine of them; anything
// else (a sign, a unit suffix, an empty value) prints the usage line and
// exits 2. --max-connections defaults from the GMC_MAX_CONNECTIONS
// environment variable (the flag wins when both are set; a malformed
// variable keeps the default); 0 means unlimited. Clients accepted past
// the cap get one typed "ERR - BUSY retry_after_ms=<n>" greeting and are
// closed.
//
// Talk to it with any line client, e.g.:
//   printf 'EVAL q1 2 2 1/2\nQUIT\n' | nc -U /tmp/gmc.sock
//
// SIGINT/SIGTERM trigger a graceful shutdown: queued requests are
// answered, the write-through store is flushed, then the process exits.

#include <signal.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "logic/parser.h"
#include "serve/serve.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

// --flag=value extraction; returns true and fills *value on match.
bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

// A numeric flag value, through the server's digit-only wire parser.
// Leaves *out untouched and returns false on malformed input.
template <typename T>
bool ParseCount(const std::string& value, T* out) {
  int parsed = 0;
  if (!gmc::serve::internal::ParseSmallInt(value, &parsed)) return false;
  *out = static_cast<T>(parsed);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH --query=QUERY [--store=DIR] "
               "[--threads=N] [--max-pending=N] [--max-domain=N] "
               "[--no-warm] [--read-idle-ms=N] [--write-timeout-ms=N] "
               "[--backlog=N] [--max-connections=N] "
               "[--max-inflight-per-conn=N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string query_text;
  gmc::serve::GmcServerOptions options;

  // Environment default for deployments that cannot edit the command line
  // (service managers with fixed unit files); the flag overrides it.
  if (const char* env = std::getenv("GMC_MAX_CONNECTIONS")) {
    ParseCount(env, &options.max_connections);
  }

  for (int i = 1; i < argc; ++i) {
    std::string value;
    bool ok = true;
    if (FlagValue(argv[i], "--socket", &value)) {
      socket_path = value;
    } else if (FlagValue(argv[i], "--query", &value)) {
      query_text = value;
    } else if (FlagValue(argv[i], "--store", &value)) {
      options.store_directory = value;
    } else if (FlagValue(argv[i], "--threads", &value)) {
      ok = ParseCount(value, &options.num_threads);
    } else if (FlagValue(argv[i], "--max-pending", &value)) {
      ok = ParseCount(value, &options.max_pending);
    } else if (FlagValue(argv[i], "--max-domain", &value)) {
      ok = ParseCount(value, &options.max_domain);
    } else if (FlagValue(argv[i], "--read-idle-ms", &value)) {
      // 0 = never reap idle connections (the default).
      ok = ParseCount(value, &options.read_idle_ms);
    } else if (FlagValue(argv[i], "--write-timeout-ms", &value)) {
      // 0 = block forever on a stalled peer.
      ok = ParseCount(value, &options.write_timeout_ms);
    } else if (FlagValue(argv[i], "--backlog", &value)) {
      ok = ParseCount(value, &options.listen_backlog);
    } else if (FlagValue(argv[i], "--max-connections", &value)) {
      // 0 = unlimited.
      ok = ParseCount(value, &options.max_connections);
    } else if (FlagValue(argv[i], "--max-inflight-per-conn", &value)) {
      // 0 = unlimited.
      ok = ParseCount(value, &options.max_inflight_per_connection);
    } else if (std::strcmp(argv[i], "--no-warm") == 0) {
      options.warm_start = false;
    } else {
      ok = false;
    }
    if (!ok) return Usage(argv[0]);
  }
  if (socket_path.empty() || query_text.empty()) return Usage(argv[0]);
  options.socket_path = socket_path;

  // A client that disconnects mid-write must surface as EPIPE from send,
  // never as process death; GmcServer::Start ignores SIGPIPE too, but the
  // disposition belongs to the process and is set before any socket exists.
  std::signal(SIGPIPE, SIG_IGN);

  // Block the shutdown signals BEFORE installing handlers or spawning the
  // server threads (which inherit the mask): delivery can then only happen
  // inside sigsuspend below, closing the window where a signal lands
  // between the g_stop check and the suspend and is lost forever.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  ::sigprocmask(SIG_BLOCK, &shutdown_signals, nullptr);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  gmc::serve::GmcServer server(gmc::ParseQueryOrDie(query_text),
                               std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "gmc_serve: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "gmc_serve: listening on %s\n", socket_path.c_str());

  sigset_t wait_mask;
  ::sigprocmask(SIG_SETMASK, nullptr, &wait_mask);
  sigdelset(&wait_mask, SIGINT);
  sigdelset(&wait_mask, SIGTERM);
  while (!g_stop) sigsuspend(&wait_mask);  // wait for a shutdown signal

  std::fprintf(stderr, "gmc_serve: shutting down\n");
  server.Stop();
  const gmc::serve::GmcServer::Stats stats = server.stats();
  std::fprintf(stderr,
               "gmc_serve: served %llu requests in %llu batches "
               "(max batch %llu, shed %llu)\n",
               static_cast<unsigned long long>(stats.responses),
               static_cast<unsigned long long>(stats.batches),
               static_cast<unsigned long long>(stats.max_batch),
               static_cast<unsigned long long>(stats.shed));
  return 0;
}
