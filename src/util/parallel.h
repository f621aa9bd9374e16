// Chunked thread pool for the batched evaluation hot paths.
//
// The pool is deliberately minimal: persistent workers, one task batch in
// flight at a time, and a claim-counter distribution scheme. Determinism is
// by construction, not by scheduling discipline — every task writes to
// disjoint, caller-owned slots and reads only shared immutable state, so
// the pool decides WHEN a task runs but never what it computes or where the
// result goes. Callers that need an ordered reduction (the batch evaluators
// collecting K root values) perform it on the caller thread, in slot order,
// after Run returns; results are therefore bit-identical at any thread
// count, which the thread-count-invariance tests pin down.
//
// Nesting: a Run issued from inside a pool task executes inline on the
// calling worker (no new tasks are enqueued), so composed parallel layers
// degrade to the outer layer's partitioning instead of deadlocking.

#ifndef GMC_UTIL_PARALLEL_H_
#define GMC_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gmc {

namespace internal {
// Parses a thread-count spec (the GMC_THREADS environment variable):
// a positive decimal integer, clamped to [1, kMaxThreads]. Returns 0 for
// null, empty, or malformed input ("use the hardware default").
int ParseThreadsSpec(const char* spec);
inline constexpr int kMaxThreads = 256;
}  // namespace internal

// Process-wide default worker count for parallel batch passes: the
// GMC_THREADS environment variable (read once), else
// std::thread::hardware_concurrency. Always >= 1; 1 means every batch pass
// runs serially. GmcOptions::num_threads overrides it per cache or session.
int DefaultNumThreads();

class ThreadPool {
 public:
  // Spawns num_threads - 1 persistent workers (the caller thread is the
  // remaining participant; num_threads <= 1 spawns none and Run degrades
  // to an inline loop).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs task(0) .. task(num_tasks - 1), each exactly once, distributed
  // over the workers and the calling thread; returns when all are done.
  // Tasks must not block on each other. Thread-safe: concurrent Run calls
  // from different threads serialize on an internal mutex. A Run from
  // inside a pool task executes inline (see header comment).
  void Run(int num_tasks, const std::function<void(int)>& task);

  // The shared process-wide pool, lazily constructed on first use and
  // never destroyed (workers park on a condition variable when idle).
  // Sized generously — max(hardware_concurrency, 8) workers — so
  // invariance tests can exercise more chunks than cores; Run's num_tasks
  // caps the parallelism actually used per call.
  static ThreadPool& Shared();

 private:
  struct Job {
    const std::function<void(int)>* task = nullptr;
    int num_tasks = 0;
    std::atomic<int> next{0};
  };

  void WorkerLoop();
  // Claims and executes tasks until the job is drained.
  static void WorkOn(Job* job);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex run_mu_;  // one job in flight at a time

  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;   // bumped per job; workers wake on change
  Job* job_ = nullptr;        // non-null while a job accepts workers
  int active_workers_ = 0;    // workers currently inside WorkOn
  bool stop_ = false;
};

// Splits [0, n) into at most `num_threads` contiguous chunks of at least
// `min_grain` elements each and runs body(begin, end, chunk_index) for
// every chunk over the shared pool (num_threads <= 0 resolves to
// DefaultNumThreads()). Chunk boundaries depend only on (n, num_threads,
// min_grain) — never on timing — and chunks are disjoint, so any body
// that writes chunk-local slots is deterministic at every thread count.
void ParallelFor(int64_t n, int num_threads, int64_t min_grain,
                 const std::function<void(int64_t, int64_t, int)>& body);

}  // namespace gmc

#endif  // GMC_UTIL_PARALLEL_H_
