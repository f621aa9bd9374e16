#include "util/parallel.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace gmc {

namespace internal {

int ParseThreadsSpec(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 0;
  int value = 0;
  for (const char* p = spec; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return 0;
    if (value > kMaxThreads) break;  // saturate; clamp below
    value = value * 10 + (*p - '0');
  }
  if (value <= 0) return 0;
  return std::min(value, kMaxThreads);
}

}  // namespace internal

namespace {

// True while the current thread is executing pool tasks (worker or
// participating caller); nested Run calls go inline instead of deadlocking
// on the single-job-in-flight mutex.
thread_local bool tl_in_parallel_region = false;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int EnvNumThreads() {
  static const int env = internal::ParseThreadsSpec(std::getenv("GMC_THREADS"));
  return env;
}

}  // namespace

int DefaultNumThreads() {
  const int env = EnvNumThreads();
  if (env > 0) return env;
  return HardwareThreads();
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: workers park when idle, and tearing the pool down
  // during static destruction would race exiting threads.
  static ThreadPool* pool =
      new ThreadPool(std::max(HardwareThreads(), 8));
  return *pool;
}

void ThreadPool::WorkOn(Job* job) {
  tl_in_parallel_region = true;
  for (;;) {
    const int index = job->next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job->num_tasks) break;
    (*job->task)(index);
  }
  tl_in_parallel_region = false;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    Job* job = job_;
    if (job == nullptr) continue;  // woke after the job was retired
    ++active_workers_;
    lock.unlock();
    WorkOn(job);
    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::Run(int num_tasks, const std::function<void(int)>& task) {
  GMC_CHECK(num_tasks >= 0);
  if (num_tasks == 0) return;
  if (num_threads_ <= 1 || num_tasks == 1 || tl_in_parallel_region) {
    const bool was_nested = tl_in_parallel_region;
    tl_in_parallel_region = true;
    for (int i = 0; i < num_tasks; ++i) task(i);
    tl_in_parallel_region = was_nested;
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mu_);
  Job job;
  job.task = &task;
  job.num_tasks = num_tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  wake_cv_.notify_all();
  // The caller is a participant too, so the pool is never idle-waiting on
  // a loaded machine and a 1-worker pool still makes progress.
  WorkOn(&job);
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Retire the job first so late-waking workers skip it, then wait for
    // the workers already inside it to drain; job lives on this stack
    // frame, so nobody may touch it after Run returns.
    job_ = nullptr;
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  }
}

void ParallelFor(int64_t n, int num_threads, int64_t min_grain,
                 const std::function<void(int64_t, int64_t, int)>& body) {
  if (n <= 0) return;
  if (num_threads <= 0) num_threads = DefaultNumThreads();
  min_grain = std::max<int64_t>(1, min_grain);
  const int64_t max_chunks = std::max<int64_t>(1, n / min_grain);
  const int num_chunks = static_cast<int>(
      std::min<int64_t>(std::min<int64_t>(num_threads, max_chunks), n));
  if (num_chunks <= 1) {
    body(0, n, 0);
    return;
  }
  ThreadPool::Shared().Run(num_chunks, [&](int chunk) {
    const int64_t begin = n * chunk / num_chunks;
    const int64_t end = n * (chunk + 1) / num_chunks;
    body(begin, end, chunk);
  });
}

}  // namespace gmc
