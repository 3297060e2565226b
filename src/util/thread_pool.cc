#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace dkc {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& body) {
  if (count == 0) return;
  const size_t workers = num_threads();
  // Inline for tiny ranges or a degenerate pool: the chunking overhead would
  // dominate.
  if (workers <= 1 || count < 2 * workers) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Dynamic scheduling: shared cursor, fixed-size chunks. Clique workloads
  // are badly skewed (hub nodes cost orders of magnitude more), so static
  // partitioning would leave threads idle.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  const size_t chunk = std::max<size_t>(1, count / (workers * 8));
  for (size_t w = 0; w < workers; ++w) {
    Submit([next, chunk, count, &body] {
      for (;;) {
        const size_t begin = next->fetch_add(chunk);
        if (begin >= count) return;
        const size_t end = std::min(count, begin + chunk);
        for (size_t i = begin; i < end; ++i) body(i);
      }
    });
  }
  Wait();
}

}  // namespace dkc
