#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace vmtherm::util {

ThreadPool::ThreadPool(std::size_t thread_count) {
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  if (workers_.empty()) {
    packaged();  // no workers: degenerate inline execution
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  work_available_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  if (workers_.empty() || count == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  struct LoopState {
    std::atomic<std::size_t> next;
    std::atomic<std::size_t> helpers_done{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::size_t first_error_index;
    std::exception_ptr first_error;
  };
  LoopState state;
  state.next.store(begin, std::memory_order_relaxed);
  state.first_error_index = end;

  // `state` and `body` are captured by reference: parallel_for only returns
  // after every helper has made its last access to them, so the references
  // cannot dangle. Owning `state` here (not in the helper tasks) also means
  // the loop's exception is released on the calling thread that rethrew it.
  const auto run = [&state, end, &body]() noexcept {
    for (;;) {
      const std::size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        body(i);
      } catch (...) {
        state.failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(state.error_mutex);
        if (i < state.first_error_index) {
          state.first_error_index = i;
          state.first_error = std::current_exception();
        }
      }
    }
  };

  const std::size_t helpers = std::min(workers_.size(), count - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([this, &state, run] {
        run();
        {
          // Publish under the queue mutex so the waiting thread cannot
          // check its predicate and sleep between the increment and the
          // notify (lost wakeup).
          std::lock_guard<std::mutex> notify_lock(mutex_);
          state.helpers_done.fetch_add(1, std::memory_order_release);
        }
        work_available_.notify_all();
      });
    }
  }
  work_available_.notify_all();

  run();  // the calling thread participates

  // Work-stealing wait: while our helpers haven't all finished, execute
  // whatever is queued (our helpers, or tasks of other loops — possibly
  // nested ones) instead of blocking. This is what makes nested
  // parallel_for deadlock-free: a thread waiting on a loop never idles
  // while runnable work exists.
  while (state.helpers_done.load(std::memory_order_acquire) < helpers) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [&] {
        return !queue_.empty() ||
               state.helpers_done.load(std::memory_order_acquire) >= helpers;
      });
      if (state.helpers_done.load(std::memory_order_acquire) >= helpers) {
        break;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }

  if (state.failed.load(std::memory_order_relaxed)) {
    std::rethrow_exception(state.first_error);
  }
}

std::size_t ThreadPool::resolve_thread_count(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace vmtherm::util
