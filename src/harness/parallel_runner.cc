#include "src/harness/parallel_runner.h"

#include <pthread.h>

#include <atomic>
#include <exception>
#include <thread>

#include "src/sim/check.h"

namespace rlharness {

namespace {

// Stack size of each worker thread. `ulimit -s` sizes only the main thread.
// In the ASan/UBSan build coroutine resumptions nest (BTree::Put ->
// BufferPool::Fetch -> DescendToLeaf), because symmetric transfer is not a
// tail call there: parallel_determinism_test overflowed a worker at the
// default stack and at 8 MiB, and passed at 32 MiB and 128 MiB. Pages a
// worker never touches cost only address space.
constexpr size_t kWorkerStackBytes = size_t{64} << 20;

}  // namespace

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void RunIndexedJobs(int jobs, size_t n,
                    const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const size_t workers =
      std::min(static_cast<size_t>(jobs < 1 ? 1 : jobs), n);

  // One exception slot per job, filled by whichever worker ran it; the
  // lowest-index failure is rethrown after the pool drains, so the surfaced
  // error does not depend on thread scheduling.
  std::vector<std::exception_ptr> errors(n);

  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&next, &errors, &fn, n] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    // pthreads rather than std::thread: only they take a stack size.
    const auto start = [](void* w) -> void* {
      (*static_cast<decltype(worker)*>(w))();
      return nullptr;
    };
    pthread_attr_t attr{};
    RL_CHECK(pthread_attr_init(&attr) == 0);
    RL_CHECK(pthread_attr_setstacksize(&attr, kWorkerStackBytes) == 0);
    std::vector<pthread_t> pool;
    pool.reserve(workers);
    int create_error = 0;
    while (pool.size() < workers && create_error == 0) {
      pthread_t t{};
      create_error = pthread_create(&t, &attr, start, &worker);
      if (create_error == 0) {
        pool.push_back(t);
      }
    }
    pthread_attr_destroy(&attr);
    // Join whatever started before failing: the workers use this frame.
    for (pthread_t t : pool) {
      pthread_join(t, nullptr);
    }
    RL_CHECK_MSG(create_error == 0, "pthread_create failed: " << create_error);
  }

  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }
}

}  // namespace rlharness
