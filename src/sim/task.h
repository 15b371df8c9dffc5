// Coroutine task type for the discrete-event simulator.
//
// Task<T> is a lazily-started coroutine. Awaiting a Task starts it and
// suspends the awaiter until the task completes; the task's return value (or
// exception) is propagated to the awaiter. Root tasks are handed to
// Simulator::Spawn, which starts them and owns their frames; a root has no
// awaiter, so on completion it reports its spawn sequence number to the
// simulator instead (see ReportCompletionTo).
//
// The whole simulation is single-threaded, so no synchronisation is needed
// anywhere in this file.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>
#include <variant>
#include <vector>

#include "src/sim/check.h"

namespace rlsim {

template <typename T>
class Task;

namespace internal {

class TaskPromiseBase {
 public:
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      // Symmetric transfer to whoever awaited this task, if anyone. A root
      // task has no awaiter: it reports its completion instead.
      TaskPromiseBase& p = h.promise();
      if (p.continuation_) {
        return p.continuation_;
      }
      if (p.finished_ != nullptr) {
        p.finished_->push_back(p.root_seq_);
      }
      return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }

  void set_continuation(std::coroutine_handle<> h) noexcept {
    continuation_ = h;
  }

  void ReportCompletionTo(std::vector<uint64_t>* finished,
                          uint64_t root_seq) noexcept {
    finished_ = finished;
    root_seq_ = root_seq;
  }

 protected:
  std::coroutine_handle<> continuation_;
  std::vector<uint64_t>* finished_ = nullptr;  // set on root tasks only
  uint64_t root_seq_ = 0;
};

}  // namespace internal

// A lazily-started coroutine returning T. Move-only; owns the frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::TaskPromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }

    void return_value(T value) {
      result_.template emplace<1>(std::move(value));
    }

    void unhandled_exception() {
      result_.template emplace<2>(std::current_exception());
    }

    T TakeResult() {
      if (result_.index() == 2) {
        std::rethrow_exception(std::get<2>(result_));
      }
      RL_CHECK_MSG(result_.index() == 1, "task awaited before completion");
      return std::move(std::get<1>(result_));
    }

    std::variant<std::monostate, T, std::exception_ptr> result_;
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.done(); }

  // Starts a detached task. Only Simulator::Spawn should call this; awaited
  // tasks are started by the awaiter via symmetric transfer.
  void Start() {
    RL_CHECK(handle_ && !handle_.done());
    handle_.resume();
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return !handle || handle.done(); }

      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().set_continuation(awaiting);
        return handle;  // start the child
      }

      T await_resume() { return handle.promise().TakeResult(); }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

// Specialisation for tasks with no result.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::TaskPromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }

    void return_void() {}

    void unhandled_exception() { exception_ = std::current_exception(); }

    void TakeResult() {
      if (exception_) {
        std::rethrow_exception(exception_);
      }
    }

    std::exception_ptr exception_;
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.done(); }

  void Start() {
    RL_CHECK(handle_ && !handle_.done());
    handle_.resume();
  }

  // Makes a root task append `root_seq` to `*finished` when it completes.
  // Only Simulator::Spawn should call this, before Start(): a root can
  // finish synchronously inside Start().
  void ReportCompletionTo(std::vector<uint64_t>* finished, uint64_t root_seq) {
    RL_CHECK(handle_ && !handle_.done());
    handle_.promise().ReportCompletionTo(finished, root_seq);
  }

  // Rethrows the task's exception, if it ended with one. Only meaningful
  // once done().
  void Rethrow() {
    if (handle_) {
      handle_.promise().TakeResult();
    }
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return !handle || handle.done(); }

      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().set_continuation(awaiting);
        return handle;
      }

      void await_resume() { handle.promise().TakeResult(); }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace rlsim
