#include "src/sim/simulator.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/sim/check.h"

namespace rlsim {

namespace {

// Events per pool slab. One slab covers most unit-test workloads; sustained
// workloads settle at the high-water mark of in-flight events.
constexpr size_t kSlabEvents = 256;

// Initial heap capacity, reserved once so early scheduling never reallocates.
constexpr size_t kInitialHeapCapacity = 1024;

}  // namespace

Simulator::Simulator(uint64_t seed) : rng_(seed) {
  heap_.reserve(kInitialHeapCapacity);
}

Simulator::~Simulator() {
  // Drop queued events before destroying still-suspended root frames so that
  // no queued callback can reference a destroyed frame. (Destruction order of
  // members alone would destroy roots_ first.) The pooled closures must be
  // destroyed explicitly: slab storage only dies with the member vectors.
  for (HeapEntry& e : heap_) {
    e.node->fn = nullptr;
  }
  heap_.clear();
  // Destroy the frames in spawn order (std::map's own teardown order is
  // unspecified), so that whatever their destructors do happens in a fixed
  // order.
  while (!roots_.empty()) {
    roots_.erase(roots_.begin());
  }
}

Simulator::EventNode* Simulator::AllocNode() {
  if (free_list_ == nullptr) {
    slabs_.push_back(std::make_unique<EventNode[]>(kSlabEvents));
    EventNode* slab = slabs_.back().get();
    for (size_t i = 0; i < kSlabEvents; ++i) {
      slab[i].next_free = free_list_;
      free_list_ = &slab[i];
    }
  }
  EventNode* node = free_list_;
  free_list_ = node->next_free;
  node->next_free = nullptr;
  return node;
}

void Simulator::FreeNode(EventNode* node) {
  node->next_free = free_list_;
  free_list_ = node;
}

void Simulator::Schedule(Duration delay, std::function<void()> fn) {
  RL_CHECK_MSG(delay >= Duration::Zero(),
               "cannot schedule in the past: " << ToString(delay));
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(TimePoint at, std::function<void()> fn) {
  RL_CHECK_MSG(at >= now_, "cannot schedule in the past");
  EventNode* node = AllocNode();
  node->fn = std::move(fn);
  heap_.push_back(HeapEntry{at, next_seq_++, node});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

void Simulator::Spawn(Task<void> task, std::string_view /*label*/) {
  RL_CHECK(task.valid());
  const uint64_t seq = next_root_seq_++;
  // Report completion before starting: the task may finish inside Start().
  task.ReportCompletionTo(&finished_roots_, seq);
  auto it = roots_.emplace_hint(roots_.end(), seq, std::move(task));
  it->second.Start();
}

bool Simulator::Step(TimePoint deadline) {
  if (stopped_ || heap_.empty()) {
    return false;
  }
  if (heap_.front().at > deadline) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  const HeapEntry ev = heap_.back();
  heap_.pop_back();
  // Move the closure out and recycle the node before running: fn may
  // schedule new events, which may take the node straight back.
  std::function<void()> fn = std::move(ev.node->fn);
  ev.node->fn = nullptr;
  FreeNode(ev.node);
  RL_CHECK(ev.at >= now_);
  now_ = ev.at;
  fn();
  return true;
}

size_t Simulator::Run() {
  stopped_ = false;
  size_t n = 0;
  while (Step(TimePoint::Max())) {
    ++n;
    if ((n & 0xFFF) == 0) {
      ReapFinishedTasks();
    }
  }
  ReapFinishedTasks();
  return n;
}

size_t Simulator::RunUntil(TimePoint deadline) {
  stopped_ = false;
  size_t n = 0;
  while (Step(deadline)) {
    ++n;
    if ((n & 0xFFF) == 0) {
      ReapFinishedTasks();
    }
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  ReapFinishedTasks();
  return n;
}

void Simulator::ReapFinishedTasks() {
  std::sort(finished_roots_.begin(), finished_roots_.end());
  size_t reaped = 0;
  try {
    for (; reaped < finished_roots_.size(); ++reaped) {
      auto it = roots_.find(finished_roots_[reaped]);
      it->second.Rethrow();  // propagate uncaught task exceptions to Run()
      roots_.erase(it);
    }
  } catch (...) {
    // The thrower and every root after it stay queued, so the next reap
    // rethrows the same exception first.
    finished_roots_.erase(finished_roots_.begin(),
                          finished_roots_.begin() +
                              static_cast<std::ptrdiff_t>(reaped));
    throw;
  }
  finished_roots_.clear();
}

}  // namespace rlsim
