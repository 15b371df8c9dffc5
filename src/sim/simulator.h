// The discrete-event simulation core.
//
// A Simulator owns a virtual clock and an event queue. Work is expressed as
// coroutines (rlsim::Task) that co_await timers and synchronisation objects;
// the simulator resumes them in deterministic timestamp order (ties broken by
// insertion sequence). Everything runs on a single OS thread; simulated
// concurrency costs no real threads, and a given seed always produces the
// same execution.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace rlsim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 42);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  TimePoint now() const { return now_; }

  // Root RNG. Prefer rng().Fork() per component.
  Rng& rng() { return rng_; }

  // Enqueues fn to run `delay` from now (delay >= 0).
  void Schedule(Duration delay, std::function<void()> fn);
  void ScheduleAt(TimePoint at, std::function<void()> fn);

  // Awaitable that resumes the caller `d` from now. Sleep(Zero) still yields
  // through the event queue (a cooperative reschedule).
  auto Sleep(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration delay;

      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        sim.Schedule(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  // Starts a detached root task. The simulator owns its frame and destroys
  // it at the first reap after the task finishes; if the task ended with an
  // uncaught exception, that reap rethrows it from Run()/RunUntil(). The
  // label is ignored and not stored, so no spawn allocates; the parameter
  // stays only so that callers which still pass one compile unchanged.
  void Spawn(Task<void> task, std::string_view label = {});

  // Runs events until the queue is empty or Stop() is called. Returns the
  // number of events processed.
  size_t Run();

  // Runs events with timestamp <= deadline. The clock ends at exactly
  // `deadline` even if the queue drains early.
  size_t RunUntil(TimePoint deadline);
  size_t RunFor(Duration d) { return RunUntil(now_ + d); }

  // Makes Run()/RunUntil() return after the current event.
  void Stop() { stopped_ = true; }

  // Number of root tasks that have not yet completed.
  size_t pending_tasks() const {
    return roots_.size() - finished_roots_.size();
  }

  // Optional execution-trace sink (see src/sim/trace.h). Not owned; the
  // caller must clear it before the sink dies. Null = tracing off.
  TraceEventSink* tracer() const { return tracer_; }
  void set_tracer(TraceEventSink* tracer) { tracer_ = tracer; }

  // Emits one trace event at the current virtual time. Callers computing a
  // non-trivial payload CRC should guard on tracer() != nullptr first.
  void EmitTrace(std::string_view actor, std::string_view kind,
                 uint32_t payload_crc) {
    if (tracer_ != nullptr) {
      tracer_->OnTraceEvent(now_, actor, kind, payload_crc);
    }
  }

  // Opens a span at the current virtual time and returns its id (0 with no
  // tracer installed — the null fast path costs one branch, and no id is
  // allocated, so a run that later installs a tracer sees the same id
  // sequence as one traced from the start). `parent` is the id of the
  // causally-enclosing span, 0 for a root; a parent id received over the
  // wire (TraceContext) is valid here because every node shares this
  // simulator's id space. Span ids are observability state only: they never
  // feed back into the simulation, so behaviour is identical with tracing
  // on or off.
  uint64_t EmitSpanBegin(std::string_view actor, std::string_view kind,
                         int64_t arg = 0, uint64_t parent = 0) {
    if (tracer_ == nullptr) {
      return 0;
    }
    const uint64_t id = ++next_span_id_;
    tracer_->OnSpanBegin(now_, actor, kind, id, parent, arg);
    return id;
  }

  // Closes a span previously opened with EmitSpanBegin. Accepts id 0 (span
  // was never opened because no tracer was installed) as a no-op.
  void EmitSpanEnd(uint64_t span_id, std::string_view actor,
                   std::string_view kind, int64_t arg = 0) {
    if (tracer_ == nullptr || span_id == 0) {
      return;
    }
    RL_CHECK_MSG(span_id <= next_span_id_,
                 "span id was never allocated by this simulator");
    tracer_->OnSpanEnd(now_, actor, kind, span_id, arg);
  }

  // Total span ids handed out so far. Regression hook for the "no tracer =>
  // no ids" invariant: after any untraced stretch this must not have moved.
  uint64_t span_ids_allocated() const { return next_span_id_; }

 private:
  // Event storage is split hot/cold to keep per-event cost off the schedule
  // path. The heap orders small POD entries (24 bytes — cheap to sift);
  // each entry points at a pooled node holding the std::function. Nodes are
  // slab-allocated and recycled through a free list, so steady-state
  // scheduling does no heap allocation at all (beyond what a captured
  // closure too big for the function's small-buffer optimisation needs).
  struct EventNode {
    std::function<void()> fn;
    EventNode* next_free = nullptr;
  };
  struct HeapEntry {
    TimePoint at;
    uint64_t seq;  // FIFO order among same-timestamp events
    EventNode* node;
  };
  struct EventLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };

  // Pops and runs one event. Returns false if the queue is empty, the next
  // event is beyond `deadline`, or Stop() was called.
  bool Step(TimePoint deadline);
  // Destroys the roots that finished since the last reap, in spawn order,
  // rethrowing the first uncaught exception among them. Runs every 4096
  // events and at the end of every Run()/RunUntil().
  void ReapFinishedTasks();

  EventNode* AllocNode();
  void FreeNode(EventNode* node);

  TimePoint now_ = TimePoint::Origin();
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  // Binary heap over heap_ (std::push_heap/pop_heap with EventLater), with
  // capacity reserved up front and retained across Run()s.
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_list_ = nullptr;
  // Live and finished-but-unreaped root tasks, keyed by spawn sequence, and
  // the sequence numbers of those that finished since the last reap (each
  // root appends its own on completion; see Task::ReportCompletionTo).
  std::map<uint64_t, Task<void>> roots_;
  std::vector<uint64_t> finished_roots_;
  uint64_t next_root_seq_ = 0;
  Rng rng_;
  TraceEventSink* tracer_ = nullptr;
  uint64_t next_span_id_ = 0;
};

// RAII span: begins on construction, ends on destruction — including when a
// coroutine frame unwinds through an exception (a commit that dies mid-path
// still closes its spans at the unwind's virtual time). The actor and kind
// string storage must outlive the scope (string literals and long-lived
// component names both qualify).
class SpanScope {
 public:
  SpanScope(Simulator& sim, std::string_view actor, std::string_view kind,
            int64_t arg = 0, uint64_t parent = 0)
      : sim_(sim),
        actor_(actor),
        kind_(kind),
        id_(sim.EmitSpanBegin(actor, kind, arg, parent)),
        end_arg_(arg) {}
  ~SpanScope() { sim_.EmitSpanEnd(id_, actor_, kind_, end_arg_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Overrides the argument reported on the end event (e.g. a status code or
  // the number of records the cycle actually flushed).
  void set_end_arg(int64_t arg) { end_arg_ = arg; }

  // The span's id (0 when no tracer is installed). Callers use it to parent
  // child spans or to stamp a TraceContext into an outgoing frame.
  uint64_t id() const { return id_; }

 private:
  Simulator& sim_;
  std::string_view actor_;
  std::string_view kind_;
  uint64_t id_;
  int64_t end_arg_;
};

}  // namespace rlsim
